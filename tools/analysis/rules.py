"""The repro-lint rules: repo-specific invariants as AST checks.

Each rule enforces one invariant a correctness argument in this repository
rests on.  See ``docs/ANALYSIS.md`` for the catalog with rationale and the
suppression syntax; ``tests/analysis_fixtures/`` holds one good and one bad
snippet per rule.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from tools.analysis.core import Finding, Module, Rule

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

#: Modules where *any* unsorted set/dict iteration is an error, because the
#: iteration order feeds published artifacts, gossip fanout, replica
#: selection, or RNG consumption (RL004's strict scope).  Everywhere else
#: only provably-set iteration is flagged (set order depends on string
#: hashing, i.e. on PYTHONHASHSEED, across processes).
ORDER_CRITICAL_MODULES = frozenset(
    {
        "repro/index/distributed.py",
        "repro/index/placement.py",
        "repro/net/gossip.py",
        "repro/ranking/distributed.py",
        "repro/core/publisher.py",
        "repro/core/worker.py",
        "repro/core/engine.py",
    }
)

#: Modules that must hold no reference into the engine's in-process soft
#: state (RL003): the metadata-plane isolation argument says a frontend (or
#: the serving layer, or the gossip fabric) is a *real remote node*.
PLANE_ISOLATED_PREFIXES = ("repro/search/", "repro/serve/")
PLANE_ISOLATED_MODULES = frozenset({"repro/net/gossip.py"})

_ORDER_INSENSITIVE_WRAPPERS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)


def _call_name(node: ast.AST) -> Optional[str]:
    """The bare callable name of a Call's func, if it is a simple Name."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


class _ScopeTypes(ast.NodeVisitor):
    """Cheap flow-insensitive inference: which local names are sets/dicts.

    One instance walks one function (or the module body).  A name counts as
    a set/dict when any assignment binds it to a provably set/dict
    expression, or an annotation declares it one.  ``self.<attr>`` names
    are inferred per class from ``__init__``-style assignments and
    annotations.  False positives are possible (a rebound name) and are
    what the suppression pragma is for; false negatives just mean the rule
    stays quiet — it is a tripwire, not a type checker.
    """

    def __init__(self) -> None:
        self.set_names: Set[str] = set()
        self.dict_names: Set[str] = set()
        self.set_attrs: Set[str] = set()
        self.dict_attrs: Set[str] = set()

    # -- expression classification -------------------------------------------------

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self.is_set_expr(node.func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr in self.set_attrs
        return False

    def is_dict_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return True
        if isinstance(node, ast.Call) and _call_name(node) == "dict":
            return True
        if isinstance(node, ast.Name):
            return node.id in self.dict_names
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr in self.dict_attrs
        return False

    # -- binding collection ----------------------------------------------------------

    _SET_HEADS = frozenset({"Set", "set", "frozenset", "FrozenSet", "MutableSet", "AbstractSet"})
    _DICT_HEADS = frozenset(
        {"Dict", "dict", "OrderedDict", "DefaultDict", "defaultdict", "Counter",
         "Mapping", "MutableMapping"}
    )

    @classmethod
    def _annotation_kind(cls, annotation: ast.AST) -> Optional[str]:
        # Only the *outermost* constructor decides the kind: a
        # ``List[Tuple[..., Dict[...], ...]]`` is a list no matter what its
        # elements hold.  String annotations are parsed, Optional unwrapped.
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        head = annotation
        if isinstance(head, ast.Subscript):
            outer = head.value
            outer_name = outer.attr if isinstance(outer, ast.Attribute) else (
                outer.id if isinstance(outer, ast.Name) else None
            )
            if outer_name == "Optional":
                return cls._annotation_kind(head.slice)
            head = outer
        if isinstance(head, ast.Attribute):
            name = head.attr
        elif isinstance(head, ast.Name):
            name = head.id
        else:
            return None
        if name in cls._SET_HEADS:
            return "set"
        if name in cls._DICT_HEADS:
            return "dict"
        return None

    def _bind(self, target: ast.AST, kind: Optional[str]) -> None:
        if kind is None:
            return
        if isinstance(target, ast.Name):
            (self.set_names if kind == "set" else self.dict_names).add(target.id)
        elif (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            (self.set_attrs if kind == "set" else self.dict_attrs).add(target.attr)

    def collect_args(self, args: ast.arguments) -> None:
        """Bind parameter annotations (``def drain(pending: set)``)."""
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is None:
                continue
            kind = self._annotation_kind(arg.annotation)
            if kind is not None:
                (self.set_names if kind == "set" else self.dict_names).add(arg.arg)

    def collect(self, nodes: List[ast.stmt]) -> None:
        for statement in nodes:
            for node in ast.walk(statement):
                if isinstance(node, ast.Assign):
                    kind = (
                        "set"
                        if self.is_set_expr(node.value)
                        else "dict"
                        if self.is_dict_expr(node.value)
                        else None
                    )
                    for target in node.targets:
                        self._bind(target, kind)
                elif isinstance(node, ast.AnnAssign):
                    self._bind(node.target, self._annotation_kind(node.annotation))
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.BitOr, ast.BitAnd)
                ):
                    kind = "set" if self.is_set_expr(node.value) else None
                    self._bind(node.target, kind)


# ---------------------------------------------------------------------------
# RL001 — no unseeded randomness
# ---------------------------------------------------------------------------


class UnseededRandomness(Rule):
    """The global ``random`` module is process-global, unseeded state.

    Every experiment must be reproducible from a single seed; the only
    legitimate randomness sources are ``Simulator.rng`` and streams derived
    through ``Simulator.fork_rng``.  ``random.Random()`` with no seed
    arguments seeds from OS entropy and is equally forbidden.
    """

    rule_id = "RL001"
    title = "no unseeded randomness"

    def check(self, module: Module) -> Iterator[Finding]:
        random_aliases = {"random"}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield self.finding(
                            module,
                            node,
                            f"`from random import {alias.name}` pulls in the global, "
                            "unseeded RNG — take a seeded `random.Random` (via "
                            "`Simulator.fork_rng`) instead",
                        )
            elif isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id in random_aliases
                    and node.attr != "Random"
                ):
                    yield self.finding(
                        module,
                        node,
                        f"`random.{node.attr}` uses the process-global unseeded RNG; "
                        "use a simulator-derived `random.Random(seed)` stream",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                is_random_ctor = (isinstance(func, ast.Name) and func.id == "Random") or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "Random"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in random_aliases
                )
                if is_random_ctor and not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "`Random()` with no seed draws from OS entropy; pass an "
                        "explicit seed (or derive via `Simulator.fork_rng`)",
                    )


# ---------------------------------------------------------------------------
# RL002 — no wall-clock time
# ---------------------------------------------------------------------------

_WALLCLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "localtime",
        "gmtime",
        "ctime",
    }
)
_WALLCLOCK_DATE_ATTRS = frozenset({"now", "utcnow", "today"})


class WallClockTime(Rule):
    """All time must come from the simulator clock.

    ``time.time()`` (and friends) or ``datetime.now()`` silently couples a
    result to the machine the experiment ran on; benchmarks that need
    host-time measurement do it outside ``src/repro``.
    """

    rule_id = "RL002"
    title = "simulator clock only (no wall-clock reads)"

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            func = node.func
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id == "time"
                and func.attr in _WALLCLOCK_TIME_ATTRS
            ):
                yield self.finding(
                    module,
                    node,
                    f"`time.{func.attr}()` reads the wall clock; use "
                    "`simulator.now` / the simulated clock",
                )
            elif func.attr in _WALLCLOCK_DATE_ATTRS:
                base_names = {n.id for n in ast.walk(base) if isinstance(n, ast.Name)} | {
                    n.attr for n in ast.walk(base) if isinstance(n, ast.Attribute)
                }
                if {"datetime", "date"} & base_names:
                    yield self.finding(
                        module,
                        node,
                        f"`{func.attr}()` on datetime/date reads the wall clock; "
                        "simulated components must take time from the simulator",
                    )


# ---------------------------------------------------------------------------
# RL003 — metadata-plane isolation
# ---------------------------------------------------------------------------


class PlaneIsolation(Rule):
    """search/, serve/, and the gossip fabric may not touch the engine.

    ``create_frontend()`` on the gossip plane promises a frontend that is a
    *real remote node holding no engine soft state*; the serving front door
    and the gossip module make the same promise.  A single attribute chain
    back into ``core.engine`` silently re-couples the planes (the bug class
    ``tests/test_gossip.py``'s no-engine-references test catches
    dynamically for one object — this rule catches it statically for every
    module).
    """

    rule_id = "RL003"
    title = "metadata-plane isolation (no core.engine references)"

    _ENGINE_NAMES = frozenset({"engine", "_engine"})

    def _applies(self, module: Module) -> bool:
        rel = module.rel_path
        return rel.startswith(PLANE_ISOLATED_PREFIXES) or rel in PLANE_ISOLATED_MODULES

    def check(self, module: Module) -> Iterator[Finding]:
        if not self._applies(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.core.engine"):
                        yield self.finding(
                            module, node, "plane-isolated module imports repro.core.engine"
                        )
            elif isinstance(node, ast.ImportFrom):
                imported_module = node.module or ""
                if imported_module.startswith("repro.core.engine") or (
                    imported_module == "repro.core"
                    and any(alias.name == "engine" for alias in node.names)
                ):
                    yield self.finding(
                        module, node, "plane-isolated module imports repro.core.engine"
                    )
                elif any(alias.name == "QueenBeeEngine" for alias in node.names):
                    yield self.finding(
                        module, node, "plane-isolated module imports QueenBeeEngine"
                    )
            elif isinstance(node, ast.Attribute):
                if node.attr in self._ENGINE_NAMES:
                    yield self.finding(
                        module,
                        node,
                        f"attribute access `.{node.attr}` re-couples a plane-isolated "
                        "module to the engine; inject the specific dependency instead",
                    )
                elif isinstance(node.value, ast.Name) and node.value.id in self._ENGINE_NAMES:
                    yield self.finding(
                        module,
                        node,
                        f"`{node.value.id}.{node.attr}` reaches into engine internals; "
                        "plane-isolated modules must take narrow dependencies "
                        "(simulator, factory, collector), not the engine object",
                    )


# ---------------------------------------------------------------------------
# RL004 — ordered iteration on order-critical paths
# ---------------------------------------------------------------------------


class UnsortedIteration(Rule):
    """Iteration feeding published/gossiped/replica/RNG order must be sorted.

    Set iteration order depends on string hashing — PYTHONHASHSEED — so two
    runs of the *same seed* can publish shards, pick gossip peers, or
    consume RNG draws in different orders.  Everywhere under ``repro/`` a
    provably-set iteration must pass through ``sorted()``; in the
    order-critical modules (publish, gossip, placement, rank, worker
    pipelines) dict iteration must too, because there insertion order is
    itself downstream of other iteration orders.
    """

    rule_id = "RL004"
    title = "unsorted set/dict iteration on an order-critical path"

    _DICT_VIEW_ATTRS = frozenset({"keys", "values", "items"})

    def check(self, module: Module) -> Iterator[Finding]:
        strict = module.rel_path in ORDER_CRITICAL_MODULES
        # Map every method to its class's shared attribute inference, so
        # `for x in self._deficits` is recognized from the __init__-time
        # `self._deficits: Set[...] = set()`.
        class_scope_of: Dict[ast.AST, _ScopeTypes] = {}
        for class_node in ast.walk(module.tree):
            if isinstance(class_node, ast.ClassDef):
                shared = _ScopeTypes()
                shared.collect(class_node.body)
                for item in class_node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        class_scope_of[item] = shared
        module_scope = _ScopeTypes()
        module_scope.collect(module.tree.body)
        yield from self._check_scope(module, module.tree.body, module_scope, strict)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = _ScopeTypes()
                shared = class_scope_of.get(node)
                if shared is not None:
                    scope.set_attrs = shared.set_attrs
                    scope.dict_attrs = shared.dict_attrs
                scope.collect_args(node.args)
                scope.collect(node.body)
                yield from self._check_scope(module, node.body, scope, strict)

    @staticmethod
    def _walk_pruned(body: List[ast.stmt]) -> Iterator[ast.AST]:
        """Walk statements without descending into function defs (those are
        visited as their own scopes — descending here would double-report)."""
        stack: List[ast.AST] = [
            node
            for node in body
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                stack.append(child)

    def _check_scope(
        self, module: Module, body: List[ast.stmt], scope: _ScopeTypes, strict: bool
    ) -> Iterator[Finding]:
        for node in self._walk_pruned(body):
            for iterable, context in self._iteration_sites(node):
                yield from self._check_iterable(module, iterable, context, scope, strict)

    def _iteration_sites(self, node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
        if isinstance(node, ast.For):
            yield node.iter, "for-loop"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter, "comprehension"
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            if name in ("list", "tuple", "enumerate", "iter", "reversed") and node.args:
                yield node.args[0], f"{name}()"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
            ):
                yield node.args[0], "str.join()"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("sample", "shuffle", "choice", "choices")
                and node.args
            ):
                # RNG consumption: the draw sequence depends on the
                # iterable's order even when each element is equally likely.
                yield node.args[0], f"rng.{node.func.attr}()"

    def _is_sorted_wrapped(self, node: ast.AST) -> bool:
        return _call_name(node) == "sorted"

    def _check_iterable(
        self,
        module: Module,
        iterable: ast.AST,
        context: str,
        scope: _ScopeTypes,
        strict: bool,
    ) -> Iterator[Finding]:
        if self._is_sorted_wrapped(iterable):
            return
        if scope.is_set_expr(iterable):
            yield self.finding(
                module,
                iterable,
                f"iteration over a set in a {context} without sorted(): set order "
                "depends on PYTHONHASHSEED and breaks cross-run reproducibility",
            )
            return
        if not strict:
            return
        is_dict_view = (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr in self._DICT_VIEW_ATTRS
        )
        if is_dict_view or scope.is_dict_expr(iterable):
            what = f".{iterable.func.attr}()" if is_dict_view else "a dict"
            yield self.finding(
                module,
                iterable,
                f"iteration over {what} in a {context} without sorted() in an "
                "order-critical module (publish/gossip/replica/RNG order must be "
                "canonical, not insertion order)",
            )


# ---------------------------------------------------------------------------
# RL005 — config knobs must be declared fields of QueenBeeConfig
# ---------------------------------------------------------------------------


class UndeclaredConfigKnob(Rule):
    """Every config attribute read must name a declared knob.

    The fields of ``repro.core.config.QueenBeeConfig`` are the single
    registry of deployment knobs; a typo'd or deleted read
    (``config.gossip_interal``) silently falls back to whatever `getattr`
    default the call site chose — this rule makes it a lint error, and the
    engine rejects unknown knobs at runtime from the same names.
    """

    rule_id = "RL005"
    title = "undeclared config knob"

    _CONFIG_NAMES = frozenset({"config", "cfg"})
    _CONFIG_ATTRS = frozenset({"config", "_config"})
    #: Non-knob attributes that legitimately live on the config object.
    _ALLOWED = frozenset({"validate", "from_dict", "from_overrides", "as_dict"})

    def __init__(self, knob_names: Optional[Set[str]] = None) -> None:
        self._knob_names = knob_names

    def knob_names(self) -> Set[str]:
        if self._knob_names is None:
            from repro.core.config import KNOB_NAMES

            self._knob_names = set(KNOB_NAMES)
        return self._knob_names

    def check(self, module: Module) -> Iterator[Finding]:
        if module.rel_path.endswith("repro/core/config.py"):
            return
        knobs = self.knob_names()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            receiver = node.value
            is_config = (
                isinstance(receiver, ast.Name) and receiver.id in self._CONFIG_NAMES
            ) or (isinstance(receiver, ast.Attribute) and receiver.attr in self._CONFIG_ATTRS)
            if not is_config:
                continue
            if node.attr in knobs or node.attr in self._ALLOWED or node.attr.startswith("__"):
                continue
            yield self.finding(
                module,
                node,
                f"config knob `{node.attr}` is not a field of "
                "repro.core.config.QueenBeeConfig (typo, or a deleted knob)",
            )


# ---------------------------------------------------------------------------
# RL006 — metric names must come from the declared registry
# ---------------------------------------------------------------------------


class UndeclaredMetricName(Rule):
    """Counter/sample names must be declared in repro/metrics/names.py.

    ``compare_bench.py`` gates on metric values read back by name; a typo'd
    name silently reads 0.0 and the baseline drifts without failing.  The
    registry makes the name set closed: writers and readers must agree on a
    declared name (or a declared dynamic prefix for families like
    ``serve.<outcome>``).
    """

    rule_id = "RL006"
    title = "undeclared metric name"

    _WRITE_COUNTER = frozenset({"increment", "counter"})
    _WRITE_SAMPLE = frozenset({"observe", "sample", "percentile", "quantiles", "summary"})
    _RECEIVERS = frozenset({"metrics", "collector", "_metrics"})

    def __init__(self, registry=None) -> None:
        self._registry = registry

    def registry(self):
        if self._registry is None:
            from repro.metrics import names as metric_names

            self._registry = metric_names
        return self._registry

    def _is_metrics_receiver(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._RECEIVERS
        if isinstance(node, ast.Attribute):
            return node.attr in self._RECEIVERS
        return False

    def check(self, module: Module) -> Iterator[Finding]:
        if module.rel_path.endswith("repro/metrics/names.py"):
            return
        registry = self.registry()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if not self._is_metrics_receiver(node.func.value):
                continue
            if method in self._WRITE_COUNTER:
                kind = "counter"
            elif method in self._WRITE_SAMPLE:
                kind = "sample"
            else:
                continue
            if not node.args:
                continue
            yield from self._check_name_arg(module, node.args[0], kind, registry)

    def _check_name_arg(
        self, module: Module, arg: ast.AST, kind: str, registry
    ) -> Iterator[Finding]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not registry.is_registered(arg.value, kind):
                yield self.finding(
                    module,
                    arg,
                    f"metric {kind} name {arg.value!r} is not declared in "
                    "repro/metrics/names.py",
                )
        elif isinstance(arg, ast.JoinedStr):
            head = ""
            if arg.values and isinstance(arg.values[0], ast.Constant):
                head = str(arg.values[0].value)
            if not registry.matches_dynamic_prefix(head):
                yield self.finding(
                    module,
                    arg,
                    f"dynamic metric name (f-string head {head!r}) does not match a "
                    "declared dynamic prefix in repro/metrics/names.py",
                )
        # Name/attribute references (constants from the registry) pass.


# ---------------------------------------------------------------------------
# RL007 — no liveness-oracle reads on routing paths
# ---------------------------------------------------------------------------


class LivenessOracleOnRoutingPath(Rule):
    """Routing code may not read the global liveness oracle.

    ``SimulatedNetwork.is_online`` is simulator ground truth no deployed
    peer possesses.  The search/serve path and replica routing
    (``repro/index/placement.py``) must build liveness *locally* from
    observed RPC outcomes — the :class:`repro.net.detector.FailureDetector`,
    reached through ``DecentralizedStorage.presumed_alive`` or an injected
    liveness callable — or the resilience results claim an omniscience a
    real deployment cannot have.  Publisher/repair-side membership scans
    are sanctioned via justified ``disable=RL007`` pragmas (the churn model
    already drives those paths from oracle events).
    """

    rule_id = "RL007"
    title = "liveness-oracle read on a routing path"

    ORACLE_FREE_PREFIXES = ("repro/search/", "repro/serve/")
    ORACLE_FREE_MODULES = frozenset({"repro/index/placement.py"})

    def _applies(self, module: Module) -> bool:
        rel = module.rel_path
        return rel.startswith(self.ORACLE_FREE_PREFIXES) or rel in self.ORACLE_FREE_MODULES

    def check(self, module: Module) -> Iterator[Finding]:
        if not self._applies(module):
            return
        for node in ast.walk(module.tree):
            # Attribute access only: a bare `is_online(...)` call is an
            # *injected* liveness callable (rank_replicas' parameter — the
            # dependency-injection seam this rule exists to enforce).
            if isinstance(node, ast.Attribute) and node.attr == "is_online":
                yield self.finding(
                    module,
                    node,
                    "`.is_online` is the global liveness oracle; routing paths "
                    "must go through the FailureDetector "
                    "(storage.presumed_alive / an injected liveness callable)",
                )


ALL_RULES = (
    UnseededRandomness,
    WallClockTime,
    PlaneIsolation,
    UnsortedIteration,
    UndeclaredConfigKnob,
    UndeclaredMetricName,
    LivenessOracleOnRoutingPath,
)


def default_rules() -> List[Rule]:
    return [rule() for rule in ALL_RULES]
