"""Shared helpers for the experiment benchmarks (E1–E9).

Each ``bench_eN_*.py`` file regenerates one experiment — its module docstring
states the question and the gates: it builds the workload, runs the systems
under comparison, prints the table the experiment reports, and exposes a
``test_*`` entry point so ``pytest benchmarks/ --benchmark-only`` runs
everything.

Sizes are chosen so the full suite finishes in a few minutes on a laptop; the
*shape* of every result (who wins, by roughly what factor, where crossovers
fall) is what matters, not absolute numbers.  Host time is measured
separately, by ``benchmarks/e13`` — see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Iterable, List, Sequence

from repro.core.config import QueenBeeConfig
from repro.core.engine import QueenBeeEngine
from repro.workloads.corpus import CorpusGenerator, GeneratedCorpus
from repro.workloads.queries import QueryWorkloadGenerator

DEFAULT_SEED = 2019  # the paper's publication year, for flavour


def build_corpus(num_documents: int, seed: int = DEFAULT_SEED, owner_count: int = 40) -> GeneratedCorpus:
    """The standard synthetic corpus used across experiments."""
    generator = CorpusGenerator(
        vocabulary_size=1_200,
        term_exponent=1.0,
        mean_document_length=80,
        length_spread=25,
        owner_count=owner_count,
        owner_exponent=1.0,
        mean_out_degree=5.0,
        seed=seed,
    )
    return generator.generate(num_documents)


def build_engine(
    peer_count: int = 32,
    worker_count: int = 8,
    seed: int = DEFAULT_SEED,
    **overrides,
) -> QueenBeeEngine:
    """A QueenBee deployment with benchmark-friendly defaults.

    ``overrides`` go through :meth:`QueenBeeConfig.from_dict`, so a misspelt
    knob raises with a did-you-mean hint instead of being set and ignored.
    """
    knobs = {
        "peer_count": peer_count,
        "worker_count": worker_count,
        "dht_k": 8,
        "dht_alpha": 3,
        "dht_replicate": 4,
        "storage_replication": 3,
        "latency_median": 25.0,
        "latency_sigma": 0.45,
        "rank_max_iterations": 25,
        "seed": seed,
        **overrides,
    }
    config = QueenBeeConfig.from_dict(knobs)
    config.validate()
    return QueenBeeEngine(config)


def build_queries(corpus: GeneratedCorpus, count: int, seed: int = DEFAULT_SEED) -> List[str]:
    return list(QueryWorkloadGenerator(corpus.documents, seed=seed).generate(count))


def print_table(title: str, rows: Sequence[Dict[str, object]], note: str = "") -> None:
    """Print an experiment table in a fixed-width layout (stdout, flushed)."""
    out = sys.stdout
    out.write(f"\n=== {title} ===\n")
    if note:
        out.write(f"{note}\n")
    if not rows:
        out.write("(no rows)\n")
        out.flush()
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    out.write(header + "\n")
    out.write("-+-".join("-" * widths[column] for column in columns) + "\n")
    for row in rows:
        out.write(" | ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns) + "\n")
    out.flush()


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def write_bench_json(name: str, payload: Dict[str, object]) -> str:
    """Write a machine-readable benchmark record to the repository root.

    ``name`` is the output filename (e.g. ``BENCH_E10.json``).  The files
    are committed so the perf trajectory is tracked PR-over-PR: CI and
    reviewers diff the numbers instead of re-reading tables.  Floats are
    rounded so insignificant digits don't churn the diff.
    """

    def _round(value):
        if isinstance(value, float):
            return round(value, 6)
        if isinstance(value, dict):
            return {key: _round(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [_round(item) for item in value]
        return value

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", name)
    body = {"schema": 1, **_round(payload)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(body, handle, indent=2, sort_keys=True)
        handle.write("\n")
    sys.stdout.write(f"[bench] wrote {os.path.normpath(path)}\n")
    return os.path.normpath(path)
