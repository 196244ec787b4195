"""How fresh is the first replica a DHT read hears, per key family?

    PYTHONPATH=src:. python tools/read_staleness.py --workload query-cold --seed 1
    PYTHONPATH=src:. python tools/read_staleness.py --workload query-cold --seed 1 --converge

Runs one E13 deployment life (``benchmarks/e13``: build, update rounds, query
stream) with every DHT read watched from outside the program: the read itself
(``DHTNetwork._read``, for its key) and the ``on_reply`` callback its lookup
hands to ``SimulatedNetwork.rpc_parallel`` (for each reply as it lands).  Per
key family (``idx``, ``docmeta``, ``doc``, ``providers``, …) it prints:

- reads, and the FIND_VALUE requests each sent;
- the FIND_VALUE requests sent by the time the first replica holding a value
  answered (0 when the lookup's origin held one itself): what a read that
  stopped there would cost, over the reads that found one;
- how often that first value was older than the one the read converged on
  (another value, stored earlier), over the reads that converged on a value;
- how many reads an acceptance predicate stopped early.

A read that stopped early never heard the converged value, so it is left out
of the "older" count.  ``--converge`` drops every predicate, so every read
runs to convergence as a read with no floor does: the count then says how
often a read that stopped at its first value would have returned an older
one.  Without it the simulation is the program's own (the wrappers change no
send, draw or clock).
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Family:
    reads: int = 0
    requests: int = 0
    found: int = 0  # reads whose lookup heard a value (or a set) at all
    sent_by_first: int = 0  # summed over the reads that found one
    converged: int = 0  # reads that returned a converged value
    first_older: int = 0
    stopped_early: int = 0


@dataclass
class _Read:
    family: str
    key_id: int
    requests: int = 0
    # (requests sent by then, stored_at, value) of the first replica holding a value
    first: Optional[tuple] = None
    newest_at: float = 0.0  # the latest stored_at among the values heard
    holds_set: bool = False


def family_of(key: str) -> str:
    return key.split(":", 1)[0] if ":" in key else key


def watch(families: Dict[str, Family], converge: bool):
    """Install the two wrappers; returns a function that removes them."""
    from repro.dht.dht import DHTNetwork
    from repro.dht.nodeid import key_to_id
    from repro.net.network import SimulatedNetwork

    real_read, real_parallel = DHTNetwork._read, SimulatedNetwork.rpc_parallel
    open_reads: List[_Read] = []

    def read(self, key, origin, accept=None):
        # Choose the origin as the real read would, so its own copy is seen.
        origin = origin or self.random_node()
        state = _Read(family_of(key), key_to_id(key))
        if state.key_id in origin.values:
            state.newest_at = origin.store_timestamps.get(state.key_id, 0.0)
            state.first = (0, state.newest_at, origin.values[state.key_id])
        state.holds_set = state.key_id in origin.sets
        open_reads.append(state)
        try:
            result = real_read(self, key, origin, None if converge else accept)
        finally:
            open_reads.pop()
        row = families[state.family]
        row.reads += 1
        row.requests += state.requests
        if state.first is not None or state.holds_set:
            row.found += 1
            row.sent_by_first += state.first[0] if state.first is not None else 0
        if result.stopped_early:
            row.stopped_early += 1
        elif result.found and result.items is None and state.first is not None:
            row.converged += 1
            _, first_at, first_value = state.first
            if first_value != result.value and first_at < state.newest_at:
                row.first_older += 1
        return result

    def rpc_parallel(self, src, requests, on_reply=None):
        state = open_reads[-1] if open_reads else None
        if state is None or on_reply is None:
            return real_parallel(self, src, requests, on_reply=on_reply)

        def watched(index, response):
            reply = response.payload if response is not None and response.ok else {}
            if reply.get("found"):
                if "value" in reply:
                    stored_at = reply.get("stored_at", 0.0)
                    if state.first is None:
                        state.first = (len(requests), stored_at, reply["value"])
                    state.newest_at = max(state.newest_at, stored_at)
                elif not state.holds_set and state.first is None:
                    state.first = (len(requests), 0.0, None)
            return on_reply(index, response)

        try:
            return real_parallel(self, src, requests, on_reply=watched)
        finally:
            state.requests += len(requests)

    DHTNetwork._read, SimulatedNetwork.rpc_parallel = read, rpc_parallel

    def remove() -> None:
        DHTNetwork._read, SimulatedNetwork.rpc_parallel = real_read, real_parallel

    return remove


def run(workload: str, seed: int, seconds: float, smoke: bool, converge: bool) -> Dict[str, Family]:
    from benchmarks.e13 import drive, inputs, spec

    sizes = spec.sizes_for(workload, seconds, smoke)
    generated = inputs.generate(workload, seed, sizes)
    families: Dict[str, Family] = defaultdict(Family)
    remove = watch(families, converge)
    try:
        result = drive.run_pass(sizes, generated)
    finally:
        remove()
    if result.failed:
        print(f"warning: {result.failed} of {result.attempted} operations failed", file=sys.stderr)
    return families


def table(families: Dict[str, Family]) -> List[str]:
    lines = [
        "| family | reads | FIND_VALUE / read | sent by the first value | "
        "first value older than converged | stopped early |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for name, row in sorted(families.items(), key=lambda item: -item[1].reads):
        to_first = f"{row.sent_by_first / row.found:.2f}" if row.found else "–"
        older = f"{row.first_older} of {row.converged}" if row.converged else "–"
        lines.append(
            f"| {name} | {row.reads} | {row.requests / row.reads:.2f} | {to_first} | "
            f"{older} | {row.stopped_early} |"
        )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="query-cold",
                        help="an E13 workload: bulk-build, live-update, query-cold, query-hot")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="the E13 run length the sizes are drawn for (default 20)")
    parser.add_argument("--smoke", action="store_true", help="E13's tiny sizes")
    parser.add_argument("--converge", action="store_true",
                        help="drop every acceptance predicate: every read converges")
    args = parser.parse_args(argv)
    families = run(args.workload, args.seed, args.seconds, args.smoke, args.converge)
    mode = "every read converging" if args.converge else "as the program reads"
    print(f"E13 {args.workload}, seed {args.seed}, {mode}\n")
    print("\n".join(table(families)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
