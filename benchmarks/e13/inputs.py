"""Every input of one run, generated in the benchmark process from ``--seed``.

The engine only ever receives the generated documents, events and query
strings; ``inputs_digest`` names them so two runs on different inputs are never
compared.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.index.analysis import Analyzer
from repro.index.document import Document
from repro.workloads.corpus import CorpusGenerator
from repro.workloads.queries import QueryWorkloadGenerator
from repro.workloads.zipf import ZipfSampler

from . import spec


@dataclass
class Event:
    kind: str  # "c" create | "u" term-dropping update | "d" delete
    document: Document
    dropped_terms: int = 0  # index terms the update removed from the page


@dataclass
class Round:
    events: List[Event] = field(default_factory=list)
    probes: List[str] = field(default_factory=list)  # reader queries over the touched terms


@dataclass
class Inputs:
    bulk: List[Document]
    rounds: List[Round]
    cold: List[List[str]]  # one distinct-query list per fresh frontend
    hot_warmup: List[str]
    hot_measured: List[str]
    digest: str


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"e13:{seed}:{label}")


def _compose_rounds(seed: int, sizes: Dict[str, object], documents: List[Document],
                    bulk_count: int) -> List[Round]:
    rng = _rng(seed, "events")
    analyzer = Analyzer()
    live = list(documents[:bulk_count])
    fresh = list(documents[bulk_count:])
    rounds: List[Round] = []
    position = 0
    for _ in range(sizes["rounds"]):
        current = Round()
        touched: List[List[str]] = []
        for _ in range(sizes["events_per_round"]):
            kind = spec.EVENT_CYCLE[position % len(spec.EVENT_CYCLE)]
            position += 1
            if kind == "c":
                document = fresh.pop(0)
                live.append(document)
                current.events.append(Event("c", document))
                touched.append(document.text.split())
            elif kind == "d":
                victim = live.pop(rng.randrange(len(live)))
                current.events.append(Event("d", victim))
                touched.append(victim.text.split())
            else:
                index = rng.randrange(len(live))
                base = live[index]
                words = base.text.split()
                keep = max(1, round(len(words) * (1.0 - spec.UPDATE_DROP_FRACTION)))
                kept = [words[i] for i in sorted(rng.sample(range(len(words)), keep))]
                updated = base.updated(text=" ".join(kept + [rng.choice(spec.UPDATE_MARKERS)]))
                live[index] = updated
                dropped = set(analyzer.analyze(base.full_text)) - set(
                    analyzer.analyze(updated.full_text)
                )
                current.events.append(
                    Event("u", updated, dropped_terms=len(dropped))
                )
                # Old words too: a probe for a dropped term is what catches a stale posting.
                touched.append(words)
                touched.append(updated.text.split())
        for _ in range(sizes["probes_per_round"]):
            words = rng.choice(touched)
            length = min(len(words), rng.choice((1, 1, 2)))
            current.probes.append(" ".join(rng.sample(words, length)))
        rounds.append(current)
    return rounds


def _distinct(queries: List[str], count: int) -> List[str]:
    return list(dict.fromkeys(queries))[:count]


def generate(workload: str, seed: int, sizes: Dict[str, object]) -> Inputs:
    creates = sum(
        1
        for position in range(sizes["rounds"] * sizes["events_per_round"])
        if spec.EVENT_CYCLE[position % len(spec.EVENT_CYCLE)] == "c"
    )
    bulk_count = sizes["bulk_docs"]
    corpus = CorpusGenerator(seed=seed, **sizes["corpus"]).generate(bulk_count + creates)
    documents = corpus.documents
    rounds = _compose_rounds(seed, sizes, documents, bulk_count)

    cold: List[List[str]] = []
    hot_warmup: List[str] = []
    hot_measured: List[str] = []
    query = sizes["query"]
    if query is not None and query["kind"] == "cold":
        generator = QueryWorkloadGenerator(documents[:bulk_count], seed=seed)
        each = query["each"]
        for _ in range(query["frontends"]):
            cold.append(_distinct(generator.generate(each * 3).queries, each))
    elif query is not None:
        # Two-term queries only: a result-cache hit costs one ad lookup per
        # token, so mixed lengths would give the hit path several modes and let
        # p50 flip between them with the seed.
        generator = QueryWorkloadGenerator(
            documents[:bulk_count], length_weights=(0.0, 1.0), seed=seed
        )
        pool = _distinct(generator.generate(query["pool"] * 2).queries, query["pool"])
        head = generator.terms_by_popularity[: spec.HOT_HEAD_TERMS]
        heavy = [f"{a} OR {b}" for i, a in enumerate(head) for b in head[i + 1:]]
        # Head-term ORs at evenly spaced popularity ranks (not shuffled in), so
        # every seed gives the expensive queries the same share of the stream.
        stride = (len(pool) + len(heavy)) / len(heavy)
        for number, raw_query in enumerate(heavy):
            pool.insert(round(number * stride), raw_query)
        # The popularity-rank sequence is the traffic's *shape* and is the same
        # for every seed (the seed decides which query sits at each rank), so
        # the hit fraction, and with it where p95 falls among the misses, does
        # not wander from seed to seed.
        popularity = ZipfSampler(len(pool), 1.0, random.Random("e13:hot-ranks"))
        stream = [pool[popularity.sample()] for _ in range(query["warmup"] + query["measured"])]
        hot_warmup, hot_measured = stream[: query["warmup"]], stream[query["warmup"]:]

    hasher = hashlib.sha256()
    hasher.update(json.dumps([workload, sizes], sort_keys=True, default=str).encode())
    for document in documents:
        hasher.update(repr((document.doc_id, document.url, document.title, document.text,
                            document.links)).encode())
    for current in rounds:
        for event in current.events:
            hasher.update(repr((event.kind, event.document.doc_id, event.document.text)).encode())
        hasher.update(repr(current.probes).encode())
    hasher.update(repr((cold, hot_warmup, hot_measured)).encode())
    return Inputs(
        bulk=documents[:bulk_count], rounds=rounds, cold=cold,
        hot_warmup=hot_warmup, hot_measured=hot_measured, digest=hasher.hexdigest()[:16],
    )
