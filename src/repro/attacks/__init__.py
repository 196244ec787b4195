"""Attacks on QueenBee, and the defenses the design anticipates.

Research challenge (II) of the paper: "this new model of decentralized search
engine may induce new attacks", naming two concretely:

* **Collusion attack** — "an attack from colluded worker bees that aim at
  manipulating QueenBee's indexes or page ranking data maliciously"
  (:mod:`repro.attacks.collusion`), defended by redundant task assignment
  with majority voting plus stake slashing.
* **Scraper-site attack** — "scrapper site attack may exist that tries to
  mirror popular websites for QueenBee's honey"
  (:mod:`repro.attacks.scraper`), defended by content-hash deduplication in
  the publish contract (first publisher of a CID owns it).

E6 and E7 run both attacks against their defenses.
"""

from repro.attacks.collusion import CollusionAttack, CollusionOutcome
from repro.attacks.scraper import ScraperAttack, ScraperOutcome

__all__ = [
    "CollusionAttack",
    "CollusionOutcome",
    "ScraperAttack",
    "ScraperOutcome",
]
