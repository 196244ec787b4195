"""The scraper-site attack: mirroring popular pages to farm honey.

"As popular webpages will gain QueenBee's honey, scrapper site attack may
exist that tries to mirror popular websites for QueenBee's honey."  The
scraper copies the text of the most popular pages verbatim and publishes the
copies under its own URLs, hoping to collect publish rewards and popularity
rewards for content it did not create.

Defense: the content registry's dedup rule.  Because DWeb content is
content-addressed, a verbatim mirror has *exactly the same CID* as the
original, and the registry rejects a publish whose CID was first registered
by a different owner.  A scraper can evade dedup by perturbing the text, but
then it no longer benefits from the original page's accumulated links, which
is what the E7 bench quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import AttackConfigError
from repro.core.engine import QueenBeeEngine
from repro.index.document import Document


@dataclass
class ScraperOutcome:
    """What the scraper achieved."""

    scraper: str
    pages_attempted: int = 0
    pages_accepted: int = 0
    pages_rejected: int = 0
    publish_honey_earned: int = 0
    popularity_honey_earned: int = 0
    victim_honey: Dict[str, int] = field(default_factory=dict)

    @property
    def total_honey_earned(self) -> int:
        return self.publish_honey_earned + self.popularity_honey_earned


class ScraperAttack:
    """Mirrors the ``mirror_count`` most popular pages under a scraper identity.

    Parameters
    ----------
    engine:
        The deployment under attack (ranks must have been computed so the
        scraper knows which pages are popular).
    mirror_count:
        How many of the top-ranked pages to mirror.
    perturb:
        If true the scraper appends a marker to each mirrored page, changing
        its CID and thereby evading the dedup defense (at the cost of not
        being a byte-identical mirror).
    """

    def __init__(
        self,
        engine: QueenBeeEngine,
        mirror_count: int = 10,
        scraper_owner: str = "scraper-site",
        perturb: bool = False,
    ) -> None:
        if mirror_count < 1:
            raise AttackConfigError(f"mirror_count must be at least 1, got {mirror_count!r}")
        self.engine = engine
        self.mirror_count = mirror_count
        self.scraper_owner = scraper_owner
        self.perturb = perturb

    def pick_targets(self) -> List[Document]:
        """The most popular pages (by current page rank) to mirror."""
        ranks = self.engine.page_ranks()
        if not ranks:
            doc_ids = self.engine.documents.doc_ids()[: self.mirror_count]
        else:
            doc_ids = [
                doc_id for doc_id, _ in sorted(ranks.items(), key=lambda item: (-item[1], item[0]))
            ][: self.mirror_count]
        targets = []
        for doc_id in doc_ids:
            document = self.engine.documents.maybe_get(doc_id)
            if document is not None:
                targets.append(document)
        return targets

    def run(self, recompute_ranks: bool = True) -> ScraperOutcome:
        """Mirror the targets, optionally trigger a reward round, and account
        for the honey the scraper captured."""
        targets = self.pick_targets()
        outcome = ScraperOutcome(scraper=self.scraper_owner)
        honey_before = self.engine.contracts.honey_balance(self.scraper_owner)
        victims = {document.owner for document in targets}

        next_doc_id = (max(self.engine.documents.doc_ids()) + 1) if len(self.engine.documents) else 0
        for offset, original in enumerate(targets):
            text = original.text + " mirror" if self.perturb else original.text
            copy = Document(
                doc_id=next_doc_id + offset,
                url=f"dweb://{self.scraper_owner}/mirror-{original.doc_id:06d}",
                title=original.title,
                text=text,
                owner=self.scraper_owner,
                links=original.links,
                published_at=self.engine.simulator.now,
            )
            receipt = self.engine.publish_document(copy)
            outcome.pages_attempted += 1
            if receipt.accepted:
                outcome.pages_accepted += 1
            else:
                outcome.pages_rejected += 1

        publish_honey = self.engine.contracts.honey_balance(self.scraper_owner) - honey_before
        outcome.publish_honey_earned = max(0, publish_honey)

        if recompute_ranks:
            before_popularity = self.engine.contracts.honey_balance(self.scraper_owner)
            self.engine.compute_page_ranks()
            outcome.popularity_honey_earned = max(
                0, self.engine.contracts.honey_balance(self.scraper_owner) - before_popularity
            )

        outcome.victim_honey = {
            owner: self.engine.contracts.honey_balance(owner) for owner in sorted(victims)
        }
        return outcome
