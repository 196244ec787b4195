"""The generic versioned patch channel next to every published artifact.

Every wholesale publication path (index shards, the rank vector) can attach
a *patch* to its new revision: a small payload that rewrites the previous
revision into the new one, keyed by the **content fingerprint** of the base
it applies to.  A reader that still holds the base (a warm
:class:`~repro.index.cache.PostingCache` entry, a frontend's current rank
vector) fetches the patch instead of the full artifact and patches in
place; everyone else — cold readers, readers that missed a generation —
falls back to the full fetch, which is always published and stays
authoritative.

The fingerprint key is what makes patching safe without coordination: a
patch names exactly one base (``base_fp``) and the patched result is
re-fingerprinted against the new revision's manifest entry before it is
served, so a wrong base or a corrupted patch degrades to a full fetch,
never to wrong bytes.  See ``docs/DELTAS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.errors import ReproError
from repro.storage.ipfs import DecentralizedStorage


@dataclass(frozen=True)
class PatchInfo:
    """Pointer to one published patch, carried inside the artifact manifest.

    ``base_fp`` is the content fingerprint of the *previous* revision the
    patch applies to; ``cid`` addresses the patch payload in decentralized
    storage; ``size`` is the payload's wire cost (what the bytes accounting
    credits the delta channel with).
    """

    base_fp: str
    cid: str
    size: int

    def to_dict(self) -> Dict[str, object]:
        return {"bfp": self.base_fp, "cid": self.cid, "sz": self.size}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PatchInfo":
        return cls(
            base_fp=str(data.get("bfp", "")),
            cid=str(data.get("cid", "")),
            size=int(data.get("sz", 0)),
        )


@dataclass
class PatchChannel:
    """Publish/fetch helper of the index's delta path.

    Thin by design: the channel stores opaque text payloads and hands back
    :class:`PatchInfo` pointers; *what* a patch contains and *how* it is
    verified after application belongs to the artifact's own publisher and
    reader.  ``fetch`` never raises — a missing or unreachable patch is an
    expected rung on the fallback ladder (patch -> full fetch ->
    authoritative DHT), so it returns ``None``.  The channel counts nothing
    itself: the artifact's publisher credits the bytes it publishes to
    ``publish.delta_bytes``, and the reader counts its own fallbacks.
    """

    storage: DecentralizedStorage

    def publish(
        self,
        payload: str,
        base_fp: str,
        publisher: Optional[str] = None,
        providers: Optional[Sequence[str]] = None,
    ) -> PatchInfo:
        """Store one patch payload; returns the manifest-embeddable pointer."""
        receipt = self.storage.add_text(payload, publisher=publisher, providers=providers)
        size = len(payload.encode("utf-8"))
        return PatchInfo(base_fp=base_fp, cid=receipt.cid, size=size)

    def fetch(
        self,
        info: PatchInfo,
        requester: Optional[str] = None,
        preferred: Optional[Sequence[str]] = None,
    ) -> Optional[str]:
        """The patch payload behind ``info``, or ``None`` when unreachable."""
        try:
            return self.storage.get_text(info.cid, requester=requester, preferred=preferred)
        except ReproError:
            return None
