"""Exception hierarchy shared by every QueenBee subsystem.

Keeping all exceptions in one module lets callers catch a single base class
(:class:`ReproError`) at system boundaries while still being able to handle
specific failures (e.g. :class:`KeyNotFoundError` from the DHT vs
:class:`ContractError` from the chain) close to where they occur.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly (e.g. time went backwards)."""


class NetworkError(ReproError):
    """A message could not be delivered by the simulated network."""


class NodeUnreachableError(NetworkError):
    """The destination peer is offline, partitioned away, or unknown."""


class RetriesExhaustedError(NetworkError):
    """A resilient request failed on every attempt its retry policy allowed."""


class DHTError(ReproError):
    """Base class for DHT failures."""


class KeyNotFoundError(DHTError):
    """A FIND_VALUE lookup terminated without locating the key."""


class RoutingError(KeyNotFoundError):
    """A lookup could not reach the peers that would settle it.

    Raised for an *inconclusive* miss — no record was found but some
    contact asked did not answer, so "no record" was never established —
    and for a write whose lookup heard from no peer at all.  It is a
    :class:`KeyNotFoundError` so read paths that only care about "no value
    in hand" keep degrading the same way; a read-modify-write must tell the
    two apart (see ``docs/RESILIENCE.md``).
    """


class StorageError(ReproError):
    """Base class for decentralized-storage failures."""


class BlockNotFoundError(StorageError):
    """No reachable provider holds the requested block."""


class InvalidCIDError(StorageError):
    """A CID string is malformed or its digest does not match the content."""


class ChainError(ReproError):
    """Base class for blockchain failures."""


class InvalidTransactionError(ChainError):
    """A transaction failed validation (bad nonce, bad signature, insufficient funds)."""


class ContractError(ChainError):
    """A smart-contract call reverted."""


class InsufficientFundsError(ContractError):
    """An account attempted to spend more honey/wei than it holds."""


class IndexError_(ReproError):
    """Base class for inverted-index failures (named with a trailing underscore
    to avoid shadowing the builtin :class:`IndexError`)."""


class TermNotFoundError(IndexError_):
    """The distributed index has no posting list for the requested term."""


class SearchError(ReproError):
    """The query frontend could not execute a query."""


class QueryParseError(SearchError):
    """The query string is syntactically invalid."""


class IncentiveError(ReproError):
    """An incentive policy was configured or applied incorrectly."""


class AttackConfigError(ReproError):
    """An attack scenario was configured with impossible parameters."""


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""
