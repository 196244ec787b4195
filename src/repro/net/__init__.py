"""Simulated peer-to-peer network substrate.

QueenBee, the DHT, the decentralized storage layer, and the blockchain all
exchange messages through :class:`~repro.net.network.SimulatedNetwork`.  The
network charges simulated latency for every RPC, can drop messages, carries
a fault plane (:mod:`repro.net.faults`: link loss, stragglers, gray failures,
partition and crash windows), and supports taking peers offline — the knobs
the resilience experiments (E3, E12) turn.
"""

from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
)
from repro.net.message import Message, Response
from repro.net.network import NetworkStats, SimulatedNetwork
from repro.net.churn import ChurnModel

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "LogNormalLatency",
    "Message",
    "Response",
    "SimulatedNetwork",
    "NetworkStats",
    "ChurnModel",
]
