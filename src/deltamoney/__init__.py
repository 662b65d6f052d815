"""deltamoney: ledger-less peer-to-peer digital currency engine.

Peers commit transfers pairwise by exchanging Merkle roots, keep their own
balance history in an append-only Merkle log, and report roots post-facto to
a currency manager (conservation) and an integrity manager (cross
validation). A deterministic discrete-event simulator drives the whole
protocol, injects faults, and checks that every tamper is detected.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
