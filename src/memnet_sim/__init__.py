"""Monte Carlo simulator and analysis toolkit for a heralded three-node
quantum memory network: atom-photon entanglement at each node, three-photon
interference heralding six-qubit entanglement, photonic projection with
feed-forward producing three-memory entanglement, and the accompanying
witness / visibility / rate analysis."""

__version__ = "0.1.0"

__all__ = [
    "cli", "config", "detection", "events", "fit", "harness",
    "node", "optics", "quantum", "rules", "witness",
]
