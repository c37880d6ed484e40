"""Byzantine-robust federated learning laboratory.

Simulates federated training with robust aggregation rules (mean, Krum,
Bulyan, trimmed mean, coordinate-wise median), optimization-based local
model poisoning attacks against them, and rejection-based defenses
(ERR / LFR / Union), all behind a deterministic seeded harness.
"""

from flrlab.core import RngStream, signed_direction

__version__ = "0.1.0"

__all__ = [
    "RngStream",
    "signed_direction",
    "__version__",
]
