"""Exact Long Path / Long Cycle solver for unit disk graphs.

Pipeline: clique-grid representation -> two-phase marking -> weighted
reduction -> greedy witness walk -> tree-decomposition dynamic programming,
verified at desk scale by brute-force oracles.
"""

__version__ = "0.1.0"

from .errors import ContractViolation, DiskpathError, InputError, SizeCapExceeded

__all__ = [
    "ContractViolation",
    "DiskpathError",
    "InputError",
    "SizeCapExceeded",
    "__version__",
]
