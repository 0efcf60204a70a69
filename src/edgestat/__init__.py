"""Exact-arithmetic certificates for edge-count statistics of random vertex subsets."""

from . import constructions, dist, errors, gm, poly, report, verify  # noqa: F401

__version__ = "0.1.0"
