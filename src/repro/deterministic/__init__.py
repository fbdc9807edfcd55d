"""Deterministic graph substrate.

This subpackage hosts the certain (non-probabilistic) graph structure that
the uncertain-graph layer builds upon: the generators build skeletons as
:class:`Graph` instances, and :meth:`UncertainGraph.skeleton` returns one.
"""

from .graph import Graph, normalize_edge

__all__ = ["Graph", "normalize_edge"]
