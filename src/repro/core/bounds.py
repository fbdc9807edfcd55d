"""Counting bounds on the number of (α-)maximal cliques (Section 3).

The paper's combinatorial contribution is Theorem 1: for any ``n ≥ 2`` and
``0 < α < 1`` the maximum number of α-maximal cliques over all uncertain
graphs with ``n`` vertices is exactly ``C(n, ⌊n/2⌋)`` — strictly larger than
the Moon--Moser bound ``≈ 3^{n/3}`` that holds for deterministic graphs
(the ``α = 1`` case).

This module provides:

* :func:`moon_moser_bound` — the deterministic maximum (Moon & Moser 1965);
* :func:`uncertain_clique_bound` — ``f(n, α) = C(n, ⌊n/2⌋)`` for
  ``0 < α < 1``;
* :func:`extremal_uncertain_graph` — the Lemma 1 construction: the complete
  graph on ``n`` vertices with every edge probability ``q`` chosen so that
  ``q^κ = α`` for ``κ = C(⌊n/2⌋, 2)``, whose α-maximal cliques are exactly
  the ``⌊n/2⌋``-subsets of ``V``;
* :func:`moon_moser_graph` — the deterministic extremal construction
  (complete multipartite graph with parts of size 3);
* :func:`is_non_redundant_family` — the antichain property of Definition 6,
  which every collection of α-maximal cliques must satisfy.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from math import comb

from ..errors import ParameterError
from ..uncertain.graph import UncertainGraph, validate_probability

__all__ = [
    "moon_moser_bound",
    "uncertain_clique_bound",
    "extremal_uncertain_graph",
    "extremal_clique_size",
    "moon_moser_graph",
    "is_non_redundant_family",
    "stirling_output_lower_bound",
]

Vertex = Hashable


def moon_moser_bound(n: int) -> int:
    """Return the Moon--Moser maximum number of maximal cliques in a deterministic graph.

    For ``n ≥ 2``::

        n ≡ 0 (mod 3):  3^(n/3)
        n ≡ 1 (mod 3):  4 · 3^((n-4)/3)
        n ≡ 2 (mod 3):  2 · 3^((n-2)/3)

    Small cases (n = 0, 1) return 1 by convention (the empty clique / the
    single vertex).

    >>> moon_moser_bound(6)
    9
    >>> moon_moser_bound(7)
    12
    >>> moon_moser_bound(8)
    18
    """
    if n < 0:
        raise ParameterError(f"n must be non-negative, got {n}")
    if n <= 1:
        return 1
    if n == 2:
        return 2
    remainder = n % 3
    if remainder == 0:
        return 3 ** (n // 3)
    if remainder == 1:
        return 4 * 3 ** ((n - 4) // 3)
    return 2 * 3 ** ((n - 2) // 3)


def uncertain_clique_bound(n: int, alpha: float) -> int:
    """Return ``f(n, α)``, the maximum number of α-maximal cliques on ``n`` vertices.

    Implements Theorem 1: for ``0 < α < 1`` the bound is ``C(n, ⌊n/2⌋)``.
    For ``α = 1`` the problem degenerates to deterministic maximal clique
    counting and the Moon--Moser bound applies instead.

    >>> uncertain_clique_bound(4, 0.5)
    6
    >>> uncertain_clique_bound(5, 0.5)
    10
    >>> uncertain_clique_bound(6, 1.0)
    9
    """
    if n < 0:
        raise ParameterError(f"n must be non-negative, got {n}")
    alpha = validate_probability(alpha, what="alpha")
    if alpha == 1.0:
        return moon_moser_bound(n)
    if n <= 1:
        return 1
    return comb(n, n // 2)


def _repeated_product(value: float, count: int) -> float:
    """Multiply ``value`` by itself ``count`` times exactly as the enumerators do."""
    product = 1.0
    for _ in range(count):
        product *= value
    return product


def extremal_clique_size(n: int) -> int:
    """Return ``⌊n/2⌋``, the size of every α-maximal clique in the extremal graph."""
    if n < 2:
        raise ParameterError(f"extremal construction requires n >= 2, got {n}")
    return n // 2


def extremal_uncertain_graph(n: int, alpha: float) -> UncertainGraph:
    """Build the Lemma 1 extremal uncertain graph on vertices ``1..n``.

    The construction takes the complete graph ``K_n`` and assigns every edge
    the probability ``q`` with ``q^κ = α`` where ``κ = C(⌊n/2⌋, 2)`` is the
    number of edges inside a ``⌊n/2⌋``-subset.  Consequences (proved in the
    paper and verified by the test suite):

    * every ``⌊n/2⌋``-subset has clique probability exactly α, hence is an
      α-clique;
    * adding any vertex multiplies the probability by at least one more
      factor ``q < 1``, dropping it below α, so each ``⌊n/2⌋``-subset is
      α-maximal;
    * subsets smaller than ``⌊n/2⌋`` can always be extended and subsets
      larger than ``⌊n/2⌋`` are below threshold, so the α-maximal cliques
      are exactly the ``C(n, ⌊n/2⌋)`` subsets of size ``⌊n/2⌋``.

    Raises
    ------
    ParameterError
        If ``n < 2``.
    ProbabilityError
        If ``alpha`` is not in ``(0, 1)`` (the construction needs q < 1,
        so α = 1 is rejected).

    >>> g = extremal_uncertain_graph(4, 0.5)
    >>> g.num_vertices, g.num_edges
    (4, 6)
    """
    if n < 2:
        raise ParameterError(f"extremal construction requires n >= 2, got {n}")
    alpha = validate_probability(alpha, what="alpha")
    if alpha == 1.0:
        raise ParameterError(
            "the extremal construction requires 0 < alpha < 1; "
            "use moon_moser_graph for the deterministic case"
        )
    half = n // 2
    kappa = comb(half, 2)
    if kappa == 0:
        # n = 2 or 3: the target subsets are singletons (κ = 0 internal
        # edges), so every edge must fall strictly below α to make the
        # singletons maximal.
        q = alpha / 2.0
    else:
        q = alpha ** (1.0 / kappa)
        # Floating-point guard: the enumerators compute clique probabilities
        # as an explicit κ-fold product, which can round a hair below α and
        # silently change which subsets count as α-cliques.  Nudge q upward
        # until the explicit product clears the threshold.
        while _repeated_product(q, kappa) < alpha:
            q = min(1.0, q * (1.0 + 1e-15))
    graph = UncertainGraph(vertices=range(1, n + 1))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            graph.add_edge(u, v, q)
    return graph


def moon_moser_graph(n: int) -> UncertainGraph:
    """Build a Moon--Moser graph on ``n`` vertices with all edges certain (p = 1).

    The graph is the complete multipartite graph whose parts have size 3
    (with one part of size 1 or 2 when ``n mod 3 ≠ 0``).  Its maximal cliques
    pick exactly one vertex from each part, so their number meets the
    Moon--Moser bound.  Because all probabilities are 1, the graph doubles
    as a worst case for deterministic maximal clique enumeration.

    >>> g = moon_moser_graph(6)
    >>> g.num_vertices, g.num_edges
    (6, 9)
    """
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    # Partition vertices 1..n into groups of 3 (with a smaller last group).
    parts: list[list[int]] = []
    vertices = list(range(1, n + 1))
    remainder = n % 3
    if remainder == 0 or n <= 2:
        chunk_sizes = [3] * (n // 3) if n > 2 else [n]
    elif remainder == 1:
        # One part of size 4 is suboptimal; Moon--Moser uses two parts of 2.
        chunk_sizes = [3] * ((n - 4) // 3) + [2, 2]
    else:
        chunk_sizes = [3] * ((n - 2) // 3) + [2]
    index = 0
    for size in chunk_sizes:
        parts.append(vertices[index : index + size])
        index += size

    graph = UncertainGraph(vertices=vertices)
    for i, part_a in enumerate(parts):
        for part_b in parts[i + 1 :]:
            for u in part_a:
                for v in part_b:
                    graph.add_edge(u, v, 1.0)
    return graph


def is_non_redundant_family(sets: Iterable[Iterable[Vertex]]) -> bool:
    """Return ``True`` when no set in the family contains another (Definition 6).

    The collection of α-maximal cliques of any uncertain graph is
    non-redundant (an antichain under inclusion); this predicate is used by
    the property-based tests to verify that invariant on enumerator output.

    >>> is_non_redundant_family([{1, 2}, {2, 3}])
    True
    >>> is_non_redundant_family([{1, 2}, {1, 2, 3}])
    False
    """
    family = [frozenset(s) for s in sets]
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            if a <= b or b <= a:
                return False
    return True


def stirling_output_lower_bound(n: int) -> float:
    """Return the asymptotic output-size lower bound ``Θ(2^n / √n)`` (Observation 5).

    The exact central binomial coefficient is returned as a float so callers
    can compare growth rates without integer overflow concerns in plotting
    code.  For ``n < 2`` returns 1.0.
    """
    if n < 2:
        return 1.0
    return float(comb(n, n // 2))
