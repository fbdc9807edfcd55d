"""Possible-world semantics (Section 2): exact enumeration and sampling.

An uncertain graph is a distribution over the ``2^m`` subgraphs of its
skeleton that keep every vertex, each edge present independently with its
probability.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator

from repro import Graph, UncertainGraph


def enumerate_possible_worlds(graph: UncertainGraph) -> Iterator[tuple[Graph, float]]:
    """Yield every possible world of ``graph`` with its probability.

    There are ``2^m`` of them, so keep ``m`` small.
    """
    edges = list(graph.edges())
    vertices = list(graph.vertices())
    for included in itertools.product((False, True), repeat=len(edges)):
        world = Graph(vertices=vertices)
        probability = 1.0
        for (u, v, p), present in zip(edges, included):
            if present:
                world.add_edge(u, v)
                probability *= p
            else:
                probability *= 1.0 - p
        yield world, probability


def sample_possible_world(graph: UncertainGraph, rng: int) -> Graph:
    """Draw one possible world, keeping each edge with its probability."""
    draw = random.Random(rng).random
    world = Graph(vertices=graph.vertices())
    for u, v, p in graph.edges():
        if draw() < p:
            world.add_edge(u, v)
    return world
