"""Graph generators and edge-probability models.

Everything needed to build the paper's synthetic inputs (Barabási–Albert),
semi-synthetic inputs (SNAP-like skeletons with random probabilities) and
structure-matched analogs of its real uncertain datasets (PPI, DBLP), plus
Erdős–Rényi generators for tests and the extremal constructions of
Section 3 (re-exported from :mod:`repro.core.bounds`).
"""

from ..core.bounds import extremal_uncertain_graph, moon_moser_graph
from .barabasi_albert import barabasi_albert_skeleton, barabasi_albert_uncertain
from .erdos_renyi import (
    erdos_renyi_skeleton,
    erdos_renyi_uncertain,
    random_uncertain_graph,
)
from .p2p import p2p_like_graph
from .ppi import ppi_like_graph
from .probabilities import (
    beta_probabilities,
    bimodal_confidence_probabilities,
    coauthorship_probabilities_from_counts,
    coauthorship_probability,
    constant_probability,
    uniform_probabilities,
)
from .social import collaboration_graph, wiki_vote_like_graph

__all__ = [
    "barabasi_albert_skeleton",
    "barabasi_albert_uncertain",
    "erdos_renyi_skeleton",
    "erdos_renyi_uncertain",
    "random_uncertain_graph",
    "collaboration_graph",
    "wiki_vote_like_graph",
    "ppi_like_graph",
    "p2p_like_graph",
    "extremal_uncertain_graph",
    "moon_moser_graph",
    "constant_probability",
    "uniform_probabilities",
    "beta_probabilities",
    "bimodal_confidence_probabilities",
    "coauthorship_probability",
    "coauthorship_probabilities_from_counts",
]
