"""The counts of LARGE-MULE's pre-filter.

LARGE-MULE (Section 4.3 of the paper) first shrinks the input graph with
the "Shared Neighborhood Filtering" technique of Modani and Dey, which
removes edges and vertices that cannot belong to any clique of ``t`` or
more vertices.  The filter runs on the compiled graph
(:meth:`repro.core.engine.compiled.CompiledGraph.restrict_shared_neighborhood`);
this module holds the :class:`PruningReport` it leaves on the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PruningReport"]


@dataclass
class PruningReport:
    """What the shared-neighborhood filter removed, for logging/benchmarks.

    ``rounds`` counts the filter's rounds, the last (unchanged) one
    included; ``edges_removed`` counts the edges its edge steps dropped
    (not those that went with a removed vertex); ``vertices_removed``
    counts the vertices it dropped.
    """

    rounds: int = 0
    edges_removed: int = 0
    vertices_removed: int = 0
