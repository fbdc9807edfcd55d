"""Independent oracles for the test suite.

The ground truth for α-maximal cliques is the paper's Definition 4, which
``repro.core.brute_force`` implements.  The oracles here check three other
facts from first principles.  Each imports only the graph substrate from
``repro`` (``Graph``, ``UncertainGraph``), so none shares code with what it
checks:

* :mod:`.bron_kerbosch` — the maximal cliques of a deterministic graph.  It
  never reads a probability, so it is independent of every α-maximal
  enumerator; when every edge probability is 1 they must agree.
* :mod:`.possible_worlds` — exact possible-world enumeration, and sampling.
  It multiplies edge probabilities world by world, so it is independent of
  ``UncertainGraph.clique_probability`` (the product formula of
  Observation 1).
* :mod:`.cores` — deterministic core numbers by min-degree peeling.  It
  ignores probabilities, so it is independent of
  ``repro.extensions.uncertain_core``, which must agree with it at η = 1.

Two more are reference implementations of compile stages that now work on
the integer form, kept so the new stage is pinned against the old one:
:mod:`.compile_edges` (the compile pass, walking ``UncertainGraph.edges()``)
and :mod:`.shared_neighborhood` (LARGE-MULE's pre-filter on graph copies).
"""
