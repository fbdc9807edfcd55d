"""``repro-mule check`` — AST static analysis for repo invariants.

Three invariants of the codebase are shapes of code that tests reach
only by chance: manual lock discipline in the service, api and
distributed layers, bit-identical deterministic kernels in
``core/engine/``, and the ``repro.errors`` taxonomy across the service
boundary.  This package machine-checks them so nobody has to check them
by hand.  Invariants that behaviour can state are tests instead: the
frozen v1 wire schema (the codec's kind table and the golden fixtures),
metric names and registration scope (``tests/obs/test_metric_names.py``),
the job states on shutdown and the stop-reason merge precedence.

Public surface:

* :func:`repro.tools.check.runner.scan` — programmatic scanning;
* :func:`repro.tools.check.cli.main` — the CLI (also reachable as
  ``python -m repro.tools.check`` and ``repro-mule check``);
* :class:`repro.tools.check.findings.Finding` — the diagnostic record;
* :data:`repro.tools.check.rules.RULES` — the rule catalog.
"""

from __future__ import annotations

from .findings import Finding
from .registry import ModuleUnit, Rule, all_rules
from .runner import scan

__all__ = [
    "Finding",
    "ModuleUnit",
    "Rule",
    "all_rules",
    "scan",
]
