"""``repro-mule check`` — AST static analysis for repo invariants.

The codebase guarantees two load-bearing invariants by convention:
manual lock discipline in the service/api layers and bit-identical
deterministic kernels in ``core/engine/``.  This package machine-checks
them (plus the error taxonomy, exhaustive state dispatch and metrics
discipline) so nobody has to check them by hand.  The frozen v1 wire
schema is pinned by the codec's kind table and the golden-fixture tests
instead.

Public surface:

* :func:`repro.tools.check.runner.scan` — programmatic scanning;
* :func:`repro.tools.check.cli.main` — the CLI (also reachable as
  ``python -m repro.tools.check`` and ``repro-mule check``);
* :class:`repro.tools.check.findings.Finding` — the diagnostic record;
* :mod:`repro.tools.check.rules` — the rule catalog.
"""

from __future__ import annotations

from .findings import Finding
from .registry import ModuleUnit, Rule, all_rules, register
from .runner import scan

__all__ = [
    "Finding",
    "ModuleUnit",
    "Rule",
    "all_rules",
    "register",
    "scan",
]
