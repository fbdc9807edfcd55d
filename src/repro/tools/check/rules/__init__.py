"""Built-in rule catalog: one instance of each rule, sorted by id."""

from __future__ import annotations

from .error_taxonomy import ErrorTaxonomyRule
from .kernel_determinism import KernelDeterminismRule
from .lock_discipline import LockDisciplineRule

RULES = (ErrorTaxonomyRule(), KernelDeterminismRule(), LockDisciplineRule())
