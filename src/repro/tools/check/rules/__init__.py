"""Built-in rule catalog.  Importing this package registers every rule."""

from __future__ import annotations

from . import (  # noqa: F401
    error_taxonomy,
    kernel_determinism,
    lock_discipline,
    metrics_discipline,
    stopreason,
)
