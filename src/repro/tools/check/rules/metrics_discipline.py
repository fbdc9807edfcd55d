"""metrics-discipline: naming and placement rules for the global registry.

The process-wide series of :mod:`repro.obs` (``engine_*``,
``cache_compile_seconds``, ``dist_*``) hang off the
:func:`~repro.obs.registry` seam.  Two conventions keep that registry
coherent and cheap:

* **names** are ``snake_case`` with a layer prefix (``engine_``,
  ``cache_``, ``sched_``, ``jobs_``, ``http_``, ``dist_``) so a metrics
  page groups by architectural layer and two layers can never collide on
  a name;
* **registration happens once, at module scope** — ``registry().counter``
  inside a function or loop would re-run per call, putting a registry
  lock acquisition (and a name-collision check) on the hot path the
  instrument is supposed to *observe*, not perturb.

The rule recognises a registration syntactically: a ``.counter(...)`` /
``.gauge(...)`` / ``.histogram(...)`` attribute call whose receiver is
itself a call to something named like a registry accessor
(``registry()``, ``_obs_registry()``).  Instruments created on
:class:`~repro.obs.MetricsRegistry` *instances* are out of scope: test
fixtures and golden corpora on purpose, and the per-server series each
scheduler and server register on their own registry at construction
because a syntactic rule cannot see them.  Those names are checked at
run time instead, by a test that drives a live server and checks every
series name against :data:`_LAYER_PREFIXES`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..findings import Finding
from ..registry import ModuleUnit, Rule, dotted_name, register

#: Layer prefixes a global-registry metric name must start with.
_LAYER_PREFIXES = ("engine_", "cache_", "sched_", "jobs_", "http_", "dist_")

#: snake_case after the prefix: lowercase alphanumerics and underscores.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Instrument-constructing methods of the registry.
_METHODS = frozenset({"counter", "gauge", "histogram"})


def _registration(node: ast.AST) -> "ast.Call | None":
    """Return ``node`` when it registers an instrument on the global seam.

    Matches ``<accessor>().counter/gauge/histogram(...)`` where the
    accessor's final name segment contains ``registry`` — the shape of
    ``from ..obs import registry as _obs_registry`` call sites.
    """
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    if node.func.attr not in _METHODS:
        return None
    receiver = node.func.value
    if not isinstance(receiver, ast.Call):
        return None
    accessor = dotted_name(receiver.func)
    if accessor is None or "registry" not in accessor.split(".")[-1].lower():
        return None
    return node


@register
class MetricsDisciplineRule(Rule):
    rule_id = "metrics-discipline"
    description = (
        "global-registry metrics: snake_case names with a layer prefix, "
        "registered once at module scope (never in functions or loops)"
    )

    def check_module(self, unit: ModuleUnit) -> Iterator[Finding]:
        yield from self._walk(unit, unit.tree, in_function=False, in_loop=False)

    def _walk(
        self,
        unit: ModuleUnit,
        node: ast.AST,
        *,
        in_function: bool,
        in_loop: bool,
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            call = _registration(child)
            if call is not None:
                yield from self._check_call(
                    unit, call, in_function=in_function, in_loop=in_loop
                )
            yield from self._walk(
                unit,
                child,
                in_function=in_function
                or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ),
                in_loop=in_loop
                or isinstance(child, (ast.For, ast.AsyncFor, ast.While)),
            )

    def _check_call(
        self,
        unit: ModuleUnit,
        call: ast.Call,
        *,
        in_function: bool,
        in_loop: bool,
    ) -> Iterator[Finding]:
        make = lambda msg, hint="": Finding(  # noqa: E731
            unit.relpath, call.lineno, call.col_offset, self.rule_id, msg, hint=hint
        )
        method = call.func.attr  # type: ignore[attr-defined]
        if not call.args or not (
            isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            yield make(
                f"registry .{method}() call without a literal metric name",
                hint="metric names must be static so dashboards can rely on them",
            )
        else:
            name = call.args[0].value
            if not name.startswith(_LAYER_PREFIXES) or not _NAME_RE.match(name):
                yield make(
                    f"metric name {name!r} is not snake_case with a layer "
                    f"prefix {sorted(_LAYER_PREFIXES)}",
                    hint="prefix the owning layer, lowercase with underscores",
                )
        if in_loop:
            yield make(
                f"registry .{method}() inside a loop — instruments must be "
                "registered once at module scope",
                hint="hoist the registration to a module-level constant",
            )
        elif in_function:
            yield make(
                f"registry .{method}() inside a function — instruments must "
                "be registered once at module scope",
                hint="hoist the registration to a module-level constant",
            )
