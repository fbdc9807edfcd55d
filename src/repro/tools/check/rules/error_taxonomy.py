"""error-taxonomy: the service/api layers speak ``repro.errors`` only.

Clients map wire errors back to exception types by name
(``codec.error_to_wire`` / ``RemoteSession``), so every exception that
can cross a service boundary must come from the :mod:`repro.errors`
taxonomy.  This rule flags, in ``service/``, ``api/`` and
``distributed/`` modules (the distributed coordinator speaks the same
wire protocol, so its errors cross the same boundary):

* ``raise`` of anything that is not a :class:`repro.errors.ReproError`
  subclass, an ``AssertionError`` (the parity-contract assertion in
  ``api/outcome.py``), or an exception class defined in the same module
  (module-local control-flow exceptions such as ``JobCancelled`` are
  caught before they escape);
* bare ``except:`` clauses — they swallow ``KeyboardInterrupt`` and
  ``SystemExit`` inside worker threads.

Re-raises stay legal: bare ``raise``, and ``raise <variable>`` /
``raise obj.attr`` (propagating a stored exception object).
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from ..findings import Finding
from ..registry import ModuleUnit, Rule, dotted_name


def _taxonomy_names() -> frozenset[str]:
    """Class names of the blessed repro.errors taxonomy, plus AssertionError."""
    import repro.errors as errors_module

    names = {
        name
        for name, value in vars(errors_module).items()
        if isinstance(value, type)
        and issubclass(value, errors_module.ReproError)
    }
    names.add("AssertionError")
    return frozenset(names)


_BUILTIN_EXCEPTIONS = frozenset(
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
)


def _local_exception_classes(tree: ast.Module) -> set[str]:
    """Names of exception classes defined in this module.

    A class counts when any base name ends in ``Error``/``Exception``
    or is itself a locally defined exception class (one fixpoint pass
    handles the chains that occur in practice).
    """
    classes: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = [dotted_name(base) or "" for base in node.bases]
            classes[node.name] = bases

    local: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, bases in classes.items():
            if name in local:
                continue
            for base in bases:
                leaf = base.rsplit(".", 1)[-1]
                is_exception_base = (
                    leaf.endswith(("Error", "Exception"))
                    or (
                        leaf in _BUILTIN_EXCEPTIONS
                        and leaf not in ("object",)
                    )
                    or leaf in local
                )
                if is_exception_base:
                    local.add(name)
                    changed = True
                    break
    return local


class ErrorTaxonomyRule(Rule):
    rule_id = "error-taxonomy"
    description = (
        "raises in service/, api/ and distributed/ must use the "
        "repro.errors taxonomy; no bare except"
    )

    def __init__(self) -> None:
        self._allowed = _taxonomy_names()

    def check_module(self, unit: ModuleUnit) -> Iterator[Finding]:
        parts = unit.relpath.split("/")
        if (
            "service" not in parts
            and "api" not in parts
            and "distributed" not in parts
        ):
            return
        local_exceptions = _local_exception_classes(unit.tree)
        allowed = self._allowed | local_exceptions

        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield Finding(
                    unit.relpath,
                    node.lineno,
                    node.col_offset,
                    self.rule_id,
                    "bare 'except:' swallows KeyboardInterrupt/SystemExit",
                    hint="catch Exception (or something narrower) explicitly",
                )
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue

            exc = node.exc
            callee = exc.func if isinstance(exc, ast.Call) else exc
            if (
                isinstance(exc, ast.Call)
                and isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
            ):
                # ``raise self._error_from_response(...)``: an exception
                # factory method; its return sites build taxonomy errors.
                continue
            name = dotted_name(callee)
            if name is None:
                continue  # dynamic expression; give it the benefit of doubt
            leaf = name.rsplit(".", 1)[-1]
            if leaf in allowed:
                continue
            if leaf not in _BUILTIN_EXCEPTIONS and not isinstance(
                exc, ast.Call
            ):
                # ``raise err`` / ``raise self._error``: re-raise of a
                # stored exception object, not a class instantiation.
                continue
            if leaf in _BUILTIN_EXCEPTIONS:
                message = (
                    f"raises builtin {leaf}; service/api errors must come "
                    "from the repro.errors taxonomy"
                )
            else:
                message = (
                    f"raises {name}, which is not a repro.errors class, a "
                    "module-local exception, or a stored re-raise"
                )
            yield Finding(
                unit.relpath,
                node.lineno,
                node.col_offset,
                self.rule_id,
                message,
                hint=(
                    "pick the closest repro.errors subclass (ServiceError, "
                    "JobError, StoreError, ParameterError, FormatError, ...)"
                ),
            )
