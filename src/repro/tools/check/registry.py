"""The unit of analysis, the rule base class and the rule catalog lookup.

Every rule implements ``check_module(unit)`` and sees one parsed file at
a time.  The catalog is the ``RULES`` tuple of :mod:`.rules`; the CLI and
the tests both read it through :func:`all_rules`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from .findings import Finding


@dataclass(frozen=True)
class ModuleUnit:
    """One parsed python file: its AST and project-relative path."""

    relpath: str  # posix-style, relative to the project root
    tree: ast.Module


class Rule:
    """Base class for every checker rule.

    Subclasses set ``rule_id`` (the name findings and ``--select`` use)
    and ``description`` and override :meth:`check_module`.
    """

    rule_id: str = ""
    description: str = ""

    def check_module(self, unit: ModuleUnit) -> Iterator[Finding]:
        return iter(())


def all_rules() -> tuple[Rule, ...]:
    """Every rule of the catalog, sorted by id."""
    from .rules import RULES  # the rule modules import this one

    return RULES


def select_rules(rule_ids: Iterable[str] | None) -> tuple[Rule, ...]:
    """Resolve ``--select`` tokens to rule objects (None = all rules)."""
    rules = all_rules()
    if rule_ids is None:
        return rules
    wanted = set(rule_ids)
    known = {rule.rule_id for rule in rules}
    unknown = sorted(wanted - known)
    if unknown:
        raise KeyError(
            f"unknown rule id(s) {unknown!r}; known: {sorted(known)}"
        )
    return tuple(rule for rule in rules if rule.rule_id in wanted)


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; None for anything dynamic."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None
