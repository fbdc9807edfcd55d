"""Rule registry and the unit-of-analysis model.

Every rule implements ``check_module(unit)`` and sees one parsed file at
a time (lock discipline, determinism, taxonomy, exhaustive dispatch,
metrics discipline).

Rules self-register at import time via :func:`register`; the CLI and the
tests both discover them through :func:`all_rules`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .findings import Finding


@dataclass(frozen=True)
class ModuleUnit:
    """One parsed python file: source text, AST and project-relative path."""

    path: Path
    relpath: str  # posix-style, relative to the project root
    source: str
    tree: ast.Module

    def lines(self) -> list[str]:
        return self.source.splitlines()


class Rule:
    """Base class for every checker rule.

    Subclasses set ``rule_id`` (the name findings and ``--select`` use)
    and ``description`` and override :meth:`check_module`.
    """

    rule_id: str = ""
    description: str = ""

    def check_module(self, unit: ModuleUnit) -> Iterator[Finding]:
        return iter(())


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and index a rule by its id."""
    rule = rule_cls()
    if not rule.rule_id:
        raise ValueError(f"rule {rule_cls.__name__} has no rule_id")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _REGISTRY[rule.rule_id] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id (import side effect: rules)."""
    from . import rules as _rules  # noqa: F401  (registers the built-ins)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def select_rules(rule_ids: Iterable[str] | None) -> list[Rule]:
    """Resolve ``--select`` tokens to rule objects (None = all rules)."""
    rules = all_rules()
    if rule_ids is None:
        return rules
    wanted = list(rule_ids)
    known = {rule.rule_id for rule in rules}
    unknown = [rule_id for rule_id in wanted if rule_id not in known]
    if unknown:
        raise KeyError(
            f"unknown rule id(s) {unknown!r}; known: {sorted(known)}"
        )
    return [rule for rule in rules if rule.rule_id in set(wanted)]


# Shared AST helpers (used by several rules) ---------------------------- #
def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; None for anything dynamic."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def iter_function_defs(
    tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_in_scope(
    node: ast.AST, *, skip: Callable[[ast.AST], bool]
) -> Iterator[ast.AST]:
    """``ast.walk`` that prunes subtrees where ``skip(child)`` is true."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if skip(child):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))
