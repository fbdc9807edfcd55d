"""lock-discipline: a lightweight static race detector.

The service, api and distributed layers guard mutable state with ``threading.Lock`` /
``RLock`` / ``Condition`` attributes and manual ``with self._lock:``
blocks.  The discipline this rule enforces: **any instance attribute
ever mutated while holding a lock of the same class must never be read
or written outside a lock-held context.**

A context counts as lock-held when it is

* lexically inside a ``with self.<guard>:`` block (nested functions
  inherit the enclosing context — they close over the locked region); or
* anywhere in a method whose name ends in ``_locked`` — the repo-wide
  convention for "caller holds the lock" helpers.

``__init__`` and ``__del__`` are *exempt*: accesses there can never be
violations (no concurrent aliases exist yet / anymore), but writes there
also do not mark an attribute as guarded — otherwise every attribute
initialised in the constructor would look lock-protected.

The rule is intraprocedural and conservative by design: it cannot see a
helper called *with* the lock held unless the helper advertises it via
the ``_locked`` suffix.  That is deliberate — the suffix is the
machine-checkable form of the locking contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from ..findings import Finding
from ..registry import ModuleUnit, Rule, dotted_name

#: Constructors whose result makes the assigned attribute a lock guard.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
}

#: Methods where the whole body counts as lock-held.
_EXEMPT_METHODS = {"__init__", "__del__"}


#: Access contexts: "lock" = under a with-lock block or in a _locked
#: helper; "exempt" = __init__/__del__ (no concurrent aliases); "none" =
#: plain code.  Only "lock" writes mark an attribute as guarded, and only
#: "none" accesses to guarded attributes are violations.
_LOCKED, _EXEMPT, _UNHELD = "lock", "exempt", "none"


@dataclass(frozen=True)
class _Event:
    attr: str
    line: int
    col: int
    is_write: bool
    context: str
    #: Structural writes (rebind / subscript store / del) prove the
    #: attribute needs this class's lock.  Mutator *method* calls are
    #: still access events, but not guard evidence — the receiver may be
    #: an internally synchronised object (e.g. the shared compiled-graph
    #: cache) whose own methods take their own lock.
    marks_guarded: bool = True


def _self_attr(node: ast.AST) -> str | None:
    """Return ``X`` when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lock_factory(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = dotted_name(value.func)
    if name is None:
        return False
    leaf = name.rsplit(".", 1)[-1]
    return leaf in _LOCK_FACTORIES


class _ClassAnalyzer:
    """Collect guard names and attribute access events for one class."""

    def __init__(self, class_node: ast.ClassDef) -> None:
        self.class_node = class_node
        self.guards: set[str] = set()
        self.events: list[_Event] = []

    def analyze(self) -> None:
        methods = [
            node
            for node in self.class_node.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for method in methods:
            self._find_guards(method)
        for method in methods:
            if method.name.endswith("_locked"):
                context = _LOCKED
            elif method.name in _EXEMPT_METHODS:
                context = _EXEMPT
            else:
                context = _UNHELD
            for stmt in method.body:
                self._visit(stmt, context)

    # -- pass 1: which attributes hold locks? -------------------------- #
    def _find_guards(self, method: ast.AST) -> None:
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and _is_lock_factory(node.value):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        self.guards.add(attr)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if _is_lock_factory(node.value):
                    attr = _self_attr(node.target)
                    if attr is not None:
                        self.guards.add(attr)

    # -- pass 2: classify every self.<attr> access --------------------- #
    def _record(
        self,
        node: ast.AST,
        *,
        write: bool,
        context: str,
        marks_guarded: bool = True,
    ) -> None:
        attr = _self_attr(node)
        if attr is not None:
            self.events.append(
                _Event(
                    attr,
                    node.lineno,
                    node.col_offset,
                    write,
                    context,
                    marks_guarded,
                )
            )

    def _record_target(self, target: ast.AST, context: str) -> None:
        """A store/delete target: unwrap subscripts back to ``self.X``."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, context)
        elif isinstance(target, ast.Starred):
            self._record_target(target.value, context)
        elif isinstance(target, (ast.Subscript, ast.Slice)):
            base = target.value if isinstance(target, ast.Subscript) else None
            if base is not None and _self_attr(base) is not None:
                self._record(base, write=True, context=context)
            else:
                self._visit(target, context)
            if isinstance(target, ast.Subscript):
                self._visit(target.slice, context)
        elif _self_attr(target) is not None:
            self._record(target, write=True, context=context)
        else:
            self._visit(target, context)

    def _visit(self, node: ast.AST, context: str) -> None:
        if isinstance(node, ast.ClassDef):
            return  # nested classes have their own discipline
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = context
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in self.guards:
                    inner = _LOCKED
                else:
                    self._visit(item.context_expr, context)
                if item.optional_vars is not None:
                    self._record_target(item.optional_vars, context)
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._record_target(target, context)
            self._visit(node.value, context)
            return
        if isinstance(node, ast.AnnAssign):
            self._record_target(node.target, context)
            if node.value is not None:
                self._visit(node.value, context)
            return
        if isinstance(node, ast.AugAssign):
            # Read-modify-write: one write event covers both halves.
            self._record_target(node.target, context)
            self._visit(node.value, context)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_target(target, context)
            return
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and _self_attr(func.value) is not None
            ):
                self._record(
                    func.value,
                    write=True,
                    context=context,
                    marks_guarded=False,
                )
            else:
                self._visit(func, context)
            for arg in node.args:
                self._visit(arg, context)
            for keyword in node.keywords:
                self._visit(keyword.value, context)
            return
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None:
                self._record(
                    node,
                    write=not isinstance(node.ctx, ast.Load),
                    context=context,
                )
                return
            self._visit(node.value, context)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, context)


class LockDisciplineRule(Rule):
    rule_id = "lock-discipline"
    description = (
        "attributes mutated under a class lock must never be touched "
        "outside one (service/, api/ and distributed/)"
    )

    def check_module(self, unit: ModuleUnit) -> Iterator[Finding]:
        parts = unit.relpath.split("/")
        if (
            "service" not in parts
            and "api" not in parts
            and "distributed" not in parts
        ):
            return
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            analyzer = _ClassAnalyzer(node)
            analyzer.analyze()
            if not analyzer.guards:
                continue
            guarded = {
                event.attr
                for event in analyzer.events
                if event.is_write
                and event.marks_guarded
                and event.context == _LOCKED
            } - analyzer.guards
            for event in analyzer.events:
                if event.attr not in guarded or event.context != _UNHELD:
                    continue
                action = "written" if event.is_write else "read"
                yield Finding(
                    unit.relpath,
                    event.line,
                    event.col,
                    self.rule_id,
                    (
                        f"{node.name}.{event.attr} is mutated under a lock "
                        f"elsewhere in the class but {action} here without one"
                    ),
                    hint=(
                        "wrap the access in 'with self.<lock>:', or mark the "
                        "enclosing helper as caller-holds-lock by renaming it "
                        "with a '_locked' suffix"
                    ),
                )
