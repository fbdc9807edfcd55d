"""kernel-determinism: guard the bit-identity of the enumeration kernels.

Every parity suite in the repo (python vs vector kernel, serial vs
sharded) assumes the engine is a pure function of its inputs.  This rule
bans the ambient-nondeterminism escape hatches inside ``core/engine/``:

* wall-clock and entropy sources (``time.*`` except the designated
  ``perf_counter`` stopwatch seam, ``datetime.now``, ``random``,
  ``os.urandom``, ``uuid``, ``secrets``);
* hash-order-dependent iteration over sets (``for x in {...}`` /
  ``set(...)`` / set comprehensions, and ``set.pop()``), whose order
  varies with ``PYTHONHASHSEED`` — wrap the iterable in ``sorted()``.

``time.perf_counter`` / ``perf_counter_ns`` stay allowed: they are the
stopwatch seam the run-controls deadline machinery is built on, and
their values only ever *stop* a run (a controlled, reported event), they
never steer which clique is emitted next.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import ModuleUnit, Rule, dotted_name

#: Modules whose import into the engine is itself a finding.
_BANNED_MODULES = {"random", "uuid", "secrets"}

#: ``time.*`` attributes allowed inside the engine (the stopwatch seam).
_ALLOWED_TIME = {"perf_counter", "perf_counter_ns"}

#: Dotted call targets that are always nondeterministic.
_BANNED_CALLS = {
    "os.urandom",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically a set: literal, comprehension, or set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    return False


class KernelDeterminismRule(Rule):
    rule_id = "kernel-determinism"
    description = (
        "no clocks, entropy or hash-order iteration in core/engine/ "
        "(time.perf_counter is the only sanctioned seam)"
    )

    def check_module(self, unit: ModuleUnit) -> Iterator[Finding]:
        if "core/engine/" not in unit.relpath:
            return
        for node in ast.walk(unit.tree):
            yield from self._check_node(unit, node)

    def _check_node(self, unit: ModuleUnit, node: ast.AST) -> Iterator[Finding]:
        make = lambda line, col, msg, hint="": Finding(  # noqa: E731
            unit.relpath, line, col, self.rule_id, msg, hint=hint
        )

        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in _BANNED_MODULES:
                    yield make(
                        node.lineno,
                        node.col_offset,
                        f"import of nondeterministic module {alias.name!r}",
                        hint="the engine must be a pure function of its inputs",
                    )
        elif isinstance(node, ast.ImportFrom):
            top = (node.module or "").split(".")[0]
            if top in _BANNED_MODULES:
                yield make(
                    node.lineno,
                    node.col_offset,
                    f"import from nondeterministic module {node.module!r}",
                    hint="the engine must be a pure function of its inputs",
                )

        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None:
                parts = name.split(".")
                if name in _BANNED_CALLS or parts[0] in _BANNED_MODULES:
                    yield make(
                        node.lineno,
                        node.col_offset,
                        f"call to nondeterministic {name}()",
                        hint="derive values from the request, not the environment",
                    )
                elif parts[0] == "time" and len(parts) == 2:
                    if parts[1] not in _ALLOWED_TIME:
                        yield make(
                            node.lineno,
                            node.col_offset,
                            f"call to time.{parts[1]}() outside the stopwatch seam",
                            hint=(
                                "time.perf_counter is the only clock the "
                                "engine may consult (run-controls deadlines)"
                            ),
                        )
                elif parts[-1] == "pop" and len(parts) >= 2:
                    # set.pop() removes an arbitrary element; we can only
                    # see it syntactically when the receiver is a set expr.
                    receiver = node.func
                    if isinstance(receiver, ast.Attribute) and _is_set_expr(
                        receiver.value
                    ):
                        yield make(
                            node.lineno,
                            node.col_offset,
                            "set.pop() removes a hash-order-dependent element",
                            hint="use sorted(...) and pop from the list",
                        )
            # list(set(...)) / tuple(set(...)) materialise hash order.
            if (
                name in ("list", "tuple")
                and node.args
                and _is_set_expr(node.args[0])
            ):
                yield make(
                    node.args[0].lineno,
                    node.args[0].col_offset,
                    f"{name}() over a set materialises hash order",
                    hint="use sorted(...) for a deterministic order",
                )

        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                yield make(
                    node.iter.lineno,
                    node.iter.col_offset,
                    "iteration over a set depends on hash order",
                    hint="iterate over sorted(...) instead",
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if _is_set_expr(generator.iter):
                    yield make(
                        generator.iter.lineno,
                        generator.iter.col_offset,
                        "comprehension over a set depends on hash order",
                        hint="iterate over sorted(...) instead",
                    )
