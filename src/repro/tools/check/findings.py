"""Finding objects — the single currency every rule trades in.

A rule never prints; it yields :class:`Finding` instances, the runner
sorts them and the CLI renders them.  Keeping findings as plain data
makes the checker testable: the test-suite asserts on finding tuples,
not on captured stdout.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: *where*, *which rule*, *what*, and *how to fix*.

    Ordering is (path, line, col, rule_id) so a sorted finding list reads
    like compiler output.  ``hint`` is optional advisory text rendered on
    a continuation line; it never participates in identity.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    hint: str = field(default="", compare=False)

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
