"""The scan: collect files, parse them, run the rules over them."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from .findings import Finding
from .registry import ModuleUnit, select_rules

#: Directory names never descended into.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hg",
    "build",
    "dist",
    ".eggs",
    "node_modules",
}


def find_project_root(start: Path) -> Path:
    """Walk upward from ``start`` to the checkout root.

    The root is the first ancestor carrying a ``setup.py``,
    ``setup.cfg`` or ``.git``; findings name files relative to it.  Falls
    back to ``start`` itself so the checker still works on a loose
    directory.
    """
    start = start if start.is_dir() else start.parent
    for candidate in (start, *start.parents):
        for marker in ("setup.py", "setup.cfg", ".git"):
            if (candidate / marker).exists():
                return candidate
    return start


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Expand the given paths to a sorted, de-duplicated ``.py`` file list.

    A path that does not exist, or paths that hold no ``.py`` file at all,
    raise :class:`FileNotFoundError`: a scan of nothing must not pass.
    """
    files: set[Path] = set()
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate.resolve())
        elif path.suffix == ".py":
            files.add(path.resolve())
    if not files:
        shown = ", ".join(str(path) for path in paths)
        raise FileNotFoundError(f"no python file to check in: {shown}")
    return sorted(files)


def load_unit(path: Path, root: Path) -> ModuleUnit | Finding:
    """Parse one file; a syntax error becomes a finding, not a crash."""
    relpath = _relpath(path, root)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return Finding(relpath, 1, 0, "parse-error", f"unreadable file: {exc}")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            relpath,
            exc.lineno or 1,
            exc.offset or 0,
            "parse-error",
            f"syntax error: {exc.msg}",
        )
    return ModuleUnit(relpath=relpath, tree=tree)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def scan(
    paths: Sequence[Path],
    *,
    root: Path | None = None,
    rule_ids: Iterable[str] | None = None,
) -> list[Finding]:
    """Run the selected rules over ``paths`` and return sorted findings."""
    targets = [Path(p) for p in paths]
    files = collect_files(targets)
    if root is None:
        # Anchor on what the caller pointed at, not the first file found:
        # for a loose directory with no repo markers the fallback root is
        # then the directory itself, keeping path-scoped rules in scope.
        root = find_project_root(targets[0])
    rules = select_rules(rule_ids)

    findings: list[Finding] = []
    units: list[ModuleUnit] = []
    for path in files:
        loaded = load_unit(path, root)
        if isinstance(loaded, Finding):
            findings.append(loaded)
            continue
        units.append(loaded)

    for rule in rules:
        for unit in units:
            findings.extend(rule.check_module(unit))
    return sorted(findings)
