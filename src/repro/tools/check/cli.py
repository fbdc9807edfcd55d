"""Command-line front end: ``repro-mule check`` / ``python -m repro.tools.check``.

Exit codes follow lint convention: 0 = clean, 1 = findings, 2 = usage
error (an unknown rule id, a path that does not exist, or no ``.py``
file to check).

The argument surface is defined once in :func:`add_arguments` so the
standalone module entry point and the ``repro-mule check`` subcommand
cannot drift apart.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence, TextIO

from .registry import all_rules
from .runner import scan


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the checker's arguments on ``parser`` (shared surface)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help=(
            "project root that finding paths (and path-scoped rules) are "
            "relative to (default: nearest ancestor with setup.py/.git)"
        ),
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        default=None,
        help="run only this rule id (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


def build_parser(prog: str = "repro-mule check") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Static analysis for repo-specific invariants: lock discipline, "
            "kernel determinism and the error taxonomy."
        ),
    )
    add_arguments(parser)
    return parser


def run(args: argparse.Namespace, *, stdout: TextIO | None = None) -> int:
    """Execute a parsed checker invocation (shared by both entry points)."""
    out = stdout if stdout is not None else sys.stdout

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:24s} {rule.description}", file=out)
        return 0

    try:
        findings = scan(
            [Path(p) for p in args.paths],
            root=args.root,
            rule_ids=args.select,
        )
    except (KeyError, FileNotFoundError) as exc:  # bad --select, nothing to scan
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    for finding in findings:
        print(finding.render(), file=out)
    if findings:
        plural = "" if len(findings) == 1 else "s"
        print(f"{len(findings)} finding{plural}", file=out)
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None, *, stdout: TextIO | None = None) -> int:
    parser = build_parser()
    return run(parser.parse_args(argv), stdout=stdout)
