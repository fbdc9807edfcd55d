"""Tests for ``repro-mule check``, the repo's AST invariant linter.

Every rule gets at least one true-positive fixture (the checker must
find the planted violation) and one clean fixture (it must stay quiet),
plus the self-lint test: the shipped ``src/repro`` tree carries zero
findings.

Fixture modules are materialised into ``tmp_path`` mini-trees because
several rules are scoped by path shape (``service/``/``api/`` for the
concurrency and taxonomy rules, ``core/engine/`` for determinism).
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.tools.check import Finding, all_rules, scan
from repro.tools.check.cli import main as check_main
from repro.tools.check.registry import select_rules
from repro.tools.check.runner import find_project_root

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

RULE_IDS = ("error-taxonomy", "kernel-determinism", "lock-discipline")


def write(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def scan_one(
    root: Path, relpath: str, source: str, rule: str, **kwargs
) -> list[Finding]:
    write(root, relpath, source)
    return scan([root], root=root, rule_ids=[rule], **kwargs)


# --------------------------------------------------------------------- #
# Framework: registry, findings, root discovery
# --------------------------------------------------------------------- #
class TestFramework:
    def test_all_rules_register(self):
        assert tuple(rule.rule_id for rule in all_rules()) == RULE_IDS

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(KeyError):
            select_rules(["no-such-rule"])

    def test_finding_renders_clickable_location(self):
        finding = Finding("service/jobs.py", 12, 4, "lock-discipline", "boom")
        assert finding.render().startswith("service/jobs.py:12:4: lock-discipline:")

    def test_findings_sort_by_location(self):
        later = Finding("b.py", 1, 0, "r", "m")
        earlier = Finding("a.py", 9, 0, "r", "m")
        assert sorted([later, earlier]) == [earlier, later]

    def test_find_project_root_walks_to_setup_py(self, tmp_path):
        (tmp_path / "setup.py").write_text("")
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert find_project_root(nested) == tmp_path

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        write(tmp_path, "service/broken.py", "def oops(:\n")
        (finding,) = scan([tmp_path], root=tmp_path)
        assert finding.rule_id == "parse-error"


# --------------------------------------------------------------------- #
# lock-discipline
# --------------------------------------------------------------------- #
BAD_LOCK = """
    import threading


    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}

        def put(self, key, value):
            with self._lock:
                self._items[key] = value

        def size(self):
            return len(self._items)
"""

CLEAN_LOCK = """
    import threading


    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}

        def put(self, key, value):
            with self._lock:
                self._items[key] = value

        def size(self):
            with self._lock:
                return len(self._items)

        def _size_locked(self):
            return len(self._items)
"""


class TestLockDiscipline:
    def test_unlocked_read_of_guarded_attribute(self, tmp_path):
        findings = scan_one(
            tmp_path, "service/box.py", BAD_LOCK, "lock-discipline"
        )
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule_id == "lock-discipline"
        assert "_items" in finding.message and "read" in finding.message
        assert finding.line == 15

    def test_locked_and_locked_suffix_accesses_are_clean(self, tmp_path):
        assert not scan_one(
            tmp_path, "service/box.py", CLEAN_LOCK, "lock-discipline"
        )

    def test_init_writes_are_not_guard_evidence(self, tmp_path):
        source = """
            import threading


            class Plain:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.name = "x"

                def label(self):
                    return self.name
        """
        assert not scan_one(
            tmp_path, "api/plain.py", source, "lock-discipline"
        )

    def test_rule_is_scoped_to_service_and_api(self, tmp_path):
        assert not scan_one(
            tmp_path, "core/box.py", BAD_LOCK, "lock-discipline"
        )

    def test_distributed_modules_are_covered(self, tmp_path):
        assert scan_one(
            tmp_path, "distributed/pool.py", BAD_LOCK, "lock-discipline"
        )


# --------------------------------------------------------------------- #
# kernel-determinism
# --------------------------------------------------------------------- #
BAD_KERNEL = """
    import random
    import time


    def jitter(values):
        time.sleep(0.01)
        return random.choice(sorted(values))


    def order(values):
        return list({v for v in values})
"""

CLEAN_KERNEL = """
    import time


    def stopwatch():
        return time.perf_counter()


    def order(values):
        return sorted(set(values))
"""


class TestKernelDeterminism:
    def test_entropy_clocks_and_hash_order_are_flagged(self, tmp_path):
        findings = scan_one(
            tmp_path, "core/engine/chaos.py", BAD_KERNEL, "kernel-determinism"
        )
        messages = " | ".join(finding.message for finding in findings)
        assert len(findings) == 4
        assert "nondeterministic module 'random'" in messages
        assert "time.sleep() outside the stopwatch seam" in messages
        assert "random.choice()" in messages
        assert "materialises hash order" in messages

    def test_perf_counter_and_sorted_sets_are_clean(self, tmp_path):
        assert not scan_one(
            tmp_path, "core/engine/pure.py", CLEAN_KERNEL, "kernel-determinism"
        )

    def test_rule_is_scoped_to_the_engine(self, tmp_path):
        assert not scan_one(
            tmp_path, "service/chaos.py", BAD_KERNEL, "kernel-determinism"
        )


# --------------------------------------------------------------------- #
# error-taxonomy
# --------------------------------------------------------------------- #
BAD_ERRORS = """
    def handle(payload):
        if "kind" not in payload:
            raise ValueError("missing kind")
        try:
            return payload["kind"]
        except:
            return None
"""

CLEAN_ERRORS = """
    from repro.errors import ServiceError


    class JobCancelled(Exception):
        \"\"\"Module-local control-flow exception; never escapes.\"\"\"


    def handle(flag, stored):
        if flag == "cancel":
            raise JobCancelled()
        if flag == "stored":
            raise stored
        raise ServiceError("unsupported flag")
"""


class TestErrorTaxonomy:
    def test_builtin_raise_and_bare_except_are_flagged(self, tmp_path):
        findings = scan_one(
            tmp_path, "service/handlers.py", BAD_ERRORS, "error-taxonomy"
        )
        messages = " | ".join(finding.message for finding in findings)
        assert len(findings) == 2
        assert "raises builtin ValueError" in messages
        assert "bare 'except:'" in messages

    def test_taxonomy_local_and_reraise_are_clean(self, tmp_path):
        assert not scan_one(
            tmp_path, "api/handlers.py", CLEAN_ERRORS, "error-taxonomy"
        )

    def test_rule_is_scoped_to_service_and_api(self, tmp_path):
        assert not scan_one(
            tmp_path, "core/handlers.py", BAD_ERRORS, "error-taxonomy"
        )

    def test_distributed_modules_are_covered(self, tmp_path):
        findings = scan_one(
            tmp_path, "distributed/coordinator.py", BAD_ERRORS, "error-taxonomy"
        )
        assert len(findings) == 2


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestCli:
    def test_exit_one_and_rendered_findings(self, tmp_path):
        path = write(tmp_path, "service/box.py", BAD_LOCK)
        out = io.StringIO()
        code = check_main(
            [str(path), "--root", str(tmp_path)], stdout=out
        )
        assert code == 1
        text = out.getvalue()
        assert "service/box.py:15:" in text
        assert "lock-discipline" in text
        assert "1 finding" in text

    def test_exit_zero_on_clean_tree(self, tmp_path):
        path = write(tmp_path, "service/box.py", CLEAN_LOCK)
        assert check_main(
            [str(path), "--root", str(tmp_path)], stdout=io.StringIO()
        ) == 0

    def test_list_rules_prints_the_catalog(self):
        out = io.StringIO()
        assert check_main(["--list-rules"], stdout=out) == 0
        listed = [line.split()[0] for line in out.getvalue().splitlines()]
        assert tuple(listed) == RULE_IDS

    def test_unknown_select_is_a_usage_error(self, tmp_path):
        path = write(tmp_path, "service/box.py", CLEAN_LOCK)
        code = check_main(
            [str(path), "--root", str(tmp_path), "--select", "bogus"],
            stdout=io.StringIO(),
        )
        assert code == 2

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        # A typo in the path must not turn the gate into a silent pass.
        code = check_main([str(tmp_path / "src" / "repr")], stdout=io.StringIO())
        assert code == 2
        assert "error: no such file or directory" in capsys.readouterr().err

    def test_no_python_file_is_a_usage_error(self, tmp_path, capsys):
        readme = write(tmp_path, "README.md", "# not python\n")
        code = check_main([str(readme), str(tmp_path)], stdout=io.StringIO())
        assert code == 2
        assert "error: no python file to check" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        path = write(tmp_path, "service/box.py", BAD_LOCK)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.tools.check",
                str(path),
                "--root",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 1
        assert "lock-discipline" in result.stdout

    def test_repro_mule_check_subcommand(self, tmp_path, capsys):
        from repro.cli.main import main as repro_main

        path = write(tmp_path, "service/box.py", BAD_LOCK)
        code = repro_main(["check", str(path), "--root", str(tmp_path)])
        assert code == 1
        assert "lock-discipline" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# The gate itself
# --------------------------------------------------------------------- #
class TestShippedTree:
    def test_src_repro_is_violation_free_without_suppressions(self):
        findings = scan([SRC], root=REPO_ROOT)
        assert findings == [], "\n" + "\n".join(
            finding.render() for finding in findings
        )

    def test_mypy_strict_gate(self):
        pytest.importorskip("mypy")
        result = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "setup.cfg"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
