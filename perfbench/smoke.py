"""Smoke test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Checks, with runs of minimal length:

* every workload (the ``BENCHMARK.json`` ones and ``fig1-library``),
  untraced and traced, prints exactly the end-to-end or per-layer metrics
  ``BENCHMARK.json`` names, with their units, and no failed op;
* a deliberately corrupted outcome (``--corrupt-every 3``) is counted as a
  failed op and makes the run report ``correct: false``;
* the oracle pre-flight rejects an entry point that drops a clique;
* without the ``repro`` sources next to it, the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(*args: str) -> dict:
    done = _run(*args)
    if done.returncode != 0:
        raise SystemExit(f"smoke: {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.api.request import EnumerationRequest
    from repro.api.session import MiningSession
    from workloads import WORKLOADS, OracleError, check_oracle

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(
                "--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace)
            )
            expected = {entry["name"]: entry["unit"] for entry in spec[kind]}
            actual = {key: entry["unit"] for key, entry in result["metrics"].items()}
            if actual != expected:
                raise SystemExit(f"smoke: {name} trace={trace} metrics {actual}")
            if not all(isinstance(e["value"], (int, float)) for e in result["metrics"].values()):
                raise SystemExit(f"smoke: {name} trace={trace}: non-numeric value")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise SystemExit(f"smoke: {name} trace={trace}: {result}")
            print(f"smoke: {name} trace={trace}: {result['attempted']} ops, ok")

    corrupted = _result("--workload", "fig1-library", "--seconds", "1", "--corrupt-every", "3")
    expected_failures = -(-corrupted["attempted"] // 3)
    if corrupted["correct"] or corrupted["failed"] != expected_failures:
        raise SystemExit(f"smoke: corrupted outcomes were not all caught: {corrupted}")
    if corrupted["metrics"]["ok_frac"]["value"] >= 1.0:
        raise SystemExit("smoke: corrupted outcomes did not lower ok_frac")
    print(f"smoke: corruption: {corrupted['failed']} of {corrupted['attempted']} ops failed, ok")

    def dropping_first_record(label, graph, alpha):
        outcome = MiningSession(graph).enumerate(EnumerationRequest(alpha=alpha))
        outcome.records = outcome.records[1:]
        return outcome

    try:
        check_oracle(dropping_first_record, 1, "a corrupted entry point")
    except OracleError as exc:
        print(f"smoke: oracle catches a corrupted entry point ({exc}), ok")
    else:
        raise SystemExit("smoke: the oracle pre-flight accepted a corrupted entry point")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run("--workload", "fig1-library", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        raise SystemExit(f"smoke: a bare checkout exited {done.returncode}: {done.stdout}")
    print("smoke: bare checkout fails cleanly, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
