"""Checks on the benchmark itself.

    python3 perfbench/selftest.py

* Every workload passes its correctness checks when traced, and two traced
  runs with the same seed give identical ``.calls`` counts.
* The benchmark refuses to run, and prints no result, in a directory that
  holds only ``BENCHMARK.json`` and ``perfbench/`` (no package sources).

It takes about two minutes on a 2-core machine; it is not part of the unit
test suite, so that suite does not get slower.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
WORKLOADS = ("verify-all", "gram-sweep", "cli-sessions")


def bench(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_traced_runs_repeat(workload: str) -> None:
    first, second = (result(bench(ROOT, workload, 7, 1)) for _ in range(2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2, res
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert calls == again, {k: (calls[k], again.get(k)) for k in calls if calls[k] != again.get(k)}
    assert calls["whit.gram.calls"] > 0 and calls["symb.rational.calls"] > 0, calls


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        for workload in WORKLOADS:
            done = bench(bare, workload, 1, 0)
            assert done.returncode != 0, (workload, done.stdout)
            assert '"correct"' not in done.stdout, (workload, done.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_refuses_without_sources()
    print("ok: refuses to run without package sources")
    for workload in WORKLOADS:
        check_traced_runs_repeat(workload)
        print(f"ok: {workload} traced runs pass and repeat their call counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
