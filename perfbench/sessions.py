"""The fixed command list of the cli-sessions workload, and its golden outputs.

Each entry is the argument list after ``python -m hermdens.cli``.  The list
holds the README sessions plus at least one use of every compute command and
of ``--json``/``--decimal``.  It leaves out ``--cache``, ``--config`` and
``--jobs``, and inputs near the brute-force budgets, so that a change to those
options or budgets does not change what this workload measures.

Run this file to capture the goldens (stdout and exit code of every command)
into ``goldens.json`` next to it:

    python3 perfbench/sessions.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"

SESSIONS = [
    # README sessions
    ["integral", "--kind", "norm", "--region", "O", "--e", "-1"],
    ["wdens", "--B", "diag:0,-1", "--h", "1", "--t", "1", "--symbolic"],
    ["tree", "--q", "3", "--mx", "9", "--my", "7", "--d", "8", "--per-f"],
    ["beta", "--n", "2", "--h", "1", "--closed"],
    ["beta", "--n", "1", "--h", "1", "--verify", "--B", "diag:2,0", "--q", "3"],
    ["alpha", "--xi", "1,0", "--lam", "0,0", "--prime", "--brute", "--q", "3", "--d", "2"],
    ["jfun", "--t", "1", "--B", "diag:2,0"],
    ["appendix", "--n", "1", "--B1", "2,0"],
    # integral tables, with the character-sum oracle
    ["integral", "--kind", "trace_pair", "--region", "O", "--region", "unit", "--e", "2", "--oracle"],
    ["--json", "integral", "--kind", "norm", "--region", "pi", "--e", "1", "--oracle", "--p", "5"],
    ["integral", "--kind", "trace_j1", "--e", "-2"],
    # weighted densities: symbolic, derivative, numeric window 20, larger form
    ["wdens", "--B", "diag:0,-1", "--h", "1", "--t", "1", "--symbolic", "--derivative"],
    ["--decimal", "8", "wdens", "--B", "diag:0,-1", "--h", "1", "--t", "1",
     "--q", "3", "--emin", "-20", "--emax", "20", "--derivative"],
    ["wdens", "--B", "diag:12,0", "--h", "0", "--t", "1", "--symbolic"],
    # correction constants n = 1..5 with the closed top form
    ["beta", "--n", "1", "--h", "0", "--closed"],
    ["--json", "beta", "--n", "3", "--h", "2", "--closed"],
    ["beta", "--n", "4", "--h", "3", "--closed"],
    ["beta", "--n", "5", "--h", "4", "--closed"],
    # classical densities
    ["--json", "--decimal", "6", "alpha", "--xi", "0,0,0,0", "--lam", "4,4,4,4"],
    ["alpha", "--xi", "2,1,0,0", "--lam", "1,0", "--prime", "--pad", "2"],
    # derivative functional, appendix identity, tree
    ["--decimal", "6", "jfun", "--t", "1", "--B", "diag:0,-1"],
    ["appendix", "--n", "2", "--B1", "3,0,0"],
    ["--json", "tree", "--q", "5", "--mx", "6", "--my", "3", "--d", "5", "--per-f"],
]


def child_env() -> dict:
    """Environment for a package process: sources from this checkout, fixed hashing."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def key(args: list[str]) -> str:
    return " ".join(args)


def load_goldens() -> dict[str, tuple[int, bytes]]:
    """Golden (exit code, stdout) per command, keyed by the joined argument list."""
    with open(GOLDENS, encoding="utf-8") as fh:
        raw = json.load(fh)
    out = {k: (v["code"], v["stdout"].encode()) for k, v in raw.items()}
    missing = [key(a) for a in SESSIONS if key(a) not in out]
    if missing:
        raise ValueError(f"goldens.json lacks {missing}")
    return out


def main() -> int:
    goldens = {}
    for args in SESSIONS:
        done = subprocess.run([sys.executable, "-m", "hermdens.cli", *args], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE, timeout=170)
        goldens[key(args)] = {"code": done.returncode, "stdout": done.stdout.decode()}
        print(f"{done.returncode} {key(args)}", file=sys.stderr)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
