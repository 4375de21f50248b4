"""The hermdens benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one client, one op in flight at a time):

* ``verify-all``: an op is one ``python -m hermdens.cli --json verify --suite
  all --q 3`` process, start-up included.  It passes when it exits 0 with no
  failed check and at least the 126 checks of the seed release.
* ``gram-sweep``: in-process rows of the pairing-duality sweep (acceptance
  test A03) on warm slot caches.  A row is one (Y, h) compared with every
  in-shape B through ``gram_fingerprint``; it passes on zero mismatches.
* ``cli-sessions``: an op is one CLI process from ``sessions.SESSIONS``; its
  stdout and exit code must equal the goldens captured at the seed release.

With ``--trace 0`` the loop repeats whole passes for ``--seconds`` (it starts
a pass only while the median pass so far fits in the time left, and always
runs one) and reports the end-to-end metrics.  With ``--trace 1`` it runs one
untraced and one traced pass and reports the per-layer metrics of the traced
one (see ``tracer.py``); traced ops pass the same correctness checks.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import sessions
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAUNCH = HERE / "launch.py"
PY = sys.executable

SETUP_REPEATS = 5
STARTUP_PROBES = 5
OP_TIMEOUT_S = 170
SEED_CHECKS = 126  # checks in `verify --suite all` at the seed release

# gram-sweep pass: every size-2 row, sampled size-4 rows, random size-6 pairs.
# The size-4 sample takes the same number of rows at each h, because the
# in-shape count, and so the cost of a row, depends on h.
GRAM_ROWS_PER_H = 40
GRAM_SPOT_EVERY = 10
GRAM_PAIRS6 = 500
GRAM_PAIRS6_PER_OP = 50

VERIFY_SUITES = (
    "integrals", "gram-duality", "alpha-duality", "profile-forms", "iwahori-sum",
    "beta-system", "beta-closed-form", "jfun-unimodular", "jfun-duality", "jfun-h0",
    "jfun-assembly", "tree-intersections", "closed-products", "partition-sums",
    "appendix-compat", "count-bridge",
)


class SetupError(RuntimeError):
    pass


def run_process(argv: list[str], stderr_path: Path) -> tuple[int, bytes, float, int]:
    """Run one child to completion: (exit code, stdout, wall seconds, peak RSS in KiB)."""
    t0 = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=sessions.child_env(),
                                stdout=subprocess.PIPE, stderr=err)
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss


class CliWorkload:
    """Ops are package processes; every process starts with cold caches."""

    def __init__(self, seed: int):
        self.seed = seed
        self.peak_kb = 0
        self.ops: list = []

    def setup(self) -> None:
        # warm the interpreter's file and bytecode caches for every module
        code, _, _, _ = run_process([PY, "-c", "import hermdens.cli, hermdens.verify"],
                                    OUT / "setup.stderr")
        if code != 0:
            raise SetupError(f"cannot import hermdens from {SRC}: see {OUT / 'setup.stderr'}")

    def run_op(self, op, spans: Path | None = None) -> bool:
        args, check = op
        prefix = [PY, str(LAUNCH), str(spans)] if spans else [PY, "-m", "hermdens.cli"]
        code, out, _, rss = run_process(prefix + list(args), OUT / "op.stderr")
        self.peak_kb = max(self.peak_kb, rss)
        ok = check(code, out)
        if not ok:
            print(f"op failed: {' '.join(args)} (exit {code})", file=sys.stderr)
        return ok

    def peak_rss_kb(self) -> int:
        return self.peak_kb


class VerifyAll(CliWorkload):
    def setup(self) -> None:
        super().setup()
        self.ops = [(["--json", "verify", "--suite", "all", "--q", "3"], self.check)]

    @staticmethod
    def check(code: int, out: bytes) -> bool:
        if code != 0:
            return False
        report = json.loads(out)
        return report["failed"] == 0 and report["passed"] >= SEED_CHECKS


class CliSessions(CliWorkload):
    def setup(self) -> None:
        super().setup()
        try:
            goldens = sessions.load_goldens()
        except (OSError, ValueError) as exc:
            raise SetupError(f"cannot load the goldens: {exc}") from exc
        self.ops = []
        for args in sessions.SESSIONS:
            want = goldens[sessions.key(args)]
            self.ops.append((args, lambda code, out, want=want: (code, out) == want))


class GramSweep:
    """In-process pairing-duality rows; the seed picks the size-4 rows and size-6 pairs.

    Package functions are looked up on their modules at each call, so that an
    installed tracer sees them.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list = []

    def setup(self) -> None:
        from hermdens import reps, whit

        self.reps, self.whit = reps, whit
        self.ops = []
        ys1 = [reps.diagonal((a, b)) for a in range(-2, 3) for b in range(-2, 3)]
        ys1 += [reps.make_monomial((2, 1), (e, e)) for e in range(-2, 3)]
        bs1 = list(reps.enumerate_reps(1, -1, 2))
        for h in (0, 1, 2):
            self.ops.append((self.row_gram, ys1, h, bs1))
        ys2 = list(reps.enumerate_reps(2, -2, 2))
        bs2 = list(reps.enumerate_reps(2, -1, 2))
        rng = random.Random(self.seed)
        rows = [(Y, h) for h in range(5) for Y in rng.sample(ys2, GRAM_ROWS_PER_H)]
        for i, (Y, h) in enumerate(rows):
            self.ops.append((self.row_fingerprint, Y, h, bs2, i % GRAM_SPOT_EVERY == 0))
        ys3 = list(reps.enumerate_reps(3, -2, 2))
        pairs = []
        while len(pairs) < GRAM_PAIRS6:
            Y = rng.choice(ys3)
            h = rng.randint(0, 6)
            B = reps.diagonal(sorted((rng.randint(-1, 2) for _ in range(6)), reverse=True))
            if reps.is_in_Rh(B, h)[0]:
                pairs.append((Y, h, B))
        for i in range(0, GRAM_PAIRS6, GRAM_PAIRS6_PER_OP):
            self.ops.append((self.pairs_gram, pairs[i:i + GRAM_PAIRS6_PER_OP]))
        # warm the slot caches on a few ops of each kind
        for op in self.ops[:3] + self.ops[3:11] + self.ops[-1:]:
            self.run_op(op)

    def row_gram(self, ys, h, bs) -> int:
        reps, whit = self.reps, self.whit
        bad = 0
        for Y in ys:
            Yw = reps.dual_wedge(Y, h)
            for B in bs:
                if reps.is_in_Rh(B, h)[0] and whit.gram_g(Y, B) != whit.gram_g(Yw, reps.dual_vee(B, h)):
                    bad += 1
        return bad

    def row_fingerprint(self, Y, h, bs, spot) -> int:
        reps, whit = self.reps, self.whit
        Yw = reps.dual_wedge(Y, h)
        bad = 0
        shaped = []
        for B in bs:
            if reps.is_in_Rh(B, h)[0]:
                Bv = reps.dual_vee(B, h)
                shaped.append((B, Bv))
                if whit.gram_fingerprint(Y, B) != whit.gram_fingerprint(Yw, Bv):
                    bad += 1
        if spot:
            B, Bv = shaped[len(shaped) // 2]
            if whit.gram_g(Y, B) != whit.gram_g(Yw, Bv):
                bad += 1
        return bad

    def pairs_gram(self, pairs) -> int:
        reps, whit = self.reps, self.whit
        return sum(1 for Y, h, B in pairs
                   if whit.gram_g(Y, B) != whit.gram_g(reps.dual_wedge(Y, h), reps.dual_vee(B, h)))

    def run_op(self, op, spans: Path | None = None) -> bool:
        bad = op[0](*op[1:])
        if bad:
            print(f"op failed: {op[0].__name__} with {bad} mismatches", file=sys.stderr)
        return bad == 0

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {"verify-all": VerifyAll, "gram-sweep": GramSweep, "cli-sessions": CliSessions}


class Loop:
    """Closed-loop driver: ops run back to back, one at a time."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.pass_walls: list[float] = []

    def one_pass(self, spans_dir: Path | None = None) -> float:
        t0 = time.perf_counter()
        for i, op in enumerate(self.w.ops):
            spans = spans_dir / f"{i}.spans" if spans_dir else None
            t = time.perf_counter()
            try:
                ok = self.w.run_op(op, spans)
            except Exception as exc:  # an op that raises counts as failed
                print(f"op raised: {exc!r}", file=sys.stderr)
                ok = False
            self.latencies.append(time.perf_counter() - t)
            self.attempted += 1
            self.failed += not ok
        wall = time.perf_counter() - t0
        self.pass_walls.append(wall)
        return wall


def timed_setups(workload) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def p90_ms(latencies: list[float]):
    """p90 when at least ten samples lie beyond it, else None (not applicable)."""
    if len(latencies) < 100:
        return None
    return statistics.quantiles(latencies, n=10)[8] * 1000


def end_to_end(workload, seconds: int) -> tuple[Loop, dict]:
    setups = timed_setups(workload)
    loop = Loop(workload)
    t0 = time.perf_counter()
    loop.one_pass()
    # start another pass only while it is expected to end within the run
    while time.perf_counter() - t0 + statistics.median(loop.pass_walls) <= seconds:
        loop.one_pass()
    metrics = {
        "wall_s": (statistics.median(loop.pass_walls), "s"),
        "op_p50_ms": (statistics.median(loop.latencies) * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024, "MiB"),
    }
    p90 = p90_ms(loop.latencies)
    print(f"passes {len(loop.pass_walls)} ({min(loop.pass_walls):.3f}..{max(loop.pass_walls):.3f} s), "
          f"ops {loop.attempted}, "
          f"op_p90_ms {'n/a (fewer than 100 ops)' if p90 is None else f'{p90:.3f}'}, "
          f"error_rate {loop.failed / loop.attempted:.4f} ({loop.failed}/{loop.attempted})")
    return loop, metrics


def startup_ms() -> float:
    walls = [run_process([PY, "-m", "hermdens.cli", "--version"], OUT / "version.stderr")[2]
             for _ in range(STARTUP_PROBES)]
    return statistics.median(walls) * 1000


def per_layer(name: str, workload) -> tuple[Loop, dict]:
    workload.setup()
    loop = Loop(workload)
    untraced = loop.one_pass()
    spans_dir = OUT / name
    spans_dir.mkdir(parents=True, exist_ok=True)
    for old in spans_dir.glob("*.spans"):
        old.unlink()
    if isinstance(workload, GramSweep):
        tr = tracer.Tracer()
        tr.install()
        try:
            workload.setup()
            traced = loop.one_pass()
        finally:
            tr.uninstall()
        tr.dump(spans_dir / "0.spans")
    else:
        traced = loop.one_pass(spans_dir)
    stats, counters = tracer.aggregate(tracer.load(p) for p in sorted(spans_dir.glob("*.spans")))
    metrics = {}
    for group in tracer.LAYERS:
        calls, _, self_s = stats.get(group, (0, 0.0, 0.0))
        metrics[f"{group}.calls"] = (calls, "count")
        metrics[f"{group}.self_s"] = (self_s, "s")
    gram_calls = stats.get("whit.gram", (0,))[0]
    metrics["whit.gram.nonzero_ratio"] = (
        counters.get("whit.gram.nonzero", 0) / gram_calls if gram_calls else 0.0, "ratio")
    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}.wall_s"] = (stats.get(f"verify.{suite}", (0, 0.0))[1], "s")
    metrics["cli.startup_ms"] = (startup_ms(), "ms")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return loop, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "hermdens" / "__init__.py").is_file():
        print(f"no hermdens sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}, python {sys.version.split()[0]}, cores {os.cpu_count()}")
    try:
        if args.trace:
            loop, metrics = per_layer(args.workload, workload)
        else:
            loop, metrics = end_to_end(workload, args.seconds)
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
