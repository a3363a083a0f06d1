"""dp5 benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload tower_q2 --seed 1 --seconds 10 --trace 0

Runs from the root of a dp5 checkout against the sources in src/dp5, with
the standard library only. One pass runs every task of the workload once,
closed loop: each task starts when the previous one returns. Every answer
is checked (see tasks.py); a task that raises or disagrees counts as
failed and the run goes on.

--trace 0 repeats passes while the next one fits in --seconds (at least
one) and reports the medians of wall_s and cpu_s, the peak RSS, and
setup_s, the median over fresh interpreters of importing dp5, loading the
golden values and building the task list.

--trace 1 runs an untraced reference pass and a traced pass (spans.py) and
reports per-layer calls and self times, plus trace.overhead_s = traced wall
minus reference wall. The reference pass times only the count_fast
boundary. Both run with one worker, because the spans do not cross into
child processes; a workload with a process pool first runs one more
reference pass with its workers, which gives count.children_cpu_s and
count.parallel_eff. Spans are written to .perfbench/trace-<workload>-<seed>.json.

Deterministic counts (COUNTS) must repeat across passes, runs and seeds:
while src/dp5 has the digest recorded in baseline.json they must equal the
values recorded there.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spans  # noqa: E402  (sibling modules; sys.path[0] is this directory)
import tasks  # noqa: E402

SETUP_SAMPLES = 7
COUNTS = (
    "count.vectors",
    "bundles.plucker_kernel.calls",
    "p1.pgcd.calls",
    "motivic.SeriesL.mul.calls",
)
# per-layer metric -> unit; ".calls"/".self_s" ones come from spans.TARGETS
PER_LAYER = {
    "count.count_fast.calls": "count",
    "count.count_fast.self_s": "s",
    "count.vectors": "count",
    "count.vectors_per_s": "1/s",
    "bundles.plucker_kernel.calls": "count",
    "bundles.plucker_kernel.self_s": "s",
    "bundles.nullspace.self_s": "s",
    "p1.pgcd.calls": "count",
    "p1.pgcd.self_s": "s",
    "p1.pdivmod.calls": "count",
    "p1.pdivmod.self_s": "s",
    "p1.pmul.calls": "count",
    "p1.pmul.self_s": "s",
    "gf.field_of_order.calls": "count",
    "gf.field_of_order.self_s": "s",
    "picard.chamber_normalize.self_s": "s",
    "constants.leading_constant_direct.calls": "count",
    "constants.leading_constant_direct.self_s": "s",
    "constants.leading_constant_zeta.calls": "count",
    "constants.leading_constant_zeta.self_s": "s",
    "motivic.motivic_constant.self_s": "s",
    "motivic.witt_exponents.self_s": "s",
    "motivic.SeriesL.mul.calls": "count",
    "motivic.SeriesL.mul.self_s": "s",
    "motivic.SeriesL.pow.calls": "count",
    "motivic.SeriesL.pow.self_s": "s",
    "count.children_cpu_s": "s",
    "count.parallel_eff": "ratio",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def import_dp5():
    """Import dp5 from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "dp5" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dp5 sources under {src}")
    sys.path.insert(0, str(src))
    import dp5

    if Path(dp5.__file__).resolve().parent != src / "dp5":
        raise SystemExit(f"perfbench: imported dp5 from {dp5.__file__}")
    return dp5


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Pass:
    """Measurements of one pass over a task list."""

    def __init__(self, task_list, tracer=None):
        self.attempted = len(task_list)
        self.failed = 0
        self.vectors = 0
        s0, c0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        for i, task in enumerate(task_list):
            if tracer is not None:
                tracer.task = i
            try:
                work = task()
            except Exception as ex:  # a failed task is counted, not fatal
                self.failed += 1
                self.vectors = None
                print(f"FAILED {task.label}: {type(ex).__name__}: {ex}",
                      file=sys.stderr)
                continue
            if work is None or self.vectors is None:
                self.vectors = None
            else:
                self.vectors += work
        self.wall = time.perf_counter() - t0
        self.children_cpu = _cpu(resource.RUSAGE_CHILDREN) - c0
        self.cpu = _cpu(resource.RUSAGE_SELF) - s0 + self.children_cpu


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that sets up the run and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def timed_run(args, golden, tmpdir):
    workers = tasks.WORKERS[args.workload]
    task_list = tasks.build(args.workload, args.seed, golden, workers, tmpdir)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(Pass(task_list))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > args.seconds:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup = [measure_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    vectors = {p.vectors for p in passes}
    consistent = len(vectors) == 1
    counts = {} if None in vectors else {"count.vectors": max(vectors)}
    return passes, metrics, counts, consistent


def traced_run(args, golden, tmpdir):
    workers = tasks.WORKERS[args.workload]
    layer = dict.fromkeys(PER_LAYER, 0)
    passes = []

    def boundary_pass(n_workers):
        timer = spans.Tracer()
        with spans.installed(timer, {"count.count_fast"}):
            p = Pass(tasks.build(args.workload, args.seed, golden, n_workers, tmpdir))
        passes.append(p)
        return p, timer.totals()["count.count_fast"]

    if workers > 1:
        pool, fast = boundary_pass(workers)
        layer["count.children_cpu_s"] = pool.children_cpu
        if fast["wall_s"]:
            layer["count.parallel_eff"] = pool.children_cpu / (workers * fast["wall_s"])
    ref, fast = boundary_pass(1)
    if fast["wall_s"]:
        layer["count.vectors_per_s"] = fast["note"] / fast["wall_s"]

    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = Pass(tasks.build(args.workload, args.seed, golden, 1, tmpdir), tracer)
    passes.append(traced)
    totals = tracer.totals()
    for name, t in totals.items():
        for key in ("calls", "self_s"):
            if f"{name}.{key}" in layer:
                layer[f"{name}.{key}"] = t[key]
    layer["count.vectors"] = totals["count.count_fast"]["note"]
    layer["trace.overhead_s"] = traced.wall - ref.wall
    tracer.dump(tmpdir.parent / f"trace-{args.workload}-{args.seed}.json")

    metrics = {name: (layer[name], unit) for name, unit in PER_LAYER.items()}
    counts = {name: layer[name] for name in COUNTS}
    consistent = layer["count.vectors"] == fast["note"]
    return passes, metrics, counts, consistent


def source_digest() -> str:
    """sha256 over the dp5 sources, to tell whether recorded counts apply."""
    import hashlib  # here, after peak RSS is read: it loads OpenSSL (~3.5 MB)

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dp5").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_counts(counts: dict, workload: str) -> list:
    """Disagreements with the counts recorded for these exact sources."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return []
    with open(path, encoding="utf-8") as fh:
        base = json.load(fh)
    if base.get("source_sha256") != source_digest():
        print("counts: src/dp5 differs from the recorded sources; not compared")
        return []
    want = base["workloads"].get(workload, {}).get("counts", {})
    return [f"{k}: {v} != recorded {want[k]}" for k, v in counts.items()
            if k in want and v != want[k]]


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "n/a"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(tasks.WORKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring window; a longer pass is still run whole")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # a value from the shell could turn a task into BudgetExceeded
    os.environ.pop("DP5_BUDGET", None)
    load_start = loadavg()
    import_dp5()
    golden = tasks.load_golden(ROOT)
    out_dir = ROOT / ".perfbench"
    if args.setup_only:
        tasks.build(args.workload, args.seed, golden,
                    tasks.WORKERS[args.workload], out_dir)
        return 0

    out_dir.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        run = traced_run if args.trace else timed_run
        passes, metrics, counts, consistent = run(args, golden, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    problems = check_counts(counts, args.workload)
    if not consistent:
        problems.append("count.vectors differs between passes of this run")
    for p in problems:
        print(f"COUNT MISMATCH {p}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} tasks/pass={passes[0].attempted} "
          f"fail_frac={failed / attempted}")
    print(f"machine nproc={len(os.sched_getaffinity(0))} "
          f"cpu_count={os.cpu_count()} python={platform.python_version()} "
          f"loadavg_start={load_start!r} loadavg_end={loadavg()!r}")
    for name, value in counts.items():
        print(f"count {name} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
