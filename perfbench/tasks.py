"""The four benchmark workloads: seeded task lists and their output checks.

Each task is a zero-argument callable that calls the public dp5 API, checks
the answer against tests/fixtures/golden.json or an exact invariant, and
returns the kernel vectors it enumerated (sum of CountResult.work; 0 for
the constants), or None where that number is not visible from outside. A
wrong answer raises Mismatch. Functions are looked up on their modules at
call time, so spans installed by spans.py see every call.

The seed picks which of the 120 symmetries presents each class and the order
of the tasks. count_fast moves every class into the fundamental chamber, so
neither changes the answers or the work done.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from pathlib import Path

GOLDEN = Path("tests") / "fixtures" / "golden.json"

# worker processes each workload runs its counts with
WORKERS = {"tower_q2": 1, "oracle_q345": 1, "constants_series": 1, "sweep_q4_w2": 2}

# the q=4 oracle classes, the same ones oracle_q345 counts single-threaded
SWEEP_CLASSES = ("1,-1,0,0,0", "2,-2,0,0,0", "3,-1,-1,-1,-1")
MOTIVIC_TRUNC = 900
MOTIVIC_TOL = Fraction(1, 10**10)
EXTRA_CONSTANT_Q = 65521


class Mismatch(Exception):
    """A task returned an answer that disagrees with its reference."""


def _expect(label: str, got, want):
    if got != want:
        raise Mismatch(f"{label}: got {got!r}, expected {want!r}")


def _class(text: str):
    from dp5.picard import CurveClass

    return CurveClass(*(int(x) for x in text.split(",")))


def _present(rng: random.Random, alpha):
    from dp5 import picard

    syms = picard.symmetries()
    return picard.apply_symmetry(alpha, syms[rng.randrange(len(syms))])


def _count_task(rng, q: int, text: str, hom: int):
    from dp5 import count

    alpha = _present(rng, _class(text))

    def task():
        res = count.count_fast(q, alpha, workers=1)
        _expect(f"hom(q={q}, {text} as {tuple(alpha)})", res.hom, hom)
        return res.work

    task.label = f"count q={q} {text}"
    return task


def _constant_task(q: int, golden_row):
    from dp5 import constants

    def task():
        direct = constants.leading_constant_direct(q)
        if golden_row is not None:
            ref = Fraction(golden_row["mid"])
            if abs(direct.mid - ref) > direct.rad + Fraction(golden_row["rad"]):
                raise Mismatch(f"c({q}) direct {direct} off golden {ref}")
        if q >= 5:
            zeta = constants.leading_constant_zeta(q)
            if abs(direct.mid - zeta.mid) > direct.rad + zeta.rad:
                raise Mismatch(f"c({q}) direct {direct} and zeta {zeta} disagree")
        return 0

    task.label = f"constant q={q}"
    return task


def _motivic_task(golden):
    from dp5 import motivic

    prefix = golden["motivic_prefix"]["coeffs"]
    c5 = golden["leading_constants"]["5"]

    def task():
        s = motivic.motivic_constant(MOTIVIC_TRUNC)
        _expect("motivic prefix", list(s.coeffs[: len(prefix)]), prefix)
        gap = abs(s.at(Fraction(1, 5)) - Fraction(c5["mid"]))
        if gap > MOTIVIC_TOL + Fraction(c5["rad"]):
            raise Mismatch(f"|S_{MOTIVIC_TRUNC}(1/5) - c(5)| = {float(gap):.3e}")
        return 0

    task.label = f"motivic_constant({MOTIVIC_TRUNC})"
    return task


def _sweep_task(rng, golden, workers: int, tmpdir: Path):
    from dp5 import cli

    hom = {r["class"]: r["hom"] for r in golden["oracle_counts"] if r["q"] == 4}
    shown = [_present(rng, _class(text)) for text in SWEEP_CLASSES]

    def task():
        classes = tmpdir / "classes.txt"
        out, record = tmpdir / "sweep.csv", tmpdir / "sweep.json"
        classes.write_text(
            "".join(",".join(map(str, c)) + "\n" for c in shown), encoding="utf-8"
        )
        code = cli.main(["sweep", "--q", "4", "--classes", str(classes),
                         "--workers", str(workers), "--out", str(out),
                         "--record", str(record)])
        _expect("dp5 sweep exit code", code, 0)
        with open(out, encoding="utf-8", newline="") as fh:
            got = [int(row["hom_count"]) for row in csv.DictReader(fh)]
        _expect("sweep hom_count column", got, [hom[t] for t in SWEEP_CLASSES])
        with open(record, encoding="utf-8") as fh:
            rows = json.load(fh)["payload"]["rows"]
        _expect("sweep RunRecord hom_count", [r["hom_count"] for r in rows], got)
        return None

    task.label = "dp5 sweep --q 4 --workers %d" % workers
    return task


def load_golden(root: Path) -> dict:
    with open(root / GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def build(workload: str, seed: int, golden: dict, workers: int, tmpdir: Path):
    """The seeded task list of one pass over the workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tower_q2":
        tasks = [_count_task(rng, 2, r["class"], r["hom_count"])
                 for r in golden["tower_q2"]["rows"]]
    elif workload == "oracle_q345":
        tasks = [_count_task(rng, r["q"], r["class"], r["hom"])
                 for r in golden["oracle_counts"]]
    elif workload == "constants_series":
        consts = golden["leading_constants"]
        qs = sorted(int(q) for q in consts) + [EXTRA_CONSTANT_Q]
        tasks = [_constant_task(q, consts.get(str(q))) for q in qs]
        tasks.append(_motivic_task(golden))
    elif workload == "sweep_q4_w2":
        tasks = [_sweep_task(rng, golden, workers, tmpdir)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(tasks)
    return tasks

