"""One sha256 over the results of a fixed list of counts.

    python3 tools/result_digest.py [--expect SHA]

Runs from the root of a dp5 checkout against the sources in its src/dp5,
with the standard library only.  Each case is one call; its result becomes
one JSON line, or {"refused": type, "message": text} when it raises a
DP5Error or a ValueError.  First the count_fast cases, each line
CountResult._asdict():

- ten classes at q in {2, 3, 4, 5, 7, 8, 9, 16}, less those in SLOW;
- the anticanonical tower at q = 2, m = 1..5, and -2K at q = 3, 4, 5;
- budgets 0, 1, 10, ..., 10^5 on four classes, so that each of plan_count's
  gates refuses at least once;
- three counts with 1 and 2 workers, once as is and once with the pool gate
  _POOL_MIN_WORK at 0;
- classes with a slot degree that only the third slot group C has, so no
  root-mask table is built or budgeted for it: (5,-3,-1,-1,0) at q = 2, 3,
  4, and (6,-2,-1,-1,0) at q = 2 with budgets 79 and 100, one below and
  above its root-mask gate.

Then every other number the package computes, after the counts:

- the certified leading constant as exact (mid, rad): direct at q in
  {2, 3, 4, 5, 7, 101, 65521}, zeta at q in {5, 7, 101, 65521}, and both
  methods on the genus-1 curve over F_7 with Weil polynomial 1 + 7T^2;
- the coefficients of motivic_constant(120);
- hn_statistics for -2K at q = 2 and 3, 25 samples, seed 7, the draws of
  dp5 verify's bundles suite.

DP5_BUDGET is removed from the environment first, so every count without a
budget of its own runs at the default.  Prints the number of lines and their
sha256; with --expect SHA exits 1 unless the sha256 is SHA.  Run it at two
commits to check that a change keeps every count, constant, series
coefficient, splitting statistic, budget verdict and refusal message; lines()
gives the lines themselves, to find one that differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dp5 import count  # noqa: E402
from dp5.bundles import hn_statistics  # noqa: E402
from dp5.constants import (  # noqa: E402
    curve_from_weil, leading_constant_direct, leading_constant_zeta,
)
from dp5.errors import DP5Error  # noqa: E402
from dp5.motivic import motivic_constant  # noqa: E402
from dp5.picard import ANTICANONICAL, CurveClass, scale  # noqa: E402

FIELDS = (2, 3, 4, 5, 7, 8, 9, 16)
CLASSES = (
    "0,0,0,0,0", "1,0,0,0,0", "1,-1,0,0,0", "2,0,0,0,0", "2,-1,-1,0,0",
    "2,-2,0,0,0", "2,-1,-1,-1,0", "3,-1,-1,-1,-1", "3,-2,-1,0,0", "4,-2,-1,-1,-1",
)
# (q, class) pairs of the grid above that take over about a second each
SLOW = {(7, "2,0,0,0,0"), (8, "2,0,0,0,0"), (9, "2,0,0,0,0"),
        (16, "3,-2,-1,0,0"), (16, "4,-2,-1,-1,-1")}
BUDGETS = (0,) + tuple(10**k for k in range(6))
BUDGET_CASES = ((3, "2,0,0,0,0"), (5, "2,-1,-1,0,0"), (4, "3,-1,-1,-1,-1"),
                (2, "2,-2,0,0,0"))
POOL_CASES = ((2, "15,-5,-5,-5,-5"), (5, "6,-2,-2,-2,-2"), (4, "2,-2,0,0,0"))
# (q, class, budget): C alone has the slot degrees 2 and 3 of the first
# class, (4, 1, 1, 2, 3, 4) in _SLOTS order, and 4 of the second, (5, 3, 3,
# 4, 4, 5)
C_ONLY_CASES = ((2, "5,-3,-1,-1,0", None), (3, "5,-3,-1,-1,0", None),
                (4, "5,-3,-1,-1,0", None), (2, "6,-2,-1,-1,0", 79),
                (2, "6,-2,-1,-1,0", 100))


def _class(text: str):
    return CurveClass(*(int(x) for x in text.split(",")))


def _record(call, *args, **kwargs) -> str:
    try:
        record = call(*args, **kwargs)
    except (DP5Error, ValueError) as err:
        record = {"refused": type(err).__name__, "message": str(err)}
    return json.dumps(record, sort_keys=True)


def _line(q: int, text: str, **kwargs) -> str:
    return _record(lambda: count.count_fast(q, _class(text), **kwargs)._asdict())


def _constant(method: str, q: int, curve=None) -> str:
    def call():
        run = leading_constant_direct if method == "direct" else leading_constant_zeta
        c = run(q, curve=curve)
        return {"method": method, "q": q, "weil": curve and list(curve.weil),
                "mid": str(c.mid), "rad": str(c.rad)}
    return _record(call)


def lines():
    """The JSON line of every case, in order, with DP5_BUDGET unset."""
    os.environ.pop("DP5_BUDGET", None)
    for q in FIELDS:
        for text in CLASSES:
            if (q, text) not in SLOW:
                yield _line(q, text)
    for m in range(1, 6):
        yield _line(2, f"{3 * m},{-m},{-m},{-m},{-m}")
    for q in (3, 4, 5):
        yield _line(q, "6,-2,-2,-2,-2")
    for q, text in BUDGET_CASES:
        for budget in BUDGETS:
            yield _line(q, text, budget=budget)
    gate = count._POOL_MIN_WORK
    try:
        for min_work in (gate, 0):
            count._POOL_MIN_WORK = min_work
            for q, text in POOL_CASES:
                for workers in (1, 2):
                    yield _line(q, text, workers=workers)
    finally:
        count._POOL_MIN_WORK = gate
    for q, text, budget in C_ONLY_CASES:
        yield _line(q, text, budget=budget)
    for q in (2, 3, 4, 5, 7, 101, 65521):
        yield _constant("direct", q)
    for q in (5, 7, 101, 65521):
        yield _constant("zeta", q)
    elliptic = curve_from_weil(7, 1, [1, 0, 7])
    for method in ("direct", "zeta"):
        yield _constant(method, 7, elliptic)
    yield _record(lambda: {"motivic_coeffs": list(motivic_constant(120).coeffs)})
    for q in (2, 3):
        yield _record(hn_statistics, q, scale(ANTICANONICAL, 2), 25, 7)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", metavar="SHA", help="exit 1 unless the sha256 is SHA")
    args = parser.parse_args(argv)
    digest, n = hashlib.sha256(), 0
    for line in lines():
        digest.update(line.encode() + b"\n")
        n += 1
    sha = digest.hexdigest()
    print(f"{n} lines, sha256 {sha}")
    if args.expect is not None and sha != args.expect:
        print(f"expected sha256 {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
