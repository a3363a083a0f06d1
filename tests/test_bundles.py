"""Congruence bundles: linear algebra kernels, construction preconditions,
and the section-count profile that determines the splitting type."""

import random

import pytest

from dp5.bundles import (
    _Condition,
    _twist_rows,
    build_bundle,
    hn_statistics,
    nullspace,
    plucker_kernel,
    rref,
    sample_bundles,
)
from dp5.errors import BudgetExceeded, NotInEffDual, PreconditionViolated
from dp5.gf import field_of_order
from dp5.p1 import INF, BinaryForm, Divisor, divisor_of
from dp5.picard import ANTICANONICAL, CurveClass, scale


def _rand_matrix(rng, q, nrows, ncols):
    return [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]


def test_rref_rank_nullity():
    for q in (2, 3, 5):
        ctx = field_of_order(q)
        rng = random.Random(q * 13)
        for _ in range(40):
            nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
            rows = _rand_matrix(rng, q, nrows, ncols)
            red, pivots = rref(ctx, rows, ncols)
            assert len(red) == len(pivots) <= min(nrows, ncols)
            basis = nullspace(ctx, rows, ncols)
            assert len(red) + len(basis) == ncols
            # every kernel vector is killed by every original row
            for v in basis:
                for row in rows:
                    s = 0
                    for a, b in zip(row, v):
                        s = ctx.add(s, ctx.mul(a, b))
                    assert s == 0


def _forms(ctx, *coeff_tuples):
    return tuple(BinaryForm(ctx, len(c) - 1, c) for c in coeff_tuples)


def test_plucker_kernel_against_exhaustion():
    # brute-force the two divisibility conditions over all candidate triples
    from dp5.p1 import enumerate_sections

    ctx = field_of_order(2)
    aprime = _forms(ctx, (1, 1), (0, 1), (1,), (1, 1, 1))
    dpp = (3, 1, 2)  # d13-d34 = d4-d1 and d24-d34 = d3-d2
    sizes, offs, basis = plucker_kernel(aprime, dpp)
    assert tuple(sizes) == tuple(d + 1 for d in dpp)
    a1, a2, a3, a4 = aprime
    d13, d24, d34 = dpp

    def divides(g, h):
        # form divisibility: div(g) <= div(h), with h = 0 always divisible
        return h.is_zero() or divisor_of(g).leq(divisor_of(h))

    found = 0
    for f13 in enumerate_sections(ctx, d13):
        for f24 in enumerate_sections(ctx, d24):
            for f34 in enumerate_sections(ctx, d34):
                ok1 = divides(a1, a2 * f24 - a3 * f34)
                ok2 = divides(a2, a4 * f34 + a1 * f13)
                if ok1 and ok2:
                    found += 1
    assert found == ctx.q ** len(basis)


def test_build_bundle_preconditions():
    ctx = field_of_order(3)
    good = _forms(ctx, (1, 1), (2, 1), (1,), (1, 0, 1))
    dpp = (3, 1, 2)  # satisfies d13-d34 = d4-d1 and d24-d34 = d3-d2
    b = build_bundle(good, dpp)
    assert b.degree() == sum(b.splitting_type())

    with pytest.raises(PreconditionViolated):
        build_bundle(_forms(ctx, (0,), (2, 1), (1,), (1, 0, 1)), dpp)
    # a1 and a2 share the zero x = 1
    with pytest.raises(PreconditionViolated):
        build_bundle(_forms(ctx, (2, 1), (2, 1), (1,), (1, 0, 1)), dpp)
    with pytest.raises(PreconditionViolated):
        build_bundle(good, (2, 3, 1))  # degree relations broken
    with pytest.raises(PreconditionViolated):
        build_bundle(good, (-1, 3, -2))
    x = (0, 1)
    with pytest.raises(PreconditionViolated):  # D1 not squarefree
        build_bundle(good, dpp, D=(Divisor({x: 2}), Divisor(), Divisor(), Divisor()),
                     E=(Divisor(),) * 4)
    with pytest.raises(PreconditionViolated):  # D1 meets div(a2)
        build_bundle(good, dpp,
                     D=(Divisor.point((2, 1)), Divisor(), Divisor(), Divisor()),
                     E=(Divisor(),) * 4)
    with pytest.raises(PreconditionViolated):  # E2 not below div(a2)
        build_bundle(good, dpp, D=(Divisor(),) * 4,
                     E=(Divisor(), Divisor.point(x), Divisor(), Divisor()))
    with pytest.raises(ValueError, match="four forms"):
        build_bundle(good[:3], dpp)
    with pytest.raises(PreconditionViolated, match="D1 and E1 share support"):
        build_bundle(good, dpp, D=(Divisor.point(x), Divisor(), Divisor(), Divisor()),
                     E=(Divisor.point(x), Divisor(), Divisor(), Divisor()))
    # a support point must be monic and irreducible: 2x + 1 is not monic,
    # x^2 - 1 = (x - 1)(x + 1) is reducible
    for pt, why in (((1, 2), "not monic"), ((2, 0, 1), "reducible")):
        with pytest.raises(PreconditionViolated, match=why):
            build_bundle(good, dpp, D=(Divisor.point(pt), Divisor(), Divisor(), Divisor()),
                         E=(Divisor(),) * 4)


def test_twist_profile_monotone_and_riemann_roch():
    for q in (2, 3):
        for bundle in sample_bundles(q, scale(ANTICANONICAL, 2), 12, seed=3):
            st = bundle.splitting_type()
            assert st.e1 >= st.e2 >= st.e3
            assert sum(st) == bundle.degree()
            assert bundle.h0(0) - bundle.h1(0) == bundle.degree() + 3
            # h0 of each twist matches the splitting type directly
            for m in (-2, -1, 0, 1, 2):
                want = sum(max(0, e + m + 1) for e in st)
                assert bundle.h0(m) == want


def test_sections_enumeration_matches_h0():
    ctx = field_of_order(2)
    aprime = _forms(ctx, (1, 1), (0, 1), (1,), (1, 1, 1))
    b = build_bundle(aprime, (3, 1, 2))
    secs = b.sections(0)
    assert len(secs) == 2 ** b.h0(0)
    assert len({tuple(f.coeffs if f else None for f in s) for s in secs}) == len(secs)
    # h0(5) = 22: 2^22 sections exceed the 2^20 budget before any is built
    with pytest.raises(BudgetExceeded, match="sections exceed budget"):
        b.sections(5)


def test_hn_statistics_is_deterministic():
    alpha = scale(ANTICANONICAL, 2)
    r1 = hn_statistics(2, alpha, samples=20, seed=11)
    r2 = hn_statistics(2, alpha, samples=20, seed=11)
    assert r1 == r2
    r3 = hn_statistics(2, alpha, samples=20, seed=12)
    assert r1 != r3  # different seed, different draw
    assert sum(r1["splitting"].values()) == 20
    # any sample with h1 > 0 must have bottom slope <= -2
    for key in r1["splitting"]:
        es = tuple(int(x) for x in key.split(","))
        h1 = sum(max(0, -e - 1) for e in es)
        if h1 > 0:
            assert es[2] <= -2


def test_hn_statistics_pinned_draws():
    assert hn_statistics(2, scale(ANTICANONICAL, 2), 20, 11) == {
        "q": 2, "class": [6, -2, -2, -2, -2], "samples": 20, "seed": 11,
        "h1_positive": 16, "h1_positive_fraction": "4/5",
        "excess_e1": {"0": 3, "1": 4, "1/3": 7, "2/3": 5, "4/3": 1},
        "splitting": {"-1,-1,-1": 1, "-1,-1,-2": 3, "-1,-2,-2": 4,
                      "-2,-2,-2": 2, "-2,-2,-3": 2, "0,-1,-1": 1,
                      "0,-1,-2": 4, "0,-2,-2": 1, "0,0,-1": 2},
        "degree": {"-1": 2, "-2": 1, "-3": 5, "-4": 4, "-5": 4, "-6": 2,
                   "-7": 2},
    }
    assert hn_statistics(3, ANTICANONICAL, 15, 4) == {
        "q": 3, "class": [3, -1, -1, -1, -1], "samples": 15, "seed": 4,
        "h1_positive": 15, "h1_positive_fraction": "1",
        "excess_e1": {"0": 3, "1": 1, "1/3": 5, "2/3": 6},
        "splitting": {"-2,-2,-4": 1, "-3,-3,-3": 1, "-3,-3,-4": 2,
                      "-3,-4,-4": 2, "-4,-4,-4": 1, "-4,-4,-5": 3,
                      "-4,-5,-5": 3, "-5,-5,-5": 1, "0,-1,-2": 1},
        "degree": {"-10": 2, "-11": 2, "-12": 1, "-13": 3, "-14": 3,
                   "-15": 1, "-3": 1, "-8": 1, "-9": 1},
    }


def test_guards_survive_python_O():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "from dp5 import bundles\n"
        "from dp5.errors import DP5Error\n"
        "from dp5.gf import field_of_order\n"
        "from dp5.p1 import BinaryForm\n"
        "ctx = field_of_order(3)\n"
        "# two terms of one condition whose degrees disagree\n"
        "bad = bundles._Condition((1,), 0, ((0, (1,), 0, 1), (1, (1,), 1, 1)))\n"
        "one = BinaryForm(ctx, 0, (1,))\n"
        "calls = [(lambda: bundles._twist_rows(ctx, [bad], (0, 0, 0), 0), DP5Error),\n"
        "         (lambda: bundles.build_bundle((one,) * 3, (0, 0, 0)), ValueError)]\n"
        "for call, exc in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except exc:\n"
        "        continue\n"
        "    raise SystemExit('guard vanished')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, (flags, out.stderr)


def test_terms_on_one_block_add_up():
    # two same-sign terms on block 0 act as one term carrying their sum
    ctx = field_of_order(3)
    zf = (1, 0, 1)  # x^2 + 1, irreducible over F_3
    two = _Condition(zf, 1, ((0, (1, 1), 1, 1), (0, (1, 2), 1, 1)))
    one = _Condition(zf, 1, ((0, (2, 0), 1, 1),))
    dpp = (2, 0, 0)
    rows = _twist_rows(ctx, [two], dpp, 0)[3]
    assert rows == _twist_rows(ctx, [one], dpp, 0)[3]
    assert any(rows[0]) and any(rows[1])  # the finite rows, mod zf


def test_plucker_kernel_validates_its_quadruple():
    ctx = field_of_order(3)
    # a1 and a2 share the zero x = 1
    shared = _forms(ctx, (2, 1), (2, 1), (1,), (1, 0, 1))
    with pytest.raises(PreconditionViolated):
        plucker_kernel(shared, (3, 1, 2))


def test_hn_statistics_with_no_samples():
    alpha = scale(ANTICANONICAL, 2)
    assert hn_statistics(3, alpha, 0, 5) == {
        "q": 3, "class": list(alpha), "samples": 0, "seed": 5,
        "h1_positive": 0, "h1_positive_fraction": "0",
        "excess_e1": {}, "splitting": {}, "degree": {},
    }
    with pytest.raises(NotInEffDual):
        hn_statistics(3, CurveClass(0, 1, 0, 0, 0), 0, 5)


def test_sample_bundles_refuses_after_its_attempt_budget(monkeypatch):
    from dp5 import bundles

    # -K needs four pairwise coprime linear forms, and F_2 has three points
    monkeypatch.setattr(bundles, "_ATTEMPT_BUDGET", 50)
    with pytest.raises(BudgetExceeded, match="51 draws without 1 valid samples"):
        list(sample_bundles(2, ANTICANONICAL, 1, seed=0))
