"""Certified interval evaluation of the leading constant: interval helpers,
curve zeta data, and agreement of the two independent strategies."""

import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dp5.constants import (
    CertifiedReal,
    CurveZeta,
    _exp_interval,
    _log1p_interval,
    curve_from_weil,
    leading_constant_direct,
    leading_constant_zeta,
    local_factor,
    projective_line,
)
from dp5.errors import Diverges, NegativePointCount, TargetUnreachable
from dp5.motivic import LOCAL_FACTOR_COEFFS

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "golden.json")
                    .read_text(encoding="utf-8"))


def test_certified_real_basics():
    c = CertifiedReal(Fraction(1, 2), Fraction(1, 100))
    assert c.contains(Fraction(1, 2)) and c.contains(Fraction(51, 100))
    assert not c.contains(Fraction(52, 100))
    d = CertifiedReal(Fraction(52, 100), Fraction(1, 100))
    assert c.overlaps(d)
    assert not c.overlaps(CertifiedReal(Fraction(9, 10), Fraction(1, 100)))
    assert abs(c.to_float() - 0.5) < 1e-15


def test_log1p_interval_against_float_log():
    rng = random.Random(7)
    tol = Fraction(1, 10**20)
    for _ in range(50):
        w = Fraction(rng.randrange(-400, 401), 1000)
        mid, rad = _log1p_interval(w, tol)
        assert rad <= tol
        assert abs(float(mid) - math.log1p(float(w))) < 1e-12


def test_exp_interval_against_float_exp():
    rng = random.Random(8)
    tol = Fraction(1, 10**20)
    for _ in range(50):
        m = Fraction(rng.randrange(-3000, 1001), 1000)
        r = Fraction(1, 10**18)
        mid, rad = _exp_interval(m, r, tol)
        assert abs(float(mid) - math.exp(float(m))) < 1e-9
        assert rad < Fraction(1, 10**15)


def test_local_factor_matches_coefficient_expansion():
    for num, den in ((0, 1), (1, 2), (1, 3), (2, 7), (1, 101)):
        x = Fraction(num, den)
        horner = Fraction(0)
        for c in reversed(LOCAL_FACTOR_COEFFS):
            horner = horner * x + c
        assert local_factor(x) == horner
    assert local_factor(Fraction(0)) == 1
    assert local_factor(Fraction(1)) == 0


def test_curve_zeta_projective_line():
    z = projective_line(2)
    assert z.h == 1 and z.g == 0
    assert [z.point_counts(n)[-1] for n in range(1, 5)] == [3, 5, 9, 17]
    assert z.closed_points(6) == [3, 1, 2, 3, 6, 9]


def test_curve_zeta_elliptic():
    # q = 2, P(t) = 1 + 2t^2: supersingular curve with 3 points
    z = curve_from_weil(2, 1, [1, 0, 2])
    assert z.h == 3
    assert z.point_counts(4) == [3, 9, 9, 9]
    assert z.closed_points(3) == [3, 3, 2]


def test_curve_zeta_shape_validation():
    with pytest.raises(ValueError):
        curve_from_weil(2, 1, [2, 0, 2])  # leading coefficient not 1
    with pytest.raises(ValueError):
        curve_from_weil(2, 1, [1, 0, 3])  # functional equation broken
    with pytest.raises(ValueError):
        curve_from_weil(2, 1, [1, 0])  # wrong degree
    with pytest.raises(NegativePointCount):
        curve_from_weil(2, 1, [1, -4, 2])  # P(1) <= 0, no points at all
    # Hasse violation passes shape checks but surfaces at point counting
    z = curve_from_weil(2, 1, [1, 5, 2])
    with pytest.raises(NegativePointCount):
        z.point_counts(2)


def test_leading_constant_direct_frozen_values():
    for qs, entry in GOLDEN["leading_constants"].items():
        q = int(qs)
        c = leading_constant_direct(q)
        assert c.rad <= Fraction(1, 10**12)
        assert abs(c.mid - Fraction(entry["mid"])) <= c.rad + Fraction(1, 10**11)
        assert 0 < c.mid < 1


def test_leading_constant_monotone_in_q():
    mids = [leading_constant_direct(q).mid for q in (2, 3, 4, 5, 7, 8, 9, 11)]
    assert all(a < b for a, b in zip(mids, mids[1:]))
    # approaches 1 from below as the field grows
    c101 = leading_constant_direct(101)
    assert 1 - c101.mid < Fraction(10, 101)


def test_two_strategies_agree():
    for q in (5, 7):
        a = leading_constant_direct(q)
        b = leading_constant_zeta(q)
        assert a.overlaps(b)
        assert abs(a.mid - b.mid) <= a.rad + b.rad


def test_zeta_diverges_for_small_q():
    for q in (2, 3, 4):
        with pytest.raises(Diverges):
            leading_constant_zeta(q)


def test_unreachable_target():
    from dp5.constants import CertifiedReal, _to_target

    with pytest.raises(TargetUnreachable):
        leading_constant_direct(2, target_radius=Fraction(1, 10**200))
    # a run whose radius never shrinks: six passes, each at 1/8 the budget
    budgets = []
    with pytest.raises(TargetUnreachable, match="could not be certified"):
        _to_target(lambda b: budgets.append(b) or CertifiedReal(Fraction(0), Fraction(1)),
                   Fraction(1, 2))
    assert budgets == [Fraction(1, 2 * 8**k) for k in range(6)]


@pytest.mark.parametrize("method, q", [*(("direct", q) for q in (2, 3, 5, 7, 101)),
                                       *(("zeta", q) for q in (5, 7, 101))])
@pytest.mark.parametrize("prec", ["5", "10", "1e400"])
def test_a_target_above_one_is_certified_at_one(method, q, prec):
    # the log sum's radius must stay below 1 for the exp propagation, so a
    # loose target starts from 1; zeta needs q >= 5
    from dp5.cli import main

    constant = {"direct": leading_constant_direct, "zeta": leading_constant_zeta}[method]
    assert constant(q, target_radius=prec).rad <= Fraction(prec)
    assert main(["constant", "--q", str(q), "--method", method, "--prec", prec]) == 0


def test_unreachable_target_message_shows_a_nonzero_radius():
    # float(1/10^400) underflows to 0; the message must still name the target
    tiny = Fraction(1, 10**400)
    for method, q in ((leading_constant_direct, 5), (leading_constant_zeta, 7)):
        with pytest.raises(TargetUnreachable) as info:
            method(q, target_radius=tiny)
        assert "radius 0 " not in str(info.value)
        assert "radius 1e-400 " in str(info.value)


def test_genus_one_curve_both_strategies():
    z = curve_from_weil(7, 1, [1, 0, 7])
    a = leading_constant_direct(7, curve=z)
    b = leading_constant_zeta(7, curve=z)
    assert a.overlaps(b)
    # h = 8 and g = 1 rescale the prefactor
    assert a.mid > leading_constant_direct(7).mid


def test_explicit_k_zeta_reports_honest_radius():
    c_loose = leading_constant_zeta(7, K=12)
    c_tight = leading_constant_zeta(7)
    assert c_loose.rad > c_tight.rad
    assert abs(c_loose.mid - c_tight.mid) <= c_loose.rad + c_tight.rad
    with pytest.raises(TargetUnreachable):
        leading_constant_zeta(7, K=4)  # tail still bigger than 1 in the exponent


def test_curve_zeta_validates_q_without_field_tables(monkeypatch):
    from dp5.errors import NotPrime, TooLarge
    from dp5.gf import FieldCtx

    def no_tables(self):
        raise AssertionError("field tables were built")

    monkeypatch.setattr(FieldCtx, "_build_tables", no_tables)
    assert curve_from_weil(65521, 0, (1,)).closed_points(2) == [
        65522, (65521**2 - 65521) // 2]
    with pytest.raises(NotPrime):
        curve_from_weil(6, 0, (1,))
    with pytest.raises(TooLarge):
        curve_from_weil(1 << 17, 0, (1,))


def test_interval_guards_are_not_asserts(monkeypatch):
    from dp5 import constants
    from dp5.cli import main
    from dp5.errors import DP5Error

    tol = Fraction(1, 10**6)
    with pytest.raises(DP5Error, match="log1p"):
        _log1p_interval(Fraction(-1), tol)
    with pytest.raises(DP5Error, match="exp interval"):
        _exp_interval(Fraction(0), Fraction(1), tol)

    with monkeypatch.context() as mp:
        mp.setattr(constants, "local_factor", lambda x: Fraction(3))
        with pytest.raises(DP5Error, match="log1p"):
            leading_constant_direct(5)
        assert main(["constant", "--q", "5", "--method", "direct"]) == 1

    monkeypatch.setattr(constants, "_log1p_interval",
                        lambda w, tol: (Fraction(0), Fraction(1)))
    with pytest.raises(DP5Error, match="exp interval"):
        leading_constant_direct(5)
    assert main(["constant", "--q", "5", "--method", "direct"]) == 1


def test_guards_survive_python_O():
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "from fractions import Fraction as F\n"
        "from dp5 import constants, motivic, picard\n"
        "from dp5.errors import DP5Error\n"
        "picard.ANTICANONICAL = picard.CurveClass(3, -1, -1, -1, 0)\n"
        "calls = [lambda: constants._log1p_interval(F(2), F(1, 9)),\n"
        "         lambda: constants._exp_interval(F(0), F(2), F(1, 9)),\n"
        "         lambda: picard.degree_data(picard.CurveClass(0, 0, 0, 0, 1)),\n"
        "         lambda: motivic.witt_exponents((1, F(1, 2)), 2)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except DP5Error:\n"
        "        continue\n"
        "    raise SystemExit('guard vanished')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_input_checks_are_invalid_input_also_under_python_O():
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "from dp5.cli import main\n"
        "from dp5.constants import (leading_constant_direct,\n"
        "                           leading_constant_zeta, projective_line)\n"
        "for prec in ('0', '1/0'):\n"
        "    codes = [main(['constant', '--q', '5', '--prec', prec, '--method', m])\n"
        "             for m in ('direct', 'zeta')]\n"
        "    if codes != [2, 2]:\n"
        "        raise SystemExit(f'--prec {prec} exits {codes}')\n"
        "for constant in (leading_constant_direct, leading_constant_zeta):\n"
        "    try:\n"
        "        constant(5, curve=projective_line(7))\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('a curve over F_7 was accepted at q = 5')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, (flags, out.stderr)


# Reference: the all-Fraction evaluation the integer grid replaced.  Each
# rounding is done on a Fraction and its exact error joins the radius, so
# the integer path must reproduce (mid, rad) exactly, not just overlap.

def _ref_log1p(w, tol):
    aw = abs(w)
    s, wpow, j = Fraction(0), Fraction(1), 0
    while True:
        j += 1
        wpow *= w
        s += wpow / j if j % 2 else -wpow / j
        tail = aw ** (j + 1) / ((j + 1) * (1 - aw))
        if tail <= tol:
            return s, tail


def _ref_round(x, bits):
    scaled = x * (1 << bits)
    n = round(scaled)
    return Fraction(n, 1 << bits), abs(Fraction(n) - scaled) / (1 << bits)


def _ref_up(x, bits):
    return Fraction(-((-x.numerator * (1 << bits)) // x.denominator), 1 << bits)


def _ref_to_target(run, target):
    budget = target
    for passes in range(1, 7):
        out = run(budget)
        if out.rad <= target:
            return out, passes
        budget /= 8
    raise TargetUnreachable("reference")


def _ref_finish(s_mid, s_rad, pf, budget, bits):
    ev = _exp_interval(s_mid, s_rad, budget / (8 * pf))
    mid, re = _ref_round(pf * ev.mid, bits)
    return CertifiedReal(mid, pf * ev.rad + re)


def _ref_direct(q, curve, target):
    from dp5.constants import _prefactor, _required_bits

    g = curve.g

    def tail_bound(n):
        x0 = Fraction(1, q ** (n + 1))
        return (Fraction(15) / (1 - x0) * (2 + 2 * g) * Fraction(1, q**n)
                / ((n + 1) * (q - 1)))

    n_min = 1
    while q ** (n_min + 1) < 15:
        n_min += 1
    pf = _prefactor(curve)

    def run(budget):
        n = n_min
        while tail_bound(n) > budget / 4:
            n += 1
        counts = curve.closed_points(n)
        bits = _required_bits(budget, n)
        per_term = budget / (16 * n)
        s_mid, s_rad = Fraction(0), _ref_up(tail_bound(n), bits)
        for m in range(1, n + 1):
            a = counts[m - 1]
            if a == 0:
                continue
            w = local_factor(Fraction(1, q**m)) - 1
            lm, lr = _ref_log1p(w, per_term / a)
            rm, re = _ref_round(a * lm, bits)
            s_mid += rm
            s_rad += _ref_up(a * lr, bits) + re
        return _ref_finish(s_mid, s_rad, pf, budget, bits)

    return _ref_to_target(run, target)


def _ref_zeta(q, curve, target, K=None):
    from dp5.constants import _prefactor, _required_bits
    from dp5.motivic import witt_exponents

    g = curve.g
    r = Fraction(24, 5 * q)
    cgeom = 2 * (Fraction(3, 2) + Fraction(11, 5) * g) * q
    pf = _prefactor(curve)

    def run(budget):
        kk = K
        if kk is None:
            kk, rpow = 2, r**3
            while cgeom * rpow / (1 - r) > budget / 4:
                kk += 1
                rpow *= r
        e = witt_exponents(LOCAL_FACTOR_COEFFS, kk)
        bits = _required_bits(budget, 3 * kk)
        s_mid = Fraction(0)
        s_rad = _ref_up(cgeom * r ** (kk + 1) / (1 - r), bits)
        for k in range(2, kk + 1):
            ek = e[k]
            if ek == 0:
                continue
            t = Fraction(1, q**k)
            tol = budget / (48 * kk * abs(ek))
            lz_mid, lz_rad = Fraction(0), Fraction(0)
            pt = sum(c * t**j for j, c in enumerate(curve.weil))
            for w, sign in ((pt - 1, 1), (-t, -1), (-q * t, -1)):
                lm, lr = _ref_log1p(w, tol) if w else (0, 0)
                lz_mid += sign * lm
                lz_rad += lr
            rm, re = _ref_round(-ek * lz_mid, bits)
            s_mid += rm
            s_rad += _ref_up(abs(ek) * lz_rad, bits) + re
        return _ref_finish(s_mid, s_rad, pf, budget, bits)

    if K is not None:
        return run(target), 1
    return _ref_to_target(run, target)


def _counting_passes(monkeypatch):
    from dp5 import constants

    passes = []
    real = constants._to_target

    def counted(run, target):
        def one_pass(budget):
            passes.append(budget)
            return run(budget)
        return real(one_pass, target)

    monkeypatch.setattr(constants, "_to_target", counted)
    return passes


_E1 = curve_from_weil(7, 1, [1, 0, 7])
# h = 100 and c about 10.66: the first pass overshoots, so _to_target retries
_G2 = curve_from_weil(5, 2, [1, 8, 26, 40, 25])
_EXACT_CASES = (
    [("direct", q, None, None, Fraction(1, 10**13))
     for q in (2, 3, 4, 5, 7, 8, 9, 11, 101, 65521)]
    + [("zeta", q, None, None, Fraction(1, 10**13))
       for q in (5, 7, 8, 9, 11, 101, 65521)]
    + [("direct", 7, _E1, None, Fraction(1, 10**13)),
       ("zeta", 7, _E1, None, Fraction(1, 10**13)),
       ("zeta", 7, None, 12, Fraction(1, 10**13)),
       ("direct", 5, None, None, Fraction(1, 10**30)),
       ("zeta", 7, None, None, Fraction(1, 10**30)),
       ("direct", 5, _G2, None, Fraction(1, 10**13)),
       ("zeta", 5, _G2, None, Fraction(1, 10**13))]
)


@pytest.mark.parametrize(
    "method,q,curve,K,target", _EXACT_CASES,
    ids=[f"{m}-q{q}" + (f"-g{c.g}" if c else "") + (f"-K{k}" if k else "")
         + f"-tol{t.denominator.bit_length()}b" for m, q, c, k, t in _EXACT_CASES])
def test_integer_grid_matches_fraction_reference(monkeypatch, method, q, curve,
                                                 K, target):
    base = projective_line(q) if curve is None else curve
    passes = _counting_passes(monkeypatch)
    if method == "direct":
        got = leading_constant_direct(q, curve=curve, target_radius=target)
        want, want_passes = _ref_direct(q, base, target)
    else:
        got = leading_constant_zeta(q, curve=curve, K=K, target_radius=target)
        want, want_passes = _ref_zeta(q, base, target, K)
    assert (got.mid, got.rad) == (want.mid, want.rad)
    if K is None:
        assert len(passes) == want_passes


def test_log1p_interval_matches_fraction_series():
    rng = random.Random(11)
    ws = [Fraction(rng.randrange(-999, 1000), 1000) for _ in range(40)]
    ws += [Fraction(-rng.randrange(1, 10**6), 10**6 + rng.randrange(1, 9))
           for _ in range(10)]
    ws += [Fraction(s * (b - 1), b) for s in (1, -1) for b in (10, 17)]
    for q, m in ((2, 1), (3, 2), (5, 1), (7, 3), (101, 1)):
        ws.append(local_factor(Fraction(1, q**m)) - 1)
        ws.append(Fraction(rng.randrange(1, q ** (7 * m)), q ** (7 * m)))
        ws.append(-Fraction(rng.randrange(1, q ** (7 * m)), q ** (7 * m)))
    tols = (Fraction(1, 10**6), Fraction(1, 10**13), Fraction(3, 7 * 2**70))
    for w in ws:
        tol = rng.choice(tols)
        assert _log1p_interval(w, tol) == _ref_log1p(w, tol), (w, tol)
    assert _log1p_interval(Fraction(0), Fraction(1, 9)) == (0, 0)


def test_grid_rounds_like_fraction_round_and_ceil():
    from dp5.constants import _Grid

    rng = random.Random(5)
    bits = 8
    step = 1 << bits
    # exact ties first: round() takes them to the even neighbour
    xs = [Fraction(2 * k + 1, 2 * step) for k in range(-4, 4)]
    xs += [Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
           for _ in range(200)]
    grid, mid, rad = _Grid(bits), Fraction(0), Fraction(0)
    for x in xs:
        grid.add(x.numerator, x.denominator)
        n = round(x * step)
        mid += Fraction(n, step)
        rad += abs(n - x * step) / step
    assert grid.value() == (mid, rad)

    cases = [[(1, 3)] * 3, [(1, 2**80), (1, 2**90)], [(1, 2**80)] * 3,
             [(2**70, 3 * 2**80), (1, 7)], [(0, 5), (0, 9)]]
    for _ in range(300):
        cases.append([(rng.randrange(0, 10**a), rng.randrange(1, 10**b))
                      for a, b in ((rng.randrange(1, 40), rng.randrange(1, 40))
                                   for _ in range(rng.randrange(1, 4)))])
    for parts in cases:
        up = _Grid(bits)
        up.add_up(*parts)
        assert up.rad == math.ceil(sum(Fraction(n, d) for n, d in parts) * step)


@pytest.mark.parametrize("constant", [leading_constant_direct, leading_constant_zeta])
def test_constants_refuse_a_zero_radius_and_a_curve_over_another_field(constant):
    with pytest.raises(ValueError, match="target radius must be positive, got 0"):
        constant(5, target_radius=0)
    with pytest.raises(ValueError, match="curve is over F_7, not F_5"):
        constant(5, curve=projective_line(7))
