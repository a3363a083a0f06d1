"""Certified interval evaluation of the leading constant: interval helpers,
curve zeta data, and agreement of the two independent strategies."""

import json
import math
import os
import random
from fractions import Fraction

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

GOLDEN = json.load(open(os.path.join(os.path.dirname(__file__),
                                     "fixtures", "golden.json")))


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
    with pytest.raises(TargetUnreachable):
        leading_constant_direct(2, target_radius=Fraction(1, 10**200))


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
        "codes = [main(['constant', '--q', '5', '--prec', '0', '--method', m])\n"
        "         for m in ('direct', 'zeta')]\n"
        "if codes != [2, 2]:\n"
        "    raise SystemExit(f'--prec 0 exits {codes}')\n"
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
