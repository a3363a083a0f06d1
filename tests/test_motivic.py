"""Truncated integer series in u: ring laws, Witt exponents, the motivic
constant's frozen prefix, and the exact local identities."""

import json
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dp5.errors import DegenerateK, NonUnit
from dp5.motivic import (
    LOCAL_FACTOR_COEFFS,
    SeriesL,
    divisor_class_p1,
    gen_binom,
    kapranov_inverse_at,
    local_identity_checks,
    mobius_motivic_p1,
    motivic_constant,
    witt_exponents,
)

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "golden.json")
                    .read_text(encoding="utf-8"))


def _rand_series(rng, trunc):
    return SeriesL(trunc, tuple(rng.randrange(-9, 10) for _ in range(trunc)))


def test_ring_laws():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randrange(1, 9)
        a, b, c = (_rand_series(rng, n) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == SeriesL(n, (0,) * n)
        assert a * SeriesL.one(n) == a


def test_mixed_truncations_are_rejected():
    # arithmetic demands equal truncation orders; narrow explicitly first
    a = SeriesL(5, (1, 2, 3, 4, 5))
    b = SeriesL(3, (1, 1, 1))
    with pytest.raises(AssertionError):
        a * b
    assert a.truncate(3) * b == SeriesL(3, (1, 3, 6))
    assert a.truncate(2).coeffs == (1, 2)


def test_invert():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randrange(1, 9)
        coeffs = [rng.choice((1, -1))] + [rng.randrange(-5, 6) for _ in range(n - 1)]
        s = SeriesL(n, tuple(coeffs))
        assert s * s.invert() == SeriesL.one(n)
    with pytest.raises(NonUnit):
        SeriesL(3, (2, 0, 0)).invert()
    with pytest.raises(NonUnit):
        SeriesL(3, (0, 1, 0)).invert()


def test_pow_binomial_path_matches_repeated_multiplication():
    n = 12
    base = SeriesL.one(n) - SeriesL.monomial(n, 1, 3)  # 1 - u^3, binomial shape
    dense = SeriesL(n, tuple(range(1, n + 1)))  # generic shape
    for s in (base, dense):
        for e in (0, 1, 2, 5, 7):
            prod = SeriesL.one(n)
            for _ in range(e):
                prod = prod * s
            assert s.pow(e) == prod
    # negative exponent via inversion
    assert base.pow(-2) * base.pow(2) == SeriesL.one(n)
    # only the binomial path takes exponents above 10^6
    assert base.pow(10**6 + 1).coeffs[3] == -(10**6 + 1)
    with pytest.raises(ValueError, match="too large"):
        dense.pow(10**6 + 1)


def test_gen_binom():
    for e in (-4, -1, 0, 2, 6):
        for j in range(6):
            # matches the generating-function definition of (1+x)^e
            from math import comb

            if e >= 0:
                want = comb(e, j) if j <= e else 0
            else:
                want = (-1) ** j * comb(-e + j - 1, j)
            assert gen_binom(e, j) == want
        assert gen_binom(e, -1) == 0


def test_substitute_and_shift():
    s = SeriesL(4, (1, 2, 3, 4))
    assert s.substitute(2).coeffs == (1, 0, 2, 0)
    # L^j = u^(-j): positive j shifts left and must not destroy coefficients
    assert s.shift_L(-1).coeffs == (0, 1, 2, 3)
    assert SeriesL(4, (0, 0, 5, 6)).shift_L(2).coeffs == (5, 6)
    with pytest.raises(ValueError):
        s.shift_L(1)
    with pytest.raises(ValueError, match="whole truncation window"):
        SeriesL(4, (0, 0, 0, 0)).shift_L(4)
    assert s.at(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4) + Fraction(4, 8)


def test_kapranov_inverse_at():
    k3 = kapranov_inverse_at(3, 8)
    one = SeriesL.one(8)
    u = SeriesL.monomial(8, 1, 1)
    assert k3 == (one - u.pow(3)) * (one - u.pow(2))
    with pytest.raises(DegenerateK):
        kapranov_inverse_at(1, 8)
    with pytest.raises(ValueError, match="k must be"):
        kapranov_inverse_at(0, 8)


def test_mobius_motivic_and_divisor_classes():
    f0, f1, f2 = mobius_motivic_p1()
    assert (f0, f1, f2) == ((1,), (-1, -1), (0, 1))
    assert divisor_class_p1(3) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        divisor_class_p1(-1)


def test_witt_exponents_frozen():
    e = witt_exponents(LOCAL_FACTOR_COEFFS, 8)
    assert e[1] == 0
    assert e[2:] == [14, -35, 126, -504, 2030, -8280, 34650]
    with pytest.raises(ValueError, match="constant term 1"):
        witt_exponents((2, 1), 4)


def test_witt_round_trip_high_order():
    n = 16
    e = witt_exponents(LOCAL_FACTOR_COEFFS, n - 1)
    prod = SeriesL.one(n)
    for k in range(1, n):
        prod = prod * (SeriesL.one(n) - SeriesL.monomial(n, 1, k)).pow(e[k])
    want = LOCAL_FACTOR_COEFFS + (0,) * (n - len(LOCAL_FACTOR_COEFFS))
    assert prod == SeriesL(n, want)


def test_motivic_constant_frozen_prefix():
    g = GOLDEN["motivic_prefix"]
    s = motivic_constant(g["trunc"])
    assert list(s.coeffs) == g["coeffs"]
    assert s.coeffs[0] == 1


def test_motivic_constant_agrees_with_euler_product_at_small_u():
    # far inside the convergence region the truncation error is tiny, so the
    # series value must land inside the certified interval of the analytic
    # constant (computed by a wholly different route)
    from dp5.constants import leading_constant_direct

    c = leading_constant_direct(101)
    val = motivic_constant(40).at(Fraction(1, 101))
    # terms shrink like (24/101)^n beyond the frozen prefix
    tail = Fraction(24, 101) ** 41 / (1 - Fraction(24, 101))
    assert abs(val - c.mid) <= c.rad + tail + Fraction(1, 10**15)


def test_local_identity_checks_all_pass():
    checks = local_identity_checks()
    assert checks["all"] is True
    assert all(v for k, v in checks.items())


def test_local_identity_checks_report_a_wrong_exponent(monkeypatch):
    from dp5 import motivic

    exponent = motivic._pattern_exponent

    def off_by_one(eps):
        return exponent(eps) + (eps == (1, 1, 1, 1))

    monkeypatch.setattr(motivic, "_pattern_exponent", off_by_one)
    checks = local_identity_checks()
    assert checks["pattern16"] is False
    assert checks["all"] is False


def _motivic_constant_by_products(n):
    """The product formula, factor by factor with SeriesL.pow."""
    e = witt_exponents(LOCAL_FACTOR_COEFFS, n)
    one = SeriesL.one(n)
    s = (one - SeriesL.monomial(n, 1, 1)).pow(-5)
    for k in range(2, n + 1):
        s = s * (one - SeriesL.monomial(n, 1, k - 1)).pow(e[k])
        if k < n:
            s = s * (one - SeriesL.monomial(n, 1, k)).pow(e[k])
    return s


def test_motivic_constant_equals_the_product_formula():
    for n in range(1, 81):
        assert motivic_constant(n) == _motivic_constant_by_products(n)


def test_witt_exponents_against_divisor_sums():
    K = 300
    f = LOCAL_FACTOR_COEFFS
    # power sums by Newton's identity, every term written out
    p = [0] * (K + 1)
    for m in range(1, K + 1):
        s = m * (f[m] if m < len(f) else 0)
        for j in range(1, min(m, len(f))):
            s += f[j] * p[m - j]
        p[m] = -s
    # sum_{d|k} d e_d = p_k, solved for e_k by trial division
    want = [0] * (K + 1)
    for k in range(1, K + 1):
        rest = p[k] - sum(d * want[d] for d in range(1, k) if k % d == 0)
        assert rest % k == 0
        want[k] = rest // k
    assert witt_exponents(f, K) == want
    for k in (1, 2, 7, 30, 299):
        assert witt_exponents(f, k) == want[: k + 1]


def test_witt_integrality_check_is_not_an_assert(monkeypatch):
    from dp5 import motivic
    from dp5.cli import main
    from dp5.errors import NonExactDivision

    with pytest.raises(NonExactDivision, match="Witt exponent"):
        witt_exponents((1, Fraction(1, 2)), 3)
    monkeypatch.setattr(motivic, "LOCAL_FACTOR_COEFFS", (1, Fraction(1, 2)))
    assert main(["motivic", "--trunc", "4"]) == 1


def test_motivic_division_check_is_not_an_assert(monkeypatch):
    from dp5 import motivic
    from dp5.cli import main
    from dp5.errors import NonExactDivision

    # e_2 = 1/2 makes c_1 = e_2 - 5 and hence s_1 = -c_1 non-integral
    monkeypatch.setattr(motivic, "witt_exponents",
                        lambda f, K: [0, 0, Fraction(1, 2)] + [0] * (K - 2))
    with pytest.raises(NonExactDivision, match="motivic coefficient 1"):
        motivic_constant(4)
    assert main(["motivic", "--trunc", "4"]) == 1


def test_truncation_check_survives_python_O():
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "from dp5.motivic import SeriesL\n"
        "a, b = SeriesL(3, (1, 2, 3)), SeriesL(5, (1, 1, 1, 1, 1))\n"
        "for call, exc in ((lambda: a + b, ValueError),\n"
        "                  (lambda: a * b, ValueError),\n"
        "                  (lambda: a - 1, TypeError)):\n"
        "    try:\n"
        "        call()\n"
        "    except exc:\n"
        "        continue\n"
        "    raise SystemExit('check vanished')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_input_checks_raise_value_error_under_python_O():
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "from dp5.motivic import SeriesL, divisor_class_p1, witt_exponents\n"
        "a = SeriesL(3, (1, 2, 3))\n"
        "calls = [lambda: a.substitute(0), lambda: a.truncate(4),\n"
        "         lambda: divisor_class_p1(-1),\n"
        "         lambda: witt_exponents((2, 1), 3)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('check vanished')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_series_refuse_bad_orders_and_operands():
    s = SeriesL(3, (1, 2))
    with pytest.raises(ValueError, match="truncation order must be >= 1"):
        SeriesL(0, ())
    with pytest.raises(TypeError, match="cannot combine SeriesL with int"):
        s + 1
    with pytest.raises(ValueError, match=r"u -> u\^0 needs k >= 1"):
        s.substitute(0)
    with pytest.raises(ValueError, match=r"cannot truncate O\(u\^3\) to O\(u\^5\)"):
        s.truncate(5)
