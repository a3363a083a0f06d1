"""Sections of O(d) on the projective line: polynomial helpers, divisors,
factorization, and the closed-point counts they must reproduce."""

import json
import os
import random
import subprocess
import sys

import pytest

from dp5.errors import BudgetExceeded, ZeroForm
from dp5.gf import field_of_order
from dp5.p1 import (
    INF,
    BinaryForm,
    Divisor,
    divisor_count,
    divisor_of,
    enumerate_sections,
    factor_poly,
    form_from_index,
    forms_coprime,
    irreducibles,
    pdeg,
    pdivmod,
    pgcd,
    pmonic,
    pmul,
    point_degree,
    points_by_degree,
    pscale,
    pstrip,
)


def _rand_poly(rng, q, dmax):
    # polys travel pstripped (no trailing zeros) throughout the package
    d = rng.randrange(dmax + 1)
    return pstrip(tuple(rng.randrange(q) for _ in range(d + 1)))


def test_pdivmod_round_trip():
    for q in (2, 3, 4, 5):
        ctx = field_of_order(q)
        rng = random.Random(q * 11)
        for _ in range(100):
            a = _rand_poly(rng, q, 7)
            b = _rand_poly(rng, q, 4)
            if not b:
                continue
            qt, r = pdivmod(ctx, a, b)
            prod = pmul(ctx, qt, b)
            total = list(prod) + [0] * (len(a) - len(prod))
            for i, c in enumerate(r):
                total[i] = ctx.add(total[i], c)
            assert pstrip(tuple(total)) == pstrip(a)
            assert pdeg(r) < pdeg(b)
        with pytest.raises(ZeroDivisionError):
            pdivmod(ctx, (1, 1), ())
        assert pscale(ctx, (1, 1), 0) == ()


def test_pgcd_divides_both():
    ctx = field_of_order(3)
    rng = random.Random(5)
    for _ in range(80):
        a = _rand_poly(rng, 3, 6)
        b = _rand_poly(rng, 3, 6)
        if not a or not b:
            continue
        g = pgcd(ctx, a, b)
        for x in (a, b):
            _, r = pdivmod(ctx, x, g)
            assert pdeg(r) < 0
        assert g == pmonic(ctx, g)


def test_irreducible_counts_match_necklace_formula():
    # number of monic irreducibles of degree n is (1/n) sum mu(k) q^(n/k)
    expected = {2: [2, 1, 2, 3, 6, 9], 3: [3, 3, 8, 18], 4: [4, 6, 20, 60]}
    for q, counts in expected.items():
        ctx = field_of_order(q)
        irr = irreducibles(ctx, len(counts))
        for n, want in enumerate(counts, start=1):
            assert sum(1 for p in irr if pdeg(p) == n) == want
            assert points_by_degree(q, n) == want + (1 if n == 1 else 0)


def test_irreducibles_match_trial_division():
    from itertools import product

    from dp5.p1 import pmod

    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_of_order(q)
        monic = {d: [tuple(c) + (1,) for c in product(range(q), repeat=d)]
                 for d in range(4)}
        for d in monic:  # lex order: the highest lower coefficient first
            monic[d].sort(key=lambda f: f[::-1])
        want = [f for d in (1, 2, 3) for f in monic[d]
                if not any(not pmod(ctx, f, g)
                           for k in range(1, d // 2 + 1) for g in monic[k])]
        assert irreducibles(ctx, 3) == want, q


def test_irreducible_counts_match_points_by_degree():
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        irr = irreducibles(field_of_order(q), 4)
        for n in range(1, 5):
            got = sum(1 for f in irr if pdeg(f) == n)
            assert got + (n == 1) == points_by_degree(q, n), (q, n)
        with pytest.raises(ValueError):
            points_by_degree(q, 0)


def test_factor_poly_reconstructs_input():
    for q in (2, 3, 4):
        ctx = field_of_order(q)
        rng = random.Random(q)
        irr = {tuple(p) for p in irreducibles(ctx, 6)}
        for _ in range(60):
            a = _rand_poly(rng, q, 6)
            if pdeg(a) < 1:
                continue
            fac = factor_poly(ctx, a)
            prod = (1,)
            for p, k in fac.items():
                assert tuple(p) in irr
                for _ in range(k):
                    prod = pmul(ctx, prod, p)
            assert prod == pmonic(ctx, a)
        with pytest.raises(ValueError):
            factor_poly(ctx, ())


def test_binary_form_divisor_degree():
    # div(f) has degree d for every nonzero section of O(d)
    ctx = field_of_order(2)
    d = 3
    for i, f in enumerate(enumerate_sections(ctx, d)):
        if i == 0:
            assert f.is_zero()
            with pytest.raises(ZeroForm):
                f.inf_order()
            with pytest.raises(ZeroForm):
                divisor_of(f)
            continue
        dv = divisor_of(f)
        assert dv.degree() == d
        assert dv.mult(INF) == f.inf_order()
    # a negative degree, a coefficient vector of the wrong length, and forms
    # of two degrees added or of two fields multiplied
    with pytest.raises(ValueError):
        BinaryForm(ctx, -1, ())
    with pytest.raises(ValueError):
        BinaryForm(ctx, 2, (1, 1))
    f, g = BinaryForm(ctx, 1, (1, 1)), BinaryForm(ctx, 2, (1, 0, 1))
    with pytest.raises(ValueError, match="do not combine"):
        f + g
    with pytest.raises(ValueError, match="do not combine"):
        f * BinaryForm(field_of_order(3), 1, (1, 1))


def test_forms_coprime_matches_divisors():
    ctx = field_of_order(3)
    forms = [f for f in enumerate_sections(ctx, 2) if not f.is_zero()]
    rng = random.Random(1)
    for _ in range(150):
        f, g = rng.choice(forms), rng.choice(forms)
        want = divisor_of(f).gcd(divisor_of(g)).is_zero()
        assert forms_coprime(f, g) == want
        assert forms_coprime(g, f) == want
    zero = BinaryForm(ctx, 2, (0, 0, 0))
    assert not forms_coprime(zero, forms[0]) and not forms_coprime(forms[0], zero)


def test_divisor_algebra():
    ctx = field_of_order(2)
    x = (0, 1)
    x1 = (1, 1)
    a = Divisor({x: 2, INF: 1})
    b = Divisor({x: 1, x1: 3})
    assert (a + b).degree() == a.degree() + b.degree()
    assert a.gcd(b) == Divisor({x: 1})
    assert a.lcm(b) == Divisor({x: 2, x1: 3, INF: 1})
    assert a.gcd(b).leq(a) and a.leq(a.lcm(b))
    assert not a.disjoint(b) and a.disjoint(Divisor({x1: 1}))
    assert len(a.subdivisors()) == (2 + 1) * (1 + 1)
    assert Divisor({x: 1, INF: 1}).mobius() == 1
    assert Divisor({x: 1}).mobius() == -1
    assert a.mobius() == 0
    with pytest.raises(ValueError):
        Divisor({x: -1})


def test_subdivisors_list_every_subdivisor_once_first_point_fastest():
    from itertools import product

    x, x1, x2 = (0, 1), (1, 1), (1, 1, 1)
    d = Divisor({x: 2, INF: 1, x2: 3})
    pts = [INF, x, x1, x2]
    candidates = [Divisor(dict(zip(pts, ks))) for ks in product(range(4), repeat=4)]
    want = [e for e in candidates if e.leq(d)]
    # the first point of the support (INF here) varies fastest
    want.sort(key=lambda e: [e.mult(pt) for pt in reversed(d.support())])
    assert len(want) == (1 + 1) * (2 + 1) * (3 + 1)
    assert d.subdivisors() == want
    assert Divisor().subdivisors() == [Divisor()]


def test_irreducibles_do_not_depend_on_the_order_degrees_are_asked():
    # each order runs in a fresh interpreter, so it starts from a cold cache
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, sys\n"
        "from dp5.gf import field_of_order\n"
        "from dp5.p1 import irreducibles\n"
        "order = [int(d) for d in sys.argv[1:]]\n"
        "print(json.dumps({q: {d: irreducibles(field_of_order(q), d)\n"
        "                      for d in order} for q in (2, 3, 4)}))\n"
    )
    seen = []
    for order in ((4, 2, 3), (2, 3, 4), (3, 4, 2, 1)):
        out = subprocess.run([sys.executable, "-c", code, *map(str, order)],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        seen.append(json.loads(out.stdout))
    for q in (2, 3, 4):
        ctx = field_of_order(q)
        for d in (2, 3, 4):
            want = [list(f) for f in irreducibles(ctx, d)]
            assert all(got[str(q)][str(d)] == want for got in seen), (q, d)
        assert seen[2][str(q)]["1"] == [list(f) for f in irreducibles(ctx, 1)]


def test_point_degree_and_divisor_count():
    assert point_degree(INF) == 1
    assert point_degree((0, 1)) == 1
    assert point_degree((1, 1, 1)) == 2
    # effective divisors of degree d on P^1 number (q^(d+1)-1)/(q-1)
    for q in (2, 3):
        for d in range(5):
            assert divisor_count(q, d) == (q ** (d + 1) - 1) // (q - 1)


def test_enumerate_sections_budget():
    ctx = field_of_order(3)
    with pytest.raises(BudgetExceeded):
        list(enumerate_sections(ctx, 8, budget=100))
    assert len(list(enumerate_sections(ctx, 2))) == 27


def test_form_from_index_is_a_bijection():
    ctx = field_of_order(4)
    seen = {form_from_index(ctx, 1, i).coeffs for i in range(16)}
    assert len(seen) == 16


def _run_under_python_O(code):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_input_checks_raise_value_error_under_python_O():
    _run_under_python_O(
        "from dp5.gf import field_of_order\n"
        "from dp5.p1 import BinaryForm, factor_poly\n"
        "f2, f3 = field_of_order(2), field_of_order(3)\n"
        "f, g = BinaryForm(f2, 1, (1, 1)), BinaryForm(f2, 2, (1, 0, 1))\n"
        "h = BinaryForm(f3, 1, (1, 1))\n"
        "calls = [lambda: f * h, lambda: f + g, lambda: f - g,\n"
        "         lambda: factor_poly(f2, ())]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('check vanished')\n"
    )


def test_invariant_checks_raise_dp5error_under_python_O():
    # each check is made to fail by breaking what it relies on
    _run_under_python_O(
        "from dp5 import gf, p1, picard\n"
        "from dp5.errors import DP5Error\n"
        "gf.FieldCtx._raw_mul = lambda self, a, b: 0\n"
        "p1.mobius_inversion = lambda values: [1] * len(values)\n"
        "picard.meets = lambda a, b: False\n"
        "calls = [lambda: gf.FieldCtx(5), lambda: p1.points_by_degree(2, 2),\n"
        "         picard._frames,\n"
        "         lambda: picard._frame_perm(('E1', 'E2', 'E3', 'E4'))]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except DP5Error:\n"
        "        continue\n"
        "    raise SystemExit('check vanished')\n"
    )
