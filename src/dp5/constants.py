"""Certified evaluation of the leading constant.

The constant attached to a smooth projective curve C over F_q (default: the
projective line) is

    c = (q^{-g} h / (1 - q^{-1}))^5 * prod_v F(q_v^{-1}),

a product over the closed points v of C, with local factor
F(x) = (1-x)^5 (1+5x+x^2) and h the class number.  Everything is exact
rational arithmetic with explicit error intervals: a result is a
CertifiedReal (mid, rad) with the true value guaranteed inside
[mid - rad, mid + rad].

Two independent evaluation strategies are provided.

* direct: accumulate a_n * log F(q^{-n}) over point degrees n <= N, where
  a_n counts closed points of degree n.  The tail over n > N is bounded via
  |log F(x)| <= 15 x^2/(1-x), valid once x <= 1/15, which forces
  q^{N+1} >= 15 before the tail bound may be applied.

* zeta: write F(x) = prod_k (1-x^k)^{e_k} with integer (Witt) exponents;
  the Euler product then collapses to prod_{k>=2} Z_C(q^{-k})^{-e_k} with
  Z_C the zeta function of C.  Since |e_k| <= 2*(24/5)^k the series only
  converges for q >= 5; smaller q raises Diverges.

Each logarithm log(1 + a/b) is its alternating series, summed exactly as
one integer over b^J lcm(1..J).  The logarithms are summed on a dyadic grid
2^-bits as integer counts of steps, since exact sums would pile up
denominators q^{7n} or q^k - 1 into an lcm explosion.  A midpoint term is
rounded to the nearest step, half to even, and its exact rounding error
joins the radius; those errors are summed in integers over one common
denominator.  A radius term is rounded up to the next step.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import DP5Error, Diverges, NegativePointCount, TargetUnreachable
from .gf import mobius_inversion, prime_power
from .motivic import LOCAL_FACTOR_COEFFS, power_sums, witt_exponents

_N_CAP = 64
_K_CAP = 2000


class CertifiedReal(NamedTuple):
    mid: Fraction
    rad: Fraction

    def to_float(self) -> float:
        return float(self.mid)

    def contains(self, x) -> bool:
        return abs(Fraction(x) - self.mid) <= self.rad

    def overlaps(self, other: "CertifiedReal") -> bool:
        return abs(self.mid - other.mid) <= self.rad + other.rad

    def __repr__(self):
        return f"CertifiedReal({float(self.mid):.17g} +/- {float(self.rad):.3g})"


class _Grid:
    """A sum kept on the dyadic grid 2^-bits in integers.

    mid and rad count grid steps.  The errors of rounding mid terms are kept
    exactly, as rem/(den 2^bits) over one common denominator den.
    """

    __slots__ = ("bits", "mid", "rad", "rem", "den")

    def __init__(self, bits: int):
        self.bits = bits
        self.mid = self.rad = self.rem = 0
        self.den = 1

    def add(self, num: int, den: int) -> None:
        """Add num/den (den > 0), rounded half to even as round() does."""
        n, r = divmod(num << self.bits, den)
        if 2 * r > den or (2 * r == den and n & 1):
            n, r = n + 1, den - r
        self.mid += n
        lcm = math.lcm(self.den, den)
        self.rem = self.rem * (lcm // self.den) + r * (lcm // den)
        self.den = lcm

    def add_up(self, *parts) -> None:
        """Add the sum of n/d over parts (n >= 0, d > 0), rounded up as a whole."""
        num, den = 0, 1
        for n, d in parts:
            num, den = num * d + n * den, den * d
        self.rad -= -(num << self.bits) // den

    def value(self):
        """(mid, rad) as Fractions."""
        return (Fraction(self.mid, 1 << self.bits),
                Fraction(self.rad * self.den + self.rem, self.den << self.bits))


def _log1p_series(a: int, b: int, tn: int, td: int):
    """log(1 + a/b), b > 0, summed until the tail bound is <= tn/td.

    Returns (n, d, en, ed): the j terms sum to n/d, d = b^j lcm(1..j), and
    the tail is at most en/ed = |a/b|^(j+1) / ((j+1)(1 - |a/b|)).
    """
    aa = abs(a)
    if aa >= b:
        raise DP5Error(f"log1p series requires |w| < 1, got |w| = {aa / b:.3g}")
    n, j, l, apow, bpow = 0, 0, 1, 1, 1
    while True:
        j += 1
        lj = math.lcm(l, j)
        apow, bpow = apow * a, bpow * b
        n = n * b * (lj // l) + (apow if j % 2 else -apow) * (lj // j)
        l = lj
        en, ed = abs(apow) * aa, (j + 1) * (b - aa) * bpow
        if en * td <= tn * ed:
            return n, bpow * l, en, ed


def _log1p_interval(w: Fraction, tol: Fraction):
    """(mid, rad) with log(1+w) in [mid-rad, mid+rad]; needs |w| < 1."""
    n, d, en, ed = _log1p_series(w.numerator, w.denominator,
                                 tol.numerator, tol.denominator)
    return Fraction(n, d), Fraction(en, ed)


def _exp_interval(m: Fraction, r: Fraction, tol: Fraction) -> CertifiedReal:
    """Interval for exp(x) over |x - m| <= r, with r < 1.

    With m = a/b the partial sum of m^j/j! up to j = J is kept as one
    integer numerator over den = b^J J!.  The sum stops at the first J
    with |m| < J + 2 whose tail bound |m|^(J+1) / (J! (J+1) (1 - |m|/(J+2)))
    is at most tol.
    """
    if r >= 1:
        raise DP5Error(f"exp interval needs radius < 1, got {float(r):.3g}")
    a, b = m.numerator, m.denominator
    aa, tn, td = abs(a), tol.numerator, tol.denominator
    num = den = power = 1  # power = a^j
    j = 0
    while True:
        j += 1
        power *= a
        num, den = num * b * j + power, den * b * j
        gap = b * (j + 2) - aa
        if gap > 0:
            # tail = |a|^(j+1) (j+2) / (den (j+1) gap)
            tail_num, tail_den = abs(power) * aa * (j + 2), den * (j + 1) * gap
            if tail_num * td <= tn * tail_den:
                break
    s, tail = Fraction(num, den), Fraction(tail_num, tail_den)
    return CertifiedReal(s, tail + (s + tail) * (r / (1 - r)))


def local_factor(x) -> Fraction:
    """F(x) = (1-x)^5 (1+5x+x^2), exactly."""
    x = Fraction(x)
    return (1 - x) ** 5 * (1 + 5 * x + x * x)


class CurveZeta:
    """Point counts of a curve from its Weil polynomial.

    weil lists the coefficients of P(T) = prod (1 - alpha_i T) from the
    constant term up; the zeta function is P(T)/((1-T)(1-qT)) and the class
    number is h = P(1).  q, g and the coefficients must be ints (not bools);
    anything else raises ValueError.
    """

    def __init__(self, q: int, g: int, weil: Sequence[int]):
        if not isinstance(weil, (list, tuple)):
            raise ValueError(f"weil must be a list of ints, got {weil!r}")
        named = [("q", q), ("g", g)] + [(f"weil[{j}]", c) for j, c in enumerate(weil)]
        for name, v in named:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an int, got {v!r}")
        prime_power(q)
        weil = tuple(weil)
        if g < 0 or len(weil) != 2 * g + 1:
            raise ValueError("weil polynomial must have degree exactly 2g")
        if weil[0] != 1:
            raise ValueError("weil polynomial must have constant term 1")
        for j in range(g + 1):
            if weil[2 * g - j] != q ** (g - j) * weil[j]:
                raise ValueError("weil polynomial violates the functional equation")
        self.q = q
        self.g = g
        self.weil = weil
        self.h = sum(weil)
        if self.h <= 0:
            raise NegativePointCount(f"class number {self.h} is not positive")

    def point_counts(self, n: int):
        """[N_1, ..., N_n] with N_m the number of F_{q^m} points."""
        s = power_sums(self.weil, n)
        counts = []
        for m in range(1, n + 1):
            nm = self.q**m + 1 - s[m]
            if nm < 0:
                raise NegativePointCount(f"N_{m} = {nm} < 0")
            counts.append(nm)
        return counts

    def closed_points(self, n: int):
        """[a_1, ..., a_n] with a_m the number of closed points of degree m."""
        sums = mobius_inversion([0] + self.point_counts(n))
        out = []
        for m, s in enumerate(sums[1:], 1):
            if s % m != 0 or s < 0:
                raise NegativePointCount(f"degree-{m} closed point count {s}/{m}")
            out.append(s // m)
        return out

    def __repr__(self):
        return f"CurveZeta(q={self.q}, g={self.g}, h={self.h})"


def curve_from_weil(q: int, g: int, weil: Sequence[int]) -> CurveZeta:
    return CurveZeta(q, g, weil)


def projective_line(q: int) -> CurveZeta:
    return CurveZeta(q, 0, (1,))


def _prefactor(curve: CurveZeta) -> Fraction:
    q = curve.q
    return (Fraction(curve.h, q**curve.g) / (1 - Fraction(1, q))) ** 5


def _required_bits(target: Fraction, terms: int) -> int:
    """Grid fine enough that all rounding errors stay below target/8."""
    bits = 32
    budget = target / 8
    while Fraction(terms + 2, 1 << (bits + 1)) > budget:
        bits += 32
    return bits + 32


def _unreachable(target: Fraction, why: str) -> TargetUnreachable:
    """The refusal of a radius target, shown to three digits in decimal,
    which stays nonzero where float(target) would underflow."""
    shown = Decimal(target.numerator) / Decimal(target.denominator)
    return TargetUnreachable(f"radius {shown:.3g} {why}")


def _to_target(run, target: Fraction) -> CertifiedReal:
    """Tighten the internal budget until the certified radius meets target.

    One pass normally suffices; a value much larger than 1 can make the
    relative exp-propagation term overshoot, so retry a few times.  The
    first budget is at most 1, since the exp propagation needs the log
    sum's radius below 1: a looser target is certified at 1.
    """
    budget = min(target, Fraction(1))
    for _ in range(6):
        out = run(budget)
        if out.rad <= target:
            return out
        budget /= 8
    raise _unreachable(target, "could not be certified")


def _checked_inputs(q: int, curve: Optional[CurveZeta], target_radius):
    """The target radius, the base curve (the projective line by default) and
    its closed-point counts [a_1, ..., a_N] up to N = _N_CAP.

    target_radius may be text such as "1e-13".  Counting the closed points
    refuses a Weil polynomial that no curve has, with NegativePointCount,
    before either method sums a series.
    """
    if curve is not None and curve.q != q:
        raise ValueError(f"curve is over F_{curve.q}, not F_{q}")
    try:
        target = Fraction(target_radius)
    except ZeroDivisionError:
        raise ValueError(
            f"target radius {target_radius} has a zero denominator") from None
    if target <= 0:
        raise ValueError(f"target radius must be positive, got {target}")
    curve = projective_line(q) if curve is None else curve
    return target, curve, curve.closed_points(_N_CAP)


def _finish(grid: _Grid, pf: Fraction, budget: Fraction) -> CertifiedReal:
    """pf * exp(grid sum), its midpoint rounded back onto the grid."""
    ev = _exp_interval(*grid.value(), budget / (8 * pf))
    x = pf * ev.mid
    out = _Grid(grid.bits)
    out.add(x.numerator, x.denominator)
    mid, re = out.value()
    return CertifiedReal(mid, pf * ev.rad + re)


def leading_constant_direct(
    q: int,
    curve: Optional[CurveZeta] = None,
    target_radius=Fraction(1, 10**13),
) -> CertifiedReal:
    """Certified c by direct accumulation of point degrees up to a cutoff."""
    target, curve, counts = _checked_inputs(q, curve, target_radius)
    g = curve.g

    def tail_bound(n):
        """15/(1-x0) (2+2g) q^-n / ((n+1)(q-1)), x0 = q^-(n+1), as (num, den)."""
        return 30 * (1 + g) * q, (q ** (n + 1) - 1) * (n + 1) * (q - 1)

    n_min = 1
    while q ** (n_min + 1) < 15:
        n_min += 1
    pf = _prefactor(curve)

    def run(budget: Fraction) -> CertifiedReal:
        n = n_min
        while Fraction(*tail_bound(n)) > budget / 4:
            n += 1
            if n > _N_CAP:
                raise _unreachable(target, f"needs degree cutoff beyond {_N_CAP}")
        grid = _Grid(_required_bits(budget, n))
        grid.add_up(tail_bound(n))
        per_term = budget / (16 * n)
        for m in range(1, n + 1):
            a = counts[m - 1]
            if a == 0:
                continue
            w = local_factor(Fraction(1, q**m)) - 1
            lm, lr = _log1p_interval(w, per_term / a)
            grid.add(a * lm.numerator, lm.denominator)
            grid.add_up((a * lr.numerator, lr.denominator))
        return _finish(grid, pf, budget)

    return _to_target(run, target)


def leading_constant_zeta(
    q: int,
    curve: Optional[CurveZeta] = None,
    K: Optional[int] = None,
    target_radius=Fraction(1, 10**13),
) -> CertifiedReal:
    """Certified c via the zeta-value expansion prod_k Z_C(q^{-k})^{-e_k}.

    Exponent growth |e_k| <= 2 (24/5)^k against decay |log Z_C(q^{-k})| <=
    (3/2 + 11g/5) q^{1-k} gives a geometric tail with ratio 24/(5q), so the
    method requires q >= 5.
    """
    target, curve, _ = _checked_inputs(q, curve, target_radius)
    g = curve.g
    if 5 * q <= 24:
        raise Diverges(
            f"zeta expansion has term ratio {24 / (5 * q):.3g} >= 1 at q={q}")

    def tail_bound(k):
        """cgeom r^(k+1) / (1-r), r = 24/(5q), cgeom = (3 + 22g/5) q, as (num, den)."""
        return ((15 + 22 * g) * q * q * 24 ** (k + 1),
                (5 * q - 24) * (5 * q) ** (k + 1))

    pf = _prefactor(curve)
    weil = curve.weil

    def run(budget: Fraction) -> CertifiedReal:
        bn, bd = budget.numerator, budget.denominator
        kk = K
        if kk is None:
            kk = 2
            tn, td = tail_bound(kk)
            while 4 * bd * tn > bn * td:
                kk += 1
                tn, td = 24 * tn, 5 * q * td
                if kk > _K_CAP:
                    raise _unreachable(target, f"needs more than {_K_CAP} zeta values")
        e = witt_exponents(LOCAL_FACTOR_COEFFS, kk)
        grid = _Grid(_required_bits(budget, 3 * kk))
        grid.add_up(tail_bound(kk))
        for k in range(2, kk + 1):
            ek = e[k]
            # log Z = log P(t) - log(1-t) - log(1-qt) at t = q^-k, summed
            # exactly over the lcm of the three series denominators
            pa = sum(c * q ** (k * (2 * g - j)) for j, c in enumerate(weil) if j)
            tol_den = 48 * kk * abs(ek) * bd
            num, den, tails = 0, 1, []
            for a, x, sign in ((pa, 2 * g * k, 1), (-1, k, -1), (-1, k - 1, -1)):
                n, d, en, ed = _log1p_series(a, q**x, bn, tol_den)
                lcm = math.lcm(den, d)
                num, den = num * (lcm // den) + sign * n * (lcm // d), lcm
                tails.append((abs(ek) * en, ed))
            grid.add(-ek * num, den)
            grid.add_up(*tails)
        return _finish(grid, pf, budget)

    if K is not None:
        # explicit truncation: the tail is fixed, so report whatever radius
        # it yields instead of trying to tighten
        tn, td = tail_bound(K)
        if tn >= td:
            raise TargetUnreachable(
                f"K={K} leaves a tail of {tn / td:.3g} in the exponent; "
                "no useful interval"
            )
        return run(target)
    return _to_target(run, target)
