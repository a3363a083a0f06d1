"""Certified evaluation of the leading constant.

The constant attached to a smooth projective curve C over F_q (default: the
projective line) is

    c = (q^{-g} h / (1 - q^{-1}))^5 * prod_v F(q_v^{-1}),

a product over the closed points v of C, with local factor
F(x) = (1-x)^5 (1+5x+x^2) and h the class number.  Everything is computed
with Fraction arithmetic and explicit error intervals: a result is a
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

All logarithms are exact alternating series on rationals; accumulated sums
are rounded to a fixed dyadic grid term by term (otherwise denominators of
the form q^{7n} or q^k - 1 pile up into an lcm explosion), and every
rounding contributes 2^{-BITS-1} to the radius.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import DP5Error, Diverges, NegativePointCount, TargetUnreachable
from .gf import mobius_inversion, prime_power
from .motivic import LOCAL_FACTOR_COEFFS, witt_exponents

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


def _dyadic_round(x: Fraction, bits: int):
    """Nearest multiple of 2^-bits; error is at most 2^-(bits+1)."""
    scaled = x * (1 << bits)
    n = round(scaled)
    return Fraction(n, 1 << bits), abs(Fraction(n) - scaled) / (1 << bits)


def _dyadic_up(x: Fraction, bits: int) -> Fraction:
    """Smallest multiple of 2^-bits that is >= x; keeps radius sums cheap."""
    n = -((-x.numerator * (1 << bits)) // x.denominator)
    return Fraction(n, 1 << bits)


def _log1p_interval(w: Fraction, tol: Fraction):
    """(mid, rad) with log(1+w) in [mid-rad, mid+rad]; needs |w| < 1."""
    aw = abs(w)
    if aw >= 1:
        raise DP5Error(f"log1p series requires |w| < 1, got |w| = {float(aw):.3g}")
    if w == 0:
        return Fraction(0), Fraction(0)
    s = Fraction(0)
    wpow = Fraction(1)
    j = 0
    while True:
        j += 1
        wpow *= w
        s += wpow / j if j % 2 else -wpow / j
        tail = aw ** (j + 1) / ((j + 1) * (1 - aw))
        if tail <= tol:
            return s, tail


def _exp_interval(m: Fraction, r: Fraction, tol: Fraction) -> CertifiedReal:
    """Interval for exp(x) over |x - m| <= r, with r < 1."""
    if r >= 1:
        raise DP5Error(f"exp interval needs radius < 1, got {float(r):.3g}")
    s = Fraction(1)
    term = Fraction(1)
    aterm = Fraction(1)
    am = abs(m)
    j = 0
    while True:
        j += 1
        term = term * m / j
        aterm = aterm * am / j
        s += term
        ratio = am / (j + 2)
        if ratio < 1:
            tail = aterm * am / ((j + 1) * (1 - ratio))
            if tail <= tol:
                break
    rad = tail
    if r > 0:
        rad += (s + tail) * (r / (1 - r))
    return CertifiedReal(s, rad)


def local_factor(x) -> Fraction:
    """F(x) = (1-x)^5 (1+5x+x^2), exactly."""
    x = Fraction(x)
    return (1 - x) ** 5 * (1 + 5 * x + x * x)


class CurveZeta:
    """Point counts of a curve from its Weil polynomial.

    weil lists the coefficients of P(T) = prod (1 - alpha_i T) from the
    constant term up; the zeta function is P(T)/((1-T)(1-qT)) and the class
    number is h = P(1).
    """

    def __init__(self, q: int, g: int, weil: Sequence[int]):
        prime_power(q)
        weil = tuple(int(c) for c in weil)
        if g < 0 or len(weil) != 2 * g + 1:
            raise ValueError("weil polynomial must have degree exactly 2g")
        if weil[0] != 1:
            raise ValueError("weil polynomial must have constant term 1")
        if g > 0 and weil[-1] != q**g:
            raise ValueError("weil polynomial violates the functional equation")
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
        c = self.weil
        s = [0] * (n + 1)
        for m in range(1, n + 1):
            acc = m * (c[m] if m < len(c) else 0)
            for j in range(1, m):
                cj = c[j] if j < len(c) else 0
                if cj:
                    acc += cj * s[m - j]
            s[m] = -acc
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


def _to_target(run, target: Fraction) -> CertifiedReal:
    """Tighten the internal budget until the certified radius meets target.

    One pass normally suffices; a value much larger than 1 can make the
    relative exp-propagation term overshoot, so retry a few times.
    """
    budget = target
    for _ in range(6):
        out = run(budget)
        if out.rad <= target:
            return out
        budget /= 8
    raise TargetUnreachable(f"could not certify radius {float(target):.3g}")


def _checked_inputs(q: int, curve: Optional[CurveZeta], target_radius):
    """The target radius and the base curve (the projective line by default)."""
    target = Fraction(target_radius)
    if target <= 0:
        raise ValueError(f"target radius must be positive, got {target}")
    curve = projective_line(q) if curve is None else curve
    if curve.q != q:
        raise ValueError(f"curve is over F_{curve.q}, not F_{q}")
    return target, curve


def leading_constant_direct(
    q: int,
    curve: Optional[CurveZeta] = None,
    target_radius=Fraction(1, 10**13),
) -> CertifiedReal:
    """Certified c by direct accumulation of point degrees up to a cutoff."""
    target, curve = _checked_inputs(q, curve, target_radius)
    g = curve.g

    def tail_bound(n):
        x0 = Fraction(1, q ** (n + 1))
        return (
            Fraction(15, 1)
            / (1 - x0)
            * (2 + 2 * g)
            * Fraction(1, q**n)
            / ((n + 1) * (q - 1))
        )

    n_min = 1
    while q ** (n_min + 1) < 15:
        n_min += 1
    pf = _prefactor(curve)

    def run(budget: Fraction) -> CertifiedReal:
        n = n_min
        while tail_bound(n) > budget / 4:
            n += 1
            if n > _N_CAP:
                raise TargetUnreachable(
                    f"radius {float(target):.3g} needs degree cutoff beyond {_N_CAP}"
                )
        counts = curve.closed_points(n)
        bits = _required_bits(budget, n)
        per_term = budget / (16 * n)
        s_mid = Fraction(0)
        s_rad = _dyadic_up(tail_bound(n), bits)
        for m in range(1, n + 1):
            a = counts[m - 1]
            if a == 0:
                continue
            w = local_factor(Fraction(1, q**m)) - 1
            lm, lr = _log1p_interval(w, per_term / a)
            rm, re = _dyadic_round(a * lm, bits)
            s_mid += rm
            s_rad += _dyadic_up(a * lr, bits) + re
        ev = _exp_interval(s_mid, s_rad, budget / (8 * pf))
        mid, re = _dyadic_round(pf * ev.mid, bits)
        return CertifiedReal(mid, pf * ev.rad + re)

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
    target, curve = _checked_inputs(q, curve, target_radius)
    g = curve.g
    r = Fraction(24, 5 * q)
    if r >= 1:
        raise Diverges(f"zeta expansion has term ratio {float(r):.3g} >= 1 at q={q}")
    cgeom = 2 * (Fraction(3, 2) + Fraction(11, 5) * g) * q

    def tail_bound(k):
        return cgeom * r ** (k + 1) / (1 - r)

    pf = _prefactor(curve)
    weil = curve.weil

    def run(budget: Fraction) -> CertifiedReal:
        kk = K
        if kk is None:
            kk = 2
            rpow = r**3
            while cgeom * rpow / (1 - r) > budget / 4:
                kk += 1
                rpow *= r
                if kk > _K_CAP:
                    raise TargetUnreachable(
                        f"radius {float(target):.3g} needs more than {_K_CAP} zeta values"
                    )
        e = witt_exponents(LOCAL_FACTOR_COEFFS, kk)
        bits = _required_bits(budget, 3 * kk)
        s_mid = Fraction(0)
        s_rad = _dyadic_up(tail_bound(kk), bits)
        for k in range(2, kk + 1):
            ek = e[k]
            if ek == 0:
                continue
            t = Fraction(1, q**k)
            tol = budget / (48 * kk * abs(ek))
            # log Z = log P(t) - log(1-t) - log(1-qt)
            lz_mid = Fraction(0)
            lz_rad = Fraction(0)
            pt = sum(c * t**j for j, c in enumerate(weil))
            for w, sign in ((pt - 1, 1), (-t, -1), (-q * t, -1)):
                lm, lr = _log1p_interval(w, tol)
                lz_mid += sign * lm
                lz_rad += lr
            rm, re = _dyadic_round(-ek * lz_mid, bits)
            s_mid += rm
            s_rad += _dyadic_up(abs(ek) * lz_rad, bits) + re
        ev = _exp_interval(s_mid, s_rad, budget / (8 * pf))
        mid, re = _dyadic_round(pf * ev.mid, bits)
        return CertifiedReal(mid, pf * ev.rad + re)

    if K is not None:
        # explicit truncation: the tail is fixed, so report whatever radius
        # it yields instead of trying to tighten
        if tail_bound(K) >= 1:
            raise TargetUnreachable(
                f"K={K} leaves a tail of {float(tail_bound(K)):.3g} in the "
                "exponent; no useful interval"
            )
        return run(target)
    return _to_target(run, target)
