"""Binary forms and divisors on the projective line over F_q.

A section of O(d) is a binary form f(s,t) = sum_j c_j s^j t^(d-j), stored as
the coefficient vector (c_0, ..., c_d).  Closed points of P^1 are the monic
irreducible polynomials in x = s/t (tuples of ascending coefficients,
including the leading 1) together with the point at infinity, encoded as
INF = None.  The divisor of a nonzero form is the factorization of its
dehomogenization f(x, 1) plus (d - deg f(x,1)) times infinity, so degrees are
additive and div(f*g) = div(f) + div(g) exactly.

form_from_index and enumerate_sections run over every section, scalar
multiples included; dividing them out is up to the count: count_fast keeps
monic outer forms, one per PGL2 x Stab orbit, and restores (q-1)^4.  Each
count takes the (q-1)^5 torus quotient once, at its end.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import BudgetExceeded, DP5Error, NegativePointCount, ZeroForm
from .gf import FieldCtx, _digits, mobius_inversion, pstrip

INF = None  # the point at infinity; every other point is a monic poly tuple

DEFAULT_BUDGET = 1 << 30


# -- polynomials over F_q: ascending coefficient tuples, no trailing zeros --


def pdeg(a) -> int:
    """Degree; the zero polynomial has degree -1."""
    return len(a) - 1


def padd(ctx: FieldCtx, a, b):
    if len(a) < len(b):
        a, b = b, a
    r = list(a)
    for i, x in enumerate(b):
        r[i] = ctx.add(r[i], x)
    return pstrip(r)


def psub(ctx: FieldCtx, a, b):
    r = list(a) + [0] * max(0, len(b) - len(a))
    for i, x in enumerate(b):
        r[i] = ctx.sub(r[i], x)
    return pstrip(r)


def pmul(ctx: FieldCtx, a, b):
    r = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            r[i + j] = ctx.add(r[i + j], ctx.mul(x, y))
    return pstrip(r)


def pscale(ctx: FieldCtx, a, c):
    if c == 0:
        return ()
    return tuple(ctx.mul(x, c) for x in a)


def pdivmod(ctx: FieldCtx, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db, lead = pdeg(b), b[-1]
    ilead = ctx.inv(lead)
    q = [0] * max(0, len(a) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            f = ctx.mul(c, ilead)
            q[i - db] = f
            for j in range(db + 1):
                r[i - db + j] = ctx.sub(r[i - db + j], ctx.mul(f, b[j]))
    return pstrip(q), pstrip(r)


def pmod(ctx: FieldCtx, a, b):
    return pdivmod(ctx, a, b)[1]


def pgcd(ctx: FieldCtx, a, b):
    """Monic gcd."""
    while b:
        a, b = b, pmod(ctx, a, b)
    return pmonic(ctx, a)


def pmonic(ctx: FieldCtx, a):
    if not a or a[-1] == 1:
        return a
    return pscale(ctx, a, ctx.inv(a[-1]))


# -- divisors ---------------------------------------------------------------


def point_degree(pt) -> int:
    return 1 if pt is INF else len(pt) - 1


def _point_key(pt):
    return (0,) if pt is INF else (1, len(pt)) + pt


class Divisor:
    """Effective divisor on P^1: multiset of closed points."""

    __slots__ = ("_m",)

    def __init__(self, mults=None):
        m = {}
        if mults:
            for pt, k in dict(mults).items():
                if k < 0:
                    raise ValueError("divisors here are effective")
                if k:
                    m[pt] = k
        self._m = m

    @classmethod
    def point(cls, pt, mult: int = 1):
        return cls({pt: mult})

    def mult(self, pt) -> int:
        return self._m.get(pt, 0)

    def degree(self) -> int:
        return sum(point_degree(pt) * k for pt, k in self._m.items())

    def support(self):
        return sorted(self._m, key=_point_key)

    def items(self):
        return [(pt, self._m[pt]) for pt in self.support()]

    def __add__(self, other):
        m = dict(self._m)
        for pt, k in other._m.items():
            m[pt] = m.get(pt, 0) + k
        return Divisor(m)

    def gcd(self, other):
        return Divisor(
            {pt: min(k, other.mult(pt)) for pt, k in self._m.items() if other.mult(pt)}
        )

    def lcm(self, other):
        m = dict(self._m)
        for pt, k in other._m.items():
            m[pt] = max(m.get(pt, 0), k)
        return Divisor(m)

    def leq(self, other) -> bool:
        return all(k <= other.mult(pt) for pt, k in self._m.items())

    def disjoint(self, other) -> bool:
        return not any(other.mult(pt) for pt in self._m)

    def is_zero(self) -> bool:
        return not self._m

    def is_squarefree(self) -> bool:
        return all(k == 1 for k in self._m.values())

    def mobius(self) -> int:
        """(-1)^(number of points) on squarefree divisors, 0 otherwise."""
        if not self.is_squarefree():
            return 0
        return -1 if len(self._m) % 2 else 1

    def subdivisors(self):
        """All effective E <= self, each once, the multiplicity at the first
        point of the support varying fastest."""
        pts = self.support()[::-1]  # product varies its last factor fastest
        ranges = (range(self._m[pt] + 1) for pt in pts)
        return [Divisor(zip(pts, ks)) for ks in product(*ranges)]

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._m == other._m

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        if not self._m:
            return "Divisor(0)"
        parts = []
        for pt, k in self.items():
            name = "inf" if pt is INF else _poly_name(pt)
            parts.append(f"{k}*[{name}]" if k > 1 else f"[{name}]")
        return "Divisor(" + " + ".join(parts) + ")"


def _poly_name(p) -> str:
    terms = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            terms.append(x if c == 1 else f"{c}*{x}")
    return " + ".join(terms) if terms else "0"


# -- binary forms -------------------------------------------------------------


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form of fixed degree d; coeffs[j] multiplies s^j t^(d-j)."""

    ctx: FieldCtx
    d: int
    coeffs: tuple

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("negative degree")
        if len(self.coeffs) != self.d + 1:
            raise ValueError("coefficient vector must have length d+1")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def dehom(self):
        """f(x, 1) as a polynomial tuple; infinity order is d - deg."""
        return pstrip(self.coeffs)

    def inf_order(self) -> int:
        if self.is_zero():
            raise ZeroForm("zero form")
        return self.d - pdeg(self.dehom())

    def _check(self, other, same_degree: bool):
        if self.ctx != other.ctx or (same_degree and self.d != other.d):
            raise ValueError(f"{self!r} and {other!r} do not combine")

    def __mul__(self, other):
        self._check(other, False)
        prod = pmul(self.ctx, self.coeffs, other.coeffs)
        d = self.d + other.d
        return BinaryForm(self.ctx, d, prod + (0,) * (d + 1 - len(prod)))

    def __add__(self, other):
        self._check(other, True)
        return BinaryForm(
            self.ctx,
            self.d,
            tuple(self.ctx.add(a, b) for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        self._check(other, True)
        return BinaryForm(
            self.ctx,
            self.d,
            tuple(self.ctx.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __repr__(self):
        return f"BinaryForm(q={self.ctx.q}, d={self.d}, coeffs={self.coeffs})"


def form_from_index(ctx: FieldCtx, d: int, idx: int) -> BinaryForm:
    """Form number idx in the enumeration order (base-q digits = coeffs)."""
    return BinaryForm(ctx, d, tuple(_digits(idx, ctx.q, d + 1)))


def enumerate_sections(ctx: FieldCtx, d: int, budget: int = DEFAULT_BUDGET):
    """All q^(d+1) sections of O(d), the zero section first."""
    total = ctx.q ** (d + 1)
    if total > budget:
        raise BudgetExceeded(f"{total} sections of O({d}) exceed budget {budget}")
    for idx in range(total):
        yield form_from_index(ctx, d, idx)


# -- irreducibles and factorization ------------------------------------------

@lru_cache(maxsize=None)
def _irreducibles_of_degree(ctx: FieldCtx, deg: int) -> tuple:
    """Monic irreducibles of degree deg in lex order, by a sieve: the monic f
    of degree deg is number sum f[i]*q^i (i < deg), and the products of the
    irreducibles of degree k <= deg/2 with every monic form of degree deg - k
    are struck out."""
    q = ctx.q
    reducible = bytearray(q**deg)
    for k in range(1, deg // 2 + 1):
        for g in _irreducibles_of_degree(ctx, k):
            for idx in range(q ** (deg - k), 2 * q ** (deg - k)):  # monic
                f = pmul(ctx, g, form_from_index(ctx, deg - k, idx).coeffs)
                reducible[sum(c * q**i for i, c in enumerate(f[:deg]))] = 1
    return tuple(form_from_index(ctx, deg, q**deg + idx).coeffs
                 for idx in range(q**deg) if not reducible[idx])


def irreducibles(ctx: FieldCtx, max_degree: int):
    """Monic irreducibles of degree <= max_degree, by degree then lex, as a new
    list; each degree is sieved once per field."""
    return [f for deg in range(1, max_degree + 1)
            for f in _irreducibles_of_degree(ctx, deg)]


def factor_poly(ctx: FieldCtx, p):
    """Factor a nonzero poly into monic irreducibles; returns a Counter
    {poly: mult}.  A Counter is a dict, so it equals the dict of the same
    multiplicities."""
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    p = pmonic(ctx, p)
    out = Counter()
    d = pdeg(p)
    if d == 0:
        return out
    for f in irreducibles(ctx, d // 2):
        while True:
            q2, r = pdivmod(ctx, p, f)
            if r:
                break
            out[f] += 1
            p = q2
        if pdeg(p) == 0:
            return out
    out[p] += 1  # leftover is irreducible
    return out


def divisor_of(f: BinaryForm) -> Divisor:
    """Complete zero divisor of a nonzero form: finite part plus infinity."""
    if f.is_zero():
        raise ZeroForm("the zero form has no divisor")
    p = f.dehom()
    m = factor_poly(f.ctx, p)
    k = f.d - pdeg(p)
    if k:
        m[INF] = k
    return Divisor(m)


def forms_coprime(f: BinaryForm, g: BinaryForm) -> bool:
    """gcd(div f, div g) = 0, without factoring."""
    if f.is_zero() or g.is_zero():
        return False
    pf, pg = f.dehom(), g.dehom()
    if pdeg(pf) < f.d and pdeg(pg) < g.d:
        return False  # both vanish at infinity
    return pdeg(pgcd(f.ctx, pf, pg)) == 0


# -- point counts -------------------------------------------------------------


def points_by_degree(q: int, n: int) -> int:
    """Number of closed points of degree n on P^1 over F_q."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return q + 1
    s = mobius_inversion([q**d for d in range(n + 1)])[n]
    if s % n:
        raise DP5Error(f"{s} points of degree dividing {n} is not a multiple of {n}")
    a = s // n
    if a < 0:
        raise NegativePointCount(f"a_{n} = {a} < 0")
    return a


def divisor_count(q: int, d: int) -> int:
    """Number of effective divisors of degree d: 1 + q + ... + q^d."""
    return (q ** (d + 1) - 1) // (q - 1)
