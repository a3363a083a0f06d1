"""Truncated integer power series in u = L^{-1}.

Everything downstream needs only the point-counting shadow of divisor
classes: a series sum c_j u^j with big-integer coefficients, truncated at a
fixed order, where a degree-n closed point contributes u^n.  Under the
substitution u = 1/q every identity here specializes to the corresponding
identity of Euler products over F_q.

The two nonobvious computations:

* witt exponents: the unique integers e_k with prod_k (1-x^k)^e_k = F(x),
  found by equating logarithmic derivatives (Newton power sums followed by
  Moebius inversion over divisors).  For the degree-7 local factor F they
  grow like 4.8^k, which is why the Euler-product acceleration in the
  constants module needs q >= 5.

* the motivic constant: (1-u)^{-5} * prod_{k>=2} [(1-u^k)(1-u^{k-1})]^{e_k},
  collected into one Euler product prod_{j>=1} (1-u^j)^{c_j} with
  c_1 = e_2 - 5 and c_j = e_j + e_{j+1}.  Its log-derivative
  u S'/S = sum_n b_n u^n has b_n = -sum_{j|n} j c_j, and the coefficients
  follow from n s_n = sum_{k=1..n} b_k s_{n-k} by exact integer division:
  about trunc^2/2 big-integer products, with no series multiplied at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .errors import DegenerateK, NonExactDivision, NonUnit, TruncationMismatch
from .gf import mobius_inversion

# (1-x)^5 (1+5x+x^2) expanded; the linear term vanishes, so e_1 = 0
LOCAL_FACTOR_COEFFS = (1, 0, -14, 35, -35, 14, 0, -1)


def gen_binom(e: int, j: int) -> int:
    """binomial(e, j) for arbitrary integer e, j >= 0."""
    if j < 0:
        return 0
    if e >= 0:
        return comb(e, j) if j <= e else 0
    return (-1) ** j * comb(-e + j - 1, j)


class SeriesL:
    """Integer power series in u modulo u^trunc."""

    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc: int, coeffs=()):
        if trunc < 1:
            raise ValueError("truncation order must be >= 1")
        c = list(coeffs)[:trunc]
        c += [0] * (trunc - len(c))
        self.trunc = trunc
        self.coeffs = tuple(c)

    @classmethod
    def one(cls, trunc: int):
        return cls(trunc, (1,))

    @classmethod
    def monomial(cls, trunc: int, coeff: int, exp: int):
        c = [0] * trunc
        if 0 <= exp < trunc:
            c[exp] = coeff
        return cls(trunc, c)

    def _same(self, other):
        if not isinstance(other, SeriesL):
            raise TypeError(f"cannot combine SeriesL with {type(other).__name__}")
        if other.trunc != self.trunc:
            raise TruncationMismatch(
                f"truncations differ: {self.trunc} and {other.trunc}"
            )
        return other

    def __add__(self, other):
        self._same(other)
        return SeriesL(self.trunc, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._same(other)
        return SeriesL(self.trunc, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return SeriesL(self.trunc, (-a for a in self.coeffs))

    def __mul__(self, other):
        self._same(other)
        n = self.trunc
        a, b = self.coeffs, other.coeffs
        out = [0] * n
        for i, ca in enumerate(a):
            if ca:
                for j in range(n - i):
                    out[i + j] += ca * b[j]
        return SeriesL(n, out)

    def invert(self):
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise NonUnit(f"constant term {c0} is not a unit over the integers")
        n = self.trunc
        out = [0] * n
        out[0] = c0
        for m in range(1, n):
            s = sum(self.coeffs[j] * out[m - j] for j in range(1, m + 1))
            out[m] = -c0 * s
        return SeriesL(n, out)

    def _binomial_shape(self):
        """(m, c) if the series is exactly 1 + c*u^m, else None."""
        if self.coeffs[0] != 1:
            return None
        nz = [(i, c) for i, c in enumerate(self.coeffs) if i and c]
        if len(nz) != 1:
            return None
        return nz[0]

    def pow(self, e: int):
        n = self.trunc
        shape = self._binomial_shape()
        if shape is not None:
            m, c = shape
            out = [0] * n
            j = 0
            while m * j < n:
                out[m * j] = gen_binom(e, j) * c**j
                j += 1
            return SeriesL(n, out)
        if e < 0:
            return self.invert().pow(-e)
        if e > 10**6:
            raise ValueError("exponent too large for a non-binomial series")
        r = SeriesL.one(n)
        b = self
        while e:
            if e & 1:
                r = r * b
            e >>= 1
            if e:
                b = b * b
        return r

    def substitute(self, k: int):
        """u -> u^k."""
        if k < 1:
            raise ValueError(f"substitution u -> u^{k} needs k >= 1")
        out = [0] * self.trunc
        for i, c in enumerate(self.coeffs):
            if c and i * k < self.trunc:
                out[i * k] = c
        return SeriesL(self.trunc, out)

    def shift_L(self, j: int = 1):
        """Multiply by L^j = u^{-j}; only legal when no coefficient is lost.

        For j > 0 the result is only known mod u^(trunc-j), so the
        truncation order shrinks; zero-padding would claim unknown tails.
        """
        if j < 0:
            return SeriesL(self.trunc, (0,) * (-j) + self.coeffs)
        if j >= self.trunc:
            raise ValueError("shift consumes the whole truncation window")
        if any(self.coeffs[:j]):
            raise ValueError("multiplication by L leaves the power series ring")
        return SeriesL(self.trunc - j, self.coeffs[j:])

    def truncate(self, n: int):
        if n > self.trunc:
            raise ValueError(f"cannot truncate O(u^{self.trunc}) to O(u^{n})")
        return SeriesL(n, self.coeffs[:n])

    def at(self, x) -> Fraction:
        """Exact specialization u = x."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, SeriesL)
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.trunc, self.coeffs))

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                u = "u" if i == 1 else f"u^{i}"
                parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*{u}")
            if len(parts) > 8:
                parts.append("...")
                break
        body = " ".join(parts) if parts else "0"
        return f"SeriesL({body} + O(u^{self.trunc}))"


def kapranov_inverse_at(k: int, trunc: int) -> SeriesL:
    """(1-u^k)(1-u^{k-1}): the inverse Kapranov zeta of P^1 at T = L^{-k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        raise DegenerateK("k = 1 makes the factor (1 - u^0) vanish")
    a = SeriesL.one(trunc) - SeriesL.monomial(trunc, 1, k)
    b = SeriesL.one(trunc) - SeriesL.monomial(trunc, 1, k - 1)
    return a * b


def mobius_motivic_p1():
    """Coefficients of (1-T)(1-LT) as polynomials in L, by degree in T.

    Degree d >= 3 coefficients vanish; each entry is a tuple of coefficients
    of L^0, L^1, ...
    """
    return ((1,), (-1, -1), (0, 1))


def divisor_class_p1(d: int):
    """[Div^d] of P^1 as an L-polynomial: 1 + L + ... + L^d."""
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    return (1,) * (d + 1)


def power_sums(fcoeffs, n: int) -> list[int]:
    """[0, p_1, ..., p_n]: power sums of the inverse roots of F, F(0) = 1.

    Newton's identity p_m + f_1 p_{m-1} + ... + f_{m-1} p_1 + m f_m = 0.
    """
    f = list(fcoeffs)
    p = [0] * (n + 1)
    for m in range(1, n + 1):
        s = m * f[m] if m < len(f) else 0
        for j in range(1, min(m, len(f))):
            s += f[j] * p[m - j]
        p[m] = -s
    return p


def witt_exponents(fcoeffs, K: int):
    """Integers e_1..e_K with prod (1-x^k)^{e_k} = F(x) mod x^{K+1}.

    Returned as a list indexed by k (entry 0 unused).  Matching log
    coefficients gives sum_{k|m} k e_k = p_m with p_m the power sums,
    inverted by Moebius.
    """
    if fcoeffs[0] != 1:
        raise ValueError("F must have constant term 1")
    e = [0] * (K + 1)
    for k, s in enumerate(mobius_inversion(power_sums(fcoeffs, K))[1:], 1):
        e[k], r = divmod(s, k)
        if r:
            raise NonExactDivision(f"non-integral Witt exponent at k={k}")
    return e


def motivic_constant(trunc: int) -> SeriesL:
    """(1-u)^{-5} * prod_{k>=2} [(1-u^k)(1-u^{k-1})]^{e_k} mod u^trunc.

    Evaluated as prod_j (1-u^j)^{c_j} by the log-derivative recurrence
    described in the module docstring.
    """
    e = witt_exponents(LOCAL_FACTOR_COEFFS, trunc)
    b = [0] * trunc  # b[n] = -sum_{j|n} j c_j
    for j in range(1, trunc):
        jc = j * (e[j] + e[j + 1] - (5 if j == 1 else 0))
        for n in range(j, trunc, j):
            b[n] -= jc
    b1 = b[1:]
    s = [1]
    for n in range(1, trunc):
        sn, r = divmod(sum(map(mul, b1, reversed(s))), n)
        if r:
            raise NonExactDivision(f"motivic coefficient {n} is not an integer")
        s.append(sn)
    return SeriesL(trunc, s)


# -- local Euler-factor identities --------------------------------------------


def _pattern_exponent(eps):
    e1, e2, e3, e4 = eps
    return max(e1, e2, e3) + max(e1, e2, e4) + max(min(e1, e2), e3, e4)


def local_identity_checks() -> dict:
    """Verify the Euler-factor identities exactly; returns a pass report."""
    # every polynomial below has degree at most 7, so mod u^16 is exact
    def poly(*coeffs):
        return SeriesL(16, coeffs)

    def mono(coeff, exp):
        return SeriesL.monomial(16, coeff, exp)

    report = {}

    # (i) full 16-pattern Moebius sum at a point off all a_i
    acc = poly()
    for mask in range(16):
        eps = tuple((mask >> i) & 1 for i in range(4))
        acc += mono(-1 if sum(eps) % 2 else 1, _pattern_exponent(eps))
    report["pattern16"] = acc == poly(1, 0, -4, 3)

    # (ii) at a point dividing a_j only D_j survives: two patterns
    report["pattern2"] = all(
        poly(1) - mono(1, _pattern_exponent(eps)) == poly(1, 0, -1)
        for eps in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )

    # (iii) assembling the two kinds of points reproduces the global factor
    lhs_inner = poly(1, 0, -4, 3) + poly(0, 4) * poly(1, 0, -1)
    report["pattern_assembly"] = lhs_inner == poly(1, 4, -4, -1)
    one_minus = poly(1, -1)
    p4 = one_minus.pow(4)
    report["factor_identity"] = p4 * lhs_inner == p4 * one_minus * poly(1, 5, 1)

    # (iv) Moebius sums over subdivisors factor through the support
    import random

    from .gf import field_of_order
    from .p1 import Divisor, irreducibles, point_degree

    rng = random.Random(0)  # the same ten supports per field on every run
    ok = True
    for q in (2, 3):
        ctx = field_of_order(q)
        pts = [None] + irreducibles(ctx, 2)
        for _ in range(10):
            support = rng.sample(pts, rng.randint(0, 3))
            A = Divisor({pt: 1 for pt in support})
            lhs = poly()
            for E in A.subdivisors():
                lhs += mono(E.mobius(), E.degree())
            rhs = poly(1)
            for pt in support:
                rhs *= poly(1) - mono(1, point_degree(pt))
            ok = ok and lhs == rhs
    report["mobius_factorization"] = ok

    report["all"] = all(report.values())
    return report
