"""Rank-3 congruence subsheaves of O(d13) + O(d24) + O(d34) on P^1.

A bundle is cut out of the ambient sum by five divisibility conditions on a
triple of forms (a13, a24, a34), built from four fixed pairwise-coprime forms
a1..a4 and eight auxiliary divisors D1..D4, E1..E4:

    F13 <= div(a13),   F24 <= div(a24),   F34 <= div(a34),
    div(a1) + F14 <= div(a3*a34 - a2*a24),
    div(a2) + F23 <= div(a4*a34 + a1*a13),

where F_ij = lcm(D_i, D_j) + E_k + E_l for {i,j,k,l} = {1,2,3,4}.  Every
condition "Z <= div(w)" is linear in the coefficients of w, so twisted
section spaces are kernels of explicit matrices over F_q: the finite part of
Z contributes remainder-vanishing rows modulo its modulus polynomial, the
infinity part contributes vanishing of the top coefficients of w.

The degree has a closed form d - (d1+d2+d3+d4) - deg(B) with
B = E1+E2+E3+E4 + [D1;D2;D3] + [D1;D2;D4] + [(D1;D2);D3;D4], where d is the
pentagon sum d13+d3+d34+d4+d24.  The splitting type (e1,e2,e3) is read off
the h0 profile: h0(m) = sum_i max(0, e_i+m+1).

build_bundle requires the eight divisors to have pairwise disjoint supports
and each D_i to miss div(a_j) for j != i.  These preconditions drop terms of
the Moebius inversion over (D, E) that an exact count of the accepted kernel
vectors needs, so a sum over the bundles build_bundle accepts is not a
count; the bundles serve the splitting statistics.

plucker_kernel is the bundle with all eight divisors zero, read at twist 0:
the two divisibility conditions alone, on a validated quadruple a'.  The
walk of count_fast relies on h1(0) = 0 for this zero-divisor bundle of a
chamber-normalised class, and count_fast checks it on every kernel.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import NamedTuple

from .errors import (
    BudgetExceeded, DP5Error, InconsistentH0, PreconditionViolated,
)
from .gf import FieldCtx, field_of_order
from .p1 import (
    INF,
    BinaryForm,
    Divisor,
    divisor_of,
    factor_poly,
    form_from_index,
    forms_coprime,
    irreducibles,
    pdeg,
    pmod,
    pmul,
    point_degree,
    pstrip,
)
from .picard import CurveClass, eff_dual_data

_ZERO4 = (Divisor(), Divisor(), Divisor(), Divisor())

# most section triples CongruenceBundle.sections will list
_SECTIONS_BUDGET = 1 << 20


# -- linear algebra over F_q --------------------------------------------------


def rref(ctx: FieldCtx, rows, ncols):
    """Reduced row echelon form; returns (reduced nonzero rows, pivot cols)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = ctx.inv(mat[r][c])
        mat[r] = [ctx.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def nullspace(ctx: FieldCtx, rows, ncols):
    """Basis of the kernel, one vector per free column."""
    red, pivots = rref(ctx, rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(red, pivots):
            v[p] = ctx.neg(row[f])
        basis.append(tuple(v))
    return basis


# -- divisibility conditions as matrix rows -----------------------------------


def _modulus_of(ctx: FieldCtx, z: Divisor):
    """(finite modulus polynomial, multiplicity at infinity)."""
    m = (1,)
    inf = 0
    for pt, k in z.items():
        if pt is INF:
            inf = k
        else:
            for _ in range(k):
                m = pmul(ctx, m, pt)
    return m, inf


class _Condition(NamedTuple):
    zf: tuple  # finite modulus polynomial
    zinf: int  # required order at infinity
    # terms: (block, full coefficient tuple of the multiplier, its degree, sign)
    terms: tuple


def _twist_rows(ctx: FieldCtx, conds, dpp, m: int):
    """Matrix of all conditions on coefficient vectors at twist m.

    Column offs[b] + j is the unknown coefficient of X^j in block b.  Each
    term fills it with w = sign * X^j * multiplier, a form of degree dw: the
    residue of w mod zf in the finite rows, its top zinf coefficients in the
    infinity rows.
    """
    sizes = [max(0, dpp[b] + m + 1) for b in range(3)]
    offs = [0, sizes[0], sizes[0] + sizes[1]]
    ncols = sum(sizes)
    rows = []
    for zf, zinf, terms in conds:
        dw = terms[0][2] + dpp[terms[0][0]] + m
        if any(md + dpp[b] + m != dw for b, mc, md, sgn in terms):
            raise DP5Error(f"condition terms disagree in degree at twist {m}")
        if dw < 0:
            continue
        degm, lo = pdeg(zf), max(0, dw - zinf + 1)
        block = [[0] * ncols for _ in range(degm + dw + 1 - lo)]
        for b, mc, md, sgn in terms:
            signed = mc if sgn > 0 else tuple(ctx.neg(c) for c in mc)
            for j in range(sizes[b]):
                w = (0,) * j + signed + (0,) * (sizes[b] - 1 - j)
                res = pmod(ctx, w, zf)
                col = res + (0,) * (degm - len(res)) + w[lo:]
                for row, v in zip(block, col):
                    row[offs[b] + j] = ctx.add(row[offs[b] + j], v)
        rows.extend(block)
    return sizes, offs, ncols, rows


def _plucker_conditions(aprime, F):
    """The five conditions of a' = (a1, a2, a3, a4) and the F_ij divisors."""
    a1, a2, a3, a4 = aprime
    ctx = a1.ctx
    conds = []
    for block, f in ((0, F[(1, 3)]), (1, F[(2, 4)]), (2, F[(3, 4)])):
        if not f.is_zero():
            zf, zi = _modulus_of(ctx, f)
            conds.append(_Condition(zf, zi, ((block, (1,), 0, 1),)))
    # div(a1) + F14 <= div(a3*a34 - a2*a24)
    zf, zi = _modulus_of(ctx, F[(1, 4)])
    conds.append(_Condition(
        pmul(ctx, pstrip(a1.coeffs), zf),
        a1.inf_order() + zi,
        ((2, a3.coeffs, a3.d, 1), (1, a2.coeffs, a2.d, -1)),
    ))
    # div(a2) + F23 <= div(a4*a34 + a1*a13)
    zf, zi = _modulus_of(ctx, F[(2, 3)])
    conds.append(_Condition(
        pmul(ctx, pstrip(a2.coeffs), zf),
        a2.inf_order() + zi,
        ((2, a4.coeffs, a4.d, 1), (0, a1.coeffs, a1.d, 1)),
    ))
    return conds


def plucker_kernel(aprime, dpp):
    """(sizes, offsets, kernel basis) of the two divisibility conditions
    alone: the bundle with all divisors zero at twist 0, a' validated.  The
    reference that count._kernel_coords is tested against."""
    return build_bundle(aprime, dpp).sections_basis(0)


# -- the bundle ----------------------------------------------------------------


class SplittingType(NamedTuple):
    e1: int
    e2: int
    e3: int


def _check_support_point(pt, ctx, label):
    if pt is INF:
        return
    if pt[-1] != 1:
        raise PreconditionViolated(f"{label}: support point {pt} is not monic")
    fac = factor_poly(ctx, pt)
    if fac != {pt: 1}:
        raise PreconditionViolated(f"{label}: support point {pt} is reducible")


class CongruenceBundle:
    """Immutable handle; twisted-section queries are pure linear algebra."""

    def __init__(self, aprime, dpp, D, E, conds):
        self.aprime = aprime
        self.ctx = aprime[0].ctx
        self.dprime = tuple(f.d for f in aprime)
        self.dpp = tuple(dpp)
        self.D = D
        self.E = E
        self._conds = conds
        self._h0_cache = {}

    def h0(self, m: int) -> int:
        if m not in self._h0_cache:
            sizes, offs, ncols, rows = _twist_rows(self.ctx, self._conds, self.dpp, m)
            self._h0_cache[m] = ncols - len(rref(self.ctx, rows, ncols)[0])
        return self._h0_cache[m]

    def sections_basis(self, m: int):
        """(block sizes, offsets, kernel basis) at twist m."""
        sizes, offs, ncols, rows = _twist_rows(self.ctx, self._conds, self.dpp, m)
        return sizes, offs, nullspace(self.ctx, rows, ncols)

    def sections(self, m: int):
        """All section triples at twist m (small spaces only)."""
        ctx = self.ctx
        sizes, offs, basis = self.sections_basis(m)
        if ctx.q ** len(basis) > _SECTIONS_BUDGET:
            raise BudgetExceeded(
                f"q^{len(basis)} sections exceed budget {_SECTIONS_BUDGET}"
            )
        d13, d24, d34 = (d + m for d in self.dpp)
        vecs = [[0] * sum(sizes)]
        for bv in basis:
            vecs = [
                [ctx.add(x, ctx.mul(c, y)) for x, y in zip(v, bv)]
                for v in vecs
                for c in ctx.elements()
            ]
        out = []
        for v in vecs:
            parts = []
            for (sz, off, d) in zip(sizes, offs, (d13, d24, d34)):
                coeffs = tuple(v[off:off + sz]) + (0,) * (d + 1 - sz)
                parts.append(BinaryForm(ctx, d, coeffs) if d >= 0 else None)
            out.append(tuple(parts))
        return out

    def degree(self) -> int:
        d13, d24, d34 = self.dpp
        d1, d2, d3, d4 = self.dprime
        d = d13 + d3 + d34 + d4 + d24
        D1, D2, D3, D4 = self.D
        B = (
            self.E[0] + self.E[1] + self.E[2] + self.E[3]
            + D1.lcm(D2).lcm(D3)
            + D1.lcm(D2).lcm(D4)
            + D1.gcd(D2).lcm(D3).lcm(D4)
        )
        return d - (d1 + d2 + d3 + d4) - B.degree()

    def splitting_type(self) -> SplittingType:
        maxd = max(self.dpp)
        m0 = -maxd - 2
        if self.h0(m0) != 0:
            raise InconsistentH0(f"h0({m0}) = {self.h0(m0)} != 0")
        # all three jumps happen at m <= -e3 <= 2*maxd - degree
        mhi = max(m0 + 1, 2 * maxd - self.degree() + 2)
        es = []
        prev, prevdelta = 0, 0
        m = m0
        while m < mhi and len(es) < 3:
            m += 1
            cur = self.h0(m)
            delta = cur - prev
            if delta < prevdelta or delta > 3:
                raise InconsistentH0(f"h0 jump {delta} at m={m} after {prevdelta}")
            es.extend([-m] * (delta - prevdelta))
            prev, prevdelta = cur, delta
        if len(es) != 3:
            raise InconsistentH0(f"only {len(es)} slopes found by m={mhi}")
        st = SplittingType(*es)
        check = sum(max(0, e + m + 2) for e in es)
        if self.h0(m + 1) != check:
            raise InconsistentH0(f"h0({m + 1}) = {self.h0(m + 1)}, profile wants {check}")
        return st

    def h1(self, m: int = 0) -> int:
        return sum(max(0, -e - m - 1) for e in self.splitting_type())

    def __repr__(self):
        return (
            f"CongruenceBundle(q={self.ctx.q}, d'={self.dprime}, "
            f"d''={self.dpp}, deg={self.degree()})"
        )


def build_bundle(aprime, dpp, D=None, E=None) -> CongruenceBundle:
    aprime = tuple(aprime)
    if len(aprime) != 4:
        raise ValueError(f"a' needs four forms, got {len(aprime)}")
    ctx = aprime[0].ctx
    dpp = tuple(dpp)
    D = tuple(D) if D is not None else _ZERO4
    E = tuple(E) if E is not None else _ZERO4

    for i, f in enumerate(aprime, 1):
        if f.is_zero():
            raise PreconditionViolated(f"a{i} is the zero form")
    for i, j in combinations(range(4), 2):
        if not forms_coprime(aprime[i], aprime[j]):
            raise PreconditionViolated(f"a{i + 1} and a{j + 1} share a zero")
    if any(x < 0 for x in dpp):
        raise PreconditionViolated(f"negative ambient degree in d''={dpp}")
    d1, d2, d3, d4 = (f.d for f in aprime)
    d13, d24, d34 = dpp
    if d13 - d34 != d4 - d1 or d24 - d34 != d3 - d2:
        raise PreconditionViolated(
            "degrees off the line pairing relations: "
            "need d13-d34 = d4-d1 and d24-d34 = d3-d2"
        )

    named = [(f"D{i + 1}", D[i]) for i in range(4)] + [
        (f"E{i + 1}", E[i]) for i in range(4)
    ]
    for label, dv in named:
        if not dv.is_squarefree():
            raise PreconditionViolated(f"{label} is not squarefree")
        for pt in dv.support():
            _check_support_point(pt, ctx, label)
    for (li, di), (lj, dj) in combinations(named, 2):
        if not di.disjoint(dj):
            raise PreconditionViolated(f"{li} and {lj} share support")

    divs = tuple(divisor_of(f) for f in aprime)
    for i in range(4):
        if not E[i].leq(divs[i]):
            raise PreconditionViolated(f"E{i + 1} exceeds div(a{i + 1})")
        for j in range(4):
            if i != j and not D[i].disjoint(divs[j]):
                raise PreconditionViolated(f"D{i + 1} meets div(a{j + 1})")

    def F_of(i, j):
        k, l = (m for m in (1, 2, 3, 4) if m not in (i, j))
        return D[i - 1].lcm(D[j - 1]) + E[k - 1] + E[l - 1]

    F = {(i, j): F_of(i, j) for i in (1, 2, 3) for j in range(i + 1, 5)}
    return CongruenceBundle(aprime, dpp, D, E, _plucker_conditions(aprime, F))


# -- seeded sampling diagnostics ----------------------------------------------

# draws sample_bundles may make over all its samples before it gives up
_ATTEMPT_BUDGET = 200_000


def _squarefree_pool(ctx: FieldCtx):
    """All squarefree divisors of degree <= 2 (including zero)."""
    pts1 = [INF] + irreducibles(ctx, 1)
    pts2 = [f for f in irreducibles(ctx, 2) if pdeg(f) == 2]
    pool = [Divisor()]
    pool += [Divisor.point(p) for p in pts1]
    pool += [Divisor.point(a) + Divisor.point(b) for a, b in combinations(pts1, 2)]
    pool += [Divisor.point(p) for p in pts2]
    return pool


def _small_subdivisors(dv: Divisor):
    """Squarefree subdivisors of degree <= 2 with points of degree <= 2."""
    pts = [p for p in dv.support() if point_degree(p) <= 2]
    out = [Divisor()]
    out += [Divisor.point(p) for p in pts]
    out += [
        Divisor.point(a) + Divisor.point(b)
        for a, b in combinations(pts, 2)
        if point_degree(a) + point_degree(b) <= 2
    ]
    return out


def sample_bundles(q, alpha: CurveClass, samples: int, seed: int):
    """Yield `samples` seeded random bundles with the degrees of `alpha`.

    Draws a' uniformly from nonzero pairwise-coprime tuples by rejection,
    D_i from squarefree divisors of degree <= 2, E_i from such subdivisors
    of div(a_i), each disjoint from what it must miss, so every draw meets
    build_bundle's preconditions.  Deterministic by seed.
    """
    dd = eff_dual_data(alpha)
    ctx = field_of_order(q)
    dprime = tuple(dd[f"E{i}"] for i in (1, 2, 3, 4))
    dpp = (dd["L13"], dd["L24"], dd["L34"])
    pool = _squarefree_pool(ctx)
    attempts = 0
    for i in range(samples):
        rng = random.Random(f"{seed}:{i}")
        while True:
            attempts += 1
            if attempts > _ATTEMPT_BUDGET:
                raise BudgetExceeded(
                    f"{attempts} draws without {samples} valid samples"
                )
            forms = tuple(
                form_from_index(ctx, d, rng.randrange(1, ctx.q ** (d + 1)))
                for d in dprime
            )
            if all(forms_coprime(f, g) for f, g in combinations(forms, 2)):
                break
        # draw each divisor from its allowed set (never empty: 0 qualifies)
        adivs = [divisor_of(f) for f in forms]
        used = Divisor()
        Dv = []
        for k in range(4):
            others = reduce(Divisor.lcm, adivs[:k] + adivs[k + 1:])
            choices = [
                dv for dv in pool
                if dv.disjoint(others) and dv.disjoint(used)
            ]
            pick = rng.choice(choices)
            Dv.append(pick)
            used = used.lcm(pick)
        Ev = []
        for k in range(4):
            choices = [
                dv for dv in _small_subdivisors(adivs[k])
                if dv.disjoint(used)
            ]
            pick = rng.choice(choices)
            Ev.append(pick)
            used = used.lcm(pick)
        yield build_bundle(forms, dpp, tuple(Dv), tuple(Ev))


def hn_statistics(q, alpha: CurveClass, samples: int, seed: int) -> dict:
    """Splitting-type statistics over `sample_bundles`, keyed for JSON."""
    h1pos = 0
    excess, splits, degs = Counter(), Counter(), Counter()
    for bundle in sample_bundles(q, alpha, samples, seed):
        st = bundle.splitting_type()
        deg = bundle.degree()
        if bundle.h1() > 0:
            h1pos += 1
        excess[str(Fraction(3 * st.e1 - deg, 3))] += 1
        splits[f"{st.e1},{st.e2},{st.e3}"] += 1
        degs[str(deg)] += 1
    return {
        "q": q,
        "class": list(alpha),
        "samples": samples,
        "seed": seed,
        "h1_positive": h1pos,
        "h1_positive_fraction": str(Fraction(h1pos, samples) if samples else 0),
        "excess_e1": dict(sorted(excess.items())),
        "splitting": dict(sorted(splits.items())),
        "degree": dict(sorted(degs.items())),
    }
