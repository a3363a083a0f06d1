"""Counting morphisms from the line to the split quintic del Pezzo surface.

A morphism of class alpha corresponds to a ten-tuple of nonzero binary forms
(a_1..a_4, a_12..a_34), deg a_J = alpha . [J], satisfying the five Pluecker
relations

    P1: a4*a14 - a3*a13 + a2*a12 = 0
    P2: a4*a24 - a3*a23 + a1*a12 = 0
    P3: a4*a34 - a2*a23 + a1*a13 = 0
    P4: a3*a34 - a2*a24 + a1*a14 = 0
    P5: a12*a34 - a13*a24 + a23*a14 = 0

together with coprimality for the thirty pairs of coordinates indexed by
disjoint pairs of lines.  The five-torus acts freely on solutions, so the
raw solution count m is divisible by (q-1)^5 and hom = m/(q-1)^5.

count_naive enumerates all ten forms with incremental pruning; it is the
oracle.  count_fast fixes the quadruple a' = (a1..a4) and solves P2, P3
and P4 as one linear system in the coefficients of the six varying forms
(a13, a24, a34, a14, a23, a12).  P1 and P5 then hold, because a1*P1 and
a1*P5 lie in the ideal of P2, P3, P4 and a1 is nonzero.  Since scaling a'
by (F_q^*)^4 permutes solutions, only first-nonzero-coefficient-one
representatives of a' are enumerated and the outer factor (q-1)^4 is
restored at the end.

The kernel, an F_q-space of dimension dim, is solved as an F_p-space of
dimension e*dim (q = p^e) on packed ints, one lane per base-p digit of each
coefficient of the six varying forms.  a13, a14, a12 and a23, which read a1,
a2 and a3 alone, are eliminated first, once per run of representatives that
share them.  Acceptance depends only on the zero sets of the six forms, so
_projective_walk visits one vector per F_q-line by a p-ary Gray code (at p =
2 an XOR per step inside itertools.accumulate) and _count_inner multiplies
its accepted total by q - 1.  _check_scaling checks that premise once per
shard, before any kernel is solved: each nonzero form of the slot degrees
of A and B and its multiple by a generator of F_q^* share a mask.
Coprimality is read off root masks: bit 0 is the point at infinity, then one
bit per monic irreducible, so two forms share a point exactly when their
masks meet.  A vector is accepted when its six forms are nonzero and the
masks of A = (a13, a24) miss those of B = (a34, a12); coprimality of every
other disjoint pair follows from P1-P4 (the lemma of _count_inner).

The kernel count is constant on the orbits of G = PGL2(F_q) x Stab acting on
normalised coprime quadruples:

- A change of variables g in PGL2(F_q) on the line maps the solutions over
  a' bijectively onto those over a' o g: it preserves degrees, the Pluecker
  relations, nonvanishing and coprimality, at infinity too.
- Stab is the set of permutations sigma of a1..a4 that keep their degrees.
  sigma lies in S4 < S5 = W(A4), which fixes H, permutes E1..E4 and sends
  L_ij to L_sigma(i)sigma(j); it permutes the five Pluecker relations up to
  sign and preserves the thirty disjoint pairs.  Since deg a_ij = a - d_i -
  d_j, equal E-degrees force equal L-degrees, so sigma maps the solutions
  over a' onto those over sigma a'.  Signs only flip some a_ij, which keeps
  nonvanishing and coprimality.
- sigma commutes with every g, so G is a direct product.

_orbit_reps walks the quadruples with form indices nondecreasing inside each
block of equal degree, in order, and marks each G-orbit when its least
member is reached: that member is the representative, and the other members
are skipped when the walk reaches them.  The members marked but not yet
reached are among the tuples the walk visits, which the budget bounds.  The
walk reads coprimality off root masks and composes the PGL2 images of a few
generators (see _orbit_images).  Every kernel has the Riemann-Roch
dimension _kernel_dim, so plan_count checks the work, len(reps) * q^dim,
against the budget before any kernel is solved; count_fast counts its
representatives in the calling process unless two or more workers are
asked for and the vectors to walk reach _POOL_MIN_WORK; then, being of equal
work, they are dealt in turn to a process pool.  Each shard solves, checks
and walks one representative at a time and weights its kernel count by the
orbit size.  A kernel of another dimension stops the count before it is
walked, though earlier kernels of its shard may already have been walked.

The tables that depend only on the field and one degree (the monic outer
forms, their PGL2 images and the root masks) are built once per process, on
first use after the budget checks, and kept in a bounded cache of
_TABLE_CACHE entries per kind (_outer_tables, _mask_table); every count at
that q shares them and none mutates them.  Each cache also keeps the
entries it holds within a bound (_OUTER_TABLE_ENTRIES image entries,
_MASK_TABLE_ENTRIES masks), dropping the least recently used tables first.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache, lru_cache, wraps
from itertools import accumulate, chain, combinations, product, zip_longest
from math import comb, factorial, prod
from operator import or_, xor
from typing import NamedTuple, Optional

from .errors import BudgetExceeded, DP5Error
from .gf import FieldCtx, field_of_order, prime_power
from .p1 import (
    DEFAULT_BUDGET, BinaryForm, divisor_count, form_from_index, irreducibles, pdeg,
    pgcd, pmul,
)
from .picard import LINES, CurveClass, _chamber_normalized, eff_dual_data, meets

# the ten coordinates (a1, a2, a3, a4, a12, a13, a14, a23, a24, a34), one per
# line, and the thirty pairs of them indexed by disjoint lines
COORD_NAMES = LINES
DISJOINT_PAIRS = tuple(
    (i, j) for i, j in combinations(range(10), 2) if not meets(LINES[i], LINES[j])
)


class CountResult(NamedTuple):
    q: int
    alpha: CurveClass
    pairings: tuple
    degree: int
    m_count: int
    hom: int
    method: str
    work: int
    quadruples: int = 0  # coprime normalised quadruples a' (count_fast only)
    orbits: int = 0  # their PGL2(F_q) orbits
    kernels: int = 0  # kernel counts run: one per orbit of PGL2(F_q) x Stab
    walked: int = 0  # kernel vectors walked: (q^dim - 1)/(q - 1) per kernel

    def ratio(self) -> Fraction:
        return Fraction(self.hom, self.q ** (self.degree + 2))


def _integer(name: str, value) -> int:
    """value, refused with ValueError unless it is an int and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _check_workers(workers: int):
    if _integer("workers", workers) < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _budget(budget: Optional[int]) -> int:
    """`budget`, else $DP5_BUDGET parsed as an int, else DEFAULT_BUDGET,
    checked to be an int >= 0."""
    name = "budget"
    if budget is None:
        name, text = "DP5_BUDGET", os.environ.get("DP5_BUDGET", str(DEFAULT_BUDGET))
        try:
            budget = int(text)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {text!r}") from None
    if _integer(name, budget) < 0:
        raise ValueError(f"{name} must be nonnegative, got {budget}")
    return budget


# -- naive enumeration ---------------------------------------------------------

# for each position, the disjoint pairs completed at that position
_PAIRS_AT = tuple(
    tuple(p for p in DISJOINT_PAIRS if max(p) == pos) for pos in range(10)
)


def _triple(f: BinaryForm):
    """(f, f(x, 1), whether f vanishes at infinity), as _coprime_triples reads."""
    dh = f.dehom()
    return f, dh, pdeg(dh) < f.d


def _forms_nonzero(ctx: FieldCtx, d: int):
    """All q^(d+1) - 1 nonzero forms of degree d, as check-ready triples."""
    return [_triple(form_from_index(ctx, d, i)) for i in range(1, ctx.q ** (d + 1))]


def _coprime_triples(ctx, a, b) -> bool:
    # both vanishing at infinity, or a common finite root
    if a[2] and b[2]:
        return False
    return pdeg(pgcd(ctx, a[1], b[1])) == 0


def count_naive(q: int, alpha: CurveClass, budget: Optional[int] = None) -> CountResult:
    """Reference count by full ten-fold enumeration with pruning."""
    alpha = CurveClass(*alpha)
    dd = eff_dual_data(alpha)
    prime_power(q)
    degs = [dd[name] for name in COORD_NAMES]
    budget = _budget(budget)
    est = 1
    for d in degs:
        est *= q ** (d + 1) - 1
        if est > budget:
            raise BudgetExceeded(f"naive enumeration needs {est} > budget {budget}")

    ctx = field_of_order(q)
    lists = [_forms_nonzero(ctx, d) for d in degs]
    # Pluecker checks become available once their last coordinate is placed
    plucker_at = {
        6: (((3, 6, 1), (2, 5, -1), (1, 4, 1)),),
        8: (((3, 8, 1), (2, 7, -1), (0, 4, 1)),),
        9: (
            ((3, 9, 1), (1, 7, -1), (0, 5, 1)),
            ((2, 9, 1), (1, 8, -1), (0, 6, 1)),
            ((4, 9, 1), (5, 8, -1), (7, 6, 1)),
        ),
    }

    chosen = [None] * 10
    m = 0
    work = 0

    def relation_holds(rel) -> bool:
        i0, j0, _ = rel[0]
        tot = [0] * (chosen[i0][0].d + chosen[j0][0].d + 1)
        for i, j, sign in rel:
            term = pmul(ctx, chosen[i][0].coeffs, chosen[j][0].coeffs)
            for k, c in enumerate(term):
                tot[k] = ctx.add(tot[k], c if sign > 0 else ctx.neg(c))
        return not any(tot)

    def place(pos: int):
        nonlocal m, work
        if pos == 10:
            m += 1
            return
        for cand in lists[pos]:
            work += 1
            chosen[pos] = cand
            if not all(
                _coprime_triples(ctx, chosen[i], cand) for i, _ in _PAIRS_AT[pos]
            ):
                continue
            if any(not relation_holds(rel) for rel in plucker_at.get(pos, ())):
                continue
            place(pos + 1)
        chosen[pos] = None

    place(0)
    _check_torus(m, q)
    return CountResult(
        q, alpha, dd.as_tuple(), dd.d, m, m // (q - 1) ** 5, "naive", work
    )


# -- fast enumeration ----------------------------------------------------------


def _monic_forms(ctx: FieldCtx, d: int):
    """Representatives with first nonzero coefficient 1, low index first."""
    q = ctx.q
    return [
        form_from_index(ctx, d, q**lead * (1 + q * idx))
        for lead in range(d + 1)
        for idx in range(q ** (d - lead))
    ]


def _pgl2(ctx: FieldCtx):
    """PGL2(F_q) as its q(q^2-1) matrices (a, b, c, d), first nonzero entry 1."""
    return [
        (a, b, c, d)
        for a in (0, 1)
        for b, c, d in product(range(ctx.q), repeat=3)
        if (a or b == 1) and ctx.sub(ctx.mul(a, d), ctx.mul(b, c))
    ]


def _orbit_images(ctx: FieldCtx, forms, group):
    """images[i][k]: index in forms of the normalised f_i(as+bt, cs+dt).

    forms is _monic_forms(ctx, deg); (a, b, c, d) is group[k], first nonzero
    entry 1.  Only W = (0 1; 1 0), T_b = (1 b; 0 1) and D_x = (1 0; 0 x) are
    substituted; as f o (gh) = (f o g) o h, the other columns compose theirs:
    (1 b; c d) = W T_c W D_x T_b with x = d - bc, and (0 1; c d) ~ W D_x T_b
    with b = d/c, x = 1/c.
    """
    deg = forms[0].d
    index = {f.coeffs: i for i, f in enumerate(forms)}

    @cache
    def substitute(a, b, c, d):
        # the image of s^j t^(deg-j) is (as+bt)^j (cs+dt)^(deg-j)
        up, vp = [(1,)], [(1,)]
        for _ in range(deg):
            up.append(pmul(ctx, up[-1], (b, a)))
            vp.append(pmul(ctx, vp[-1], (d, c)))
        mono = [pmul(ctx, up[j], vp[deg - j]) for j in range(deg + 1)]
        perm = []
        for f in forms:
            img = [0] * (deg + 1)
            for cj, m in zip(f.coeffs, mono):
                for k, mk in enumerate(m):
                    img[k] = ctx.add(img[k], ctx.mul(cj, mk))
            inv = ctx.inv(next(x for x in img if x))
            perm.append(index[tuple(ctx.mul(inv, x) for x in img)])
        return perm

    def then(g, h):  # the column of gh from those of g and h
        return list(map(h.__getitem__, g))

    @cache
    def lower(c):  # (1 0; c 1)
        return then(then(w, substitute(1, c, 0, 1)), w)

    @cache
    def upper(b, x):  # (1 b; 0 x)
        return then(substitute(1, 0, 0, x), substitute(1, b, 0, 1))

    w = substitute(0, 1, 1, 0)
    cols = [
        then(lower(c), upper(b, ctx.sub(d, ctx.mul(b, c)))) if a
        else then(w, upper(ctx.div(d, c), ctx.inv(c)))
        for a, b, c, d in group
    ]
    return list(zip(*cols))


def _check_torus(m: int, q: int):
    if m % (q - 1) ** 5:
        raise DP5Error(f"torus action is not free: (q-1)^5 does not divide {m}")


# the per-(q, degree) tables of _mask_table and _outer_tables are kept for
# this many (q, degree) pairs each, for the life of the process
_TABLE_CACHE = 32


# the six varying slots, in the order of the packed kernel vectors
_SLOTS = ("L13", "L24", "L34", "L14", "L23", "L12")
# complementary lines (L13, L24 and so on) meet, every other slot pair is
# disjoint: the cross pairs of groups A, B and C, which the four A-B pairs
# decide (the lemma of _count_inner), so only A and B's degrees get masks
_SLOT_GROUPS = ((0, 1), (2, 5), (3, 4))
_AB_SLOTS = tuple(_SLOTS[s] for s in _SLOT_GROUPS[0] + _SLOT_GROUPS[1])
# the linear system of the kernel, one (slot, outer form, sign) per term:
#   P4: a1*a14 - a2*a24 + a3*a34 = 0
#   P3: a2*a23 - a4*a34 - a1*a13 = 0
#   P2: a1*a12 - a3*a23 + a4*a24 = 0
_SYSTEM = (
    ((3, 0, 1), (1, 1, -1), (2, 2, 1)),
    ((4, 1, 1), (2, 3, -1), (0, 0, -1)),
    ((5, 0, 1), (4, 2, -1), (1, 3, 1)),
)
# _kernel_coords' slot order: a13, a14, a12, a23, which a4 does not feed, first
_ELIMINATION = (0, 3, 5, 4, 1, 2)


def _lane_width(p: int) -> int:
    """Bits per base-p digit: 1 at p = 2, else a sum of two digits plus a
    flag bit."""
    return 1 if p == 2 else (2 * p - 1).bit_length() + 1


def _lane_constants(p: int, lanes: int):
    """(K, H) for a lane-wise add mod p over lanes lanes, s - p * (((s + K) &
    H) >> (w - 1)) for s = x + y: K adds 2^(w-1) - p to each lane, H picks the
    flag bits, set where a lane reached p."""
    w = _lane_width(p)
    ones = ((1 << w * lanes) - 1) // ((1 << w) - 1)
    return ones * ((1 << (w - 1)) - p), ones << (w - 1)


def _packed_basis(ctx: FieldCtx, vectors):
    """X^i * v packed for each coefficient tuple v and i < e: an F_p-basis
    of the F_q-span of the v.  A packed int holds one lane per base-p digit
    of each coefficient, low digit first."""
    p, w = ctx.p, _lane_width(ctx.p)
    basis = []
    for v in vectors:
        for i in range(ctx.e):
            x = shift = 0
            for c in v:
                c = ctx.mul(p**i, c)
                for _ in range(ctx.e):
                    x |= (c % p) << shift
                    c //= p
                    shift += w
            basis.append(x)
    return basis


@lru_cache(maxsize=_TABLE_CACHE)
def _system_layout(p: int, e: int, degs6, degs4):
    """(lanes, top, prefix, base, fourth): _SYSTEM packed over F_(p^e), the
    unknowns' lanes in (slot, coefficient, digit) order below bit top and
    the equations' above, lanes in all.  A slot is (own, degree, terms): the
    bit of its first lane and the (outer form, sign, bit) of each equation
    it feeds from bit up.  prefix is _ELIMINATION's first four slots, base
    the other two without their a4 terms and fourth those terms alone."""
    w = _lane_width(p)
    lanes = e * (sum(degs6) + 6)
    top, terms = w * lanes, [[] for _ in degs6]
    for eq in _SYSTEM:
        for s, i, sign in eq:
            terms[s].append((i, sign, w * lanes))
        lanes += e * (degs4[eq[0][1]] + degs6[eq[0][0]] + 1)
    own = [1 << w * e * (sum(degs6[:s]) + s) for s in range(6)]
    slots = tuple((own[s], degs6[s], tuple(terms[s])) for s in _ELIMINATION)
    base = tuple((o, d, tuple(t for t in ts if t[0] < 3)) for o, d, ts in slots[4:])
    fourth = tuple((0, d, tuple(t for t in ts if t[0] == 3)) for _, d, ts in slots[4:])
    return lanes, top, slots[:4], base, fourth


def _kernel_coords(afixed, degs6, cache):
    """(dim, basis): the solutions of _SYSTEM for the fixed quadruple, an
    F_p-basis of e*dim packed ints laid out by _system_layout.

    Each unknown is a row, its own lane and the equation lanes it feeds; the
    rows go slot by slot in _ELIMINATION order, each in (coefficient, digit)
    order, and _eliminate makes each a pivot or a kernel vector.  A pivot
    row holds no free unknown but its own, so each kernel vector is 1 on its
    own digit and 0 on the other free digits.  The kernel is F_q-linear, so
    the basis comes in blocks of e, one per free coefficient, the first with
    that coefficient 1 and the other free ones 0, as _projective_walk needs.
    cache is a dict kept for one shard of one count: each signed outer
    form's _packed_basis, the rows each a4 feeds, and the pivots and kernel
    vectors of the first four slots for the last (a1, a2, a3), which alone
    they read.  The basis is the same whatever it holds."""
    ctx = afixed[0].ctx
    e, w = ctx.e, _lane_width(ctx.p)

    def rows(slots):  # coefficient j's are the constant coefficient's, j up
        out = []
        for own, d, terms in slots:
            fed = [own << w * k for k in range(e)]
            for i, sign, bit in terms:
                key = (afixed[i].coeffs, sign if ctx.p > 2 else 1)  # -1 = 1 at p = 2
                xs = cache.get(key) or cache.setdefault(key, _packed_basis(
                    ctx, [key[0] if sign > 0 else [ctx.neg(c) for c in key[0]]]))
                for k, x in enumerate(xs):
                    fed[k] |= x << bit
            out += [f << j for j in range(0, w * e * (d + 1), w * e) for f in fed]
        return out

    key = (ctx.q, degs6, afixed[0].coeffs, afixed[1].coeffs, afixed[2].coeffs)
    prefix = cache.get("prefix")
    if prefix is None or prefix[0] != key:  # key fixes the degrees layout reads
        layout = _system_layout(ctx.p, e, degs6, tuple(f.d for f in afixed))
        pivots, basis = [0] * (layout[0] + 1), []
        _eliminate(ctx.p, layout, rows(layout[2]), pivots, basis)
        prefix = cache["prefix"] = key, layout, pivots, basis, rows(layout[3])
    _, layout, pivots, basis, base = prefix
    c4 = afixed[3].coeffs
    fourth = cache.get(c4) or cache.setdefault(c4, rows(layout[4]))
    pivots, basis = pivots[:], basis[:]
    _eliminate(ctx.p, layout, map(or_, base, fourth), pivots, basis)
    return len(basis) // e, basis


def _eliminate(p: int, layout, rows, pivots, basis):
    """Reduce each row by the pivot at its highest equation lane until it
    is a new pivot or its bits from top up vanish, then append it to basis.
    pivots (lanes + 1 entries, 0 for none) is keyed by bit length at p = 2,
    where a row operation is an XOR, and by top lane at odd p."""
    lanes, top = layout[:2]
    if p == 2:
        for r in rows:
            while (b := r.bit_length()) > top:
                if not pivots[b]:
                    pivots[b] = r
                    break
                r ^= pivots[b]
            else:
                basis.append(r)
        return
    w = _lane_width(p)
    K, H = _lane_constants(p, lanes)

    def add(x, y):  # lane-wise mod p
        s = x + y
        return s - p * (((s + K) & H) >> (w - 1))

    def scale(x, c):  # c*x lane-wise for 0 < c < p, by doubling
        y = x
        for bit in bin(c)[3:]:
            y = add(add(y, y), x) if bit == "1" else add(y, y)
        return y

    for r in rows:
        while r >> top:
            b = (r.bit_length() - 1) // w
            c = r >> w * b & (1 << w) - 1
            if not pivots[b]:
                pivots[b] = scale(r, pow(c, -1, p))
                break
            r = add(r, scale(pivots[b], p - c))
        else:
            basis.append(r)


# Gray-code rulers of up to this many steps are kept; longer ones repeat one
_RULER_STEPS = 1 << 12


@cache
def _short_ruler(p: int, n: int) -> bytes:
    """nu_p(t) for t = 1 .. p^n - 1: the basis index of Gray step t."""
    if n == 0:
        return b""
    r = _short_ruler(p, n - 1)
    return (r + bytes((n - 1,))) * (p - 1) + r


def _ruler(p: int, n: int):
    """nu_p(t) for t = 1 .. p^n - 1, with the short ruler of b digits
    repeated past _RULER_STEPS: step k * p^b between repeats is b + nu_p(k)."""
    b = n
    while b > 1 and p**b > _RULER_STEPS:
        b -= 1
    if b == n:
        return _short_ruler(p, n)
    low = _short_ruler(p, b)
    high = (chain((b + k,), low) for k in _ruler(p, n - b))
    return chain(low, chain.from_iterable(high))


def _gray(p: int, basis, n: int, x: int):
    """x, then x plus each nonzero F_p-combination of basis[:n] once, by the
    modular p-ary Gray code: step t adds basis[nu_p(t)], so after it the
    coordinate on basis[k] is t_k - t_(k+1) mod p in t's base-p digits.  A
    step is an XOR at p = 2, else a lane-wise add mod p."""
    if p == 2:
        return accumulate(map(basis.__getitem__, _ruler(2, n)), xor, initial=x)
    return _odd_gray(p, basis, [(n, x)])


def _odd_gray(p: int, basis, blocks):
    """_gray(p, basis, n, x) at odd p for each (n, x) of blocks in turn, with
    the lane constants of basis computed once for all of them."""
    lanes = -(-max(map(int.bit_length, basis), default=0) // _lane_width(p))
    K, H = _lane_constants(p, lanes)
    w = _lane_width(p) - 1
    for n, x in blocks:
        yield x
        for y in map(basis.__getitem__, _ruler(p, n)):
            s = x + y
            x = s - p * (((s + K) & H) >> w)
            yield x


def _walk(p: int, basis):
    """Every nonzero F_p-combination of the packed basis, once each."""
    walk = _gray(p, basis, len(basis), 0)
    next(walk)  # zero
    return walk


def _projective_walk(p: int, e: int, basis):
    """One vector of each F_q-line of the span of a _kernel_coords basis:
    for j = 0, e, 2e, ..., basis[j] plus every F_p-combination of basis[:j]
    (a nonzero kernel vector has one multiple whose last free coefficient
    is 1), sum of q^(j/e) = (q^dim - 1)/(q - 1) vectors; at q = 2, _walk."""
    if p == 2 and e == 1:
        return _walk(2, basis)
    blocks = [(j, basis[j]) for j in range(0, len(basis), e)]
    if p == 2:
        return chain.from_iterable(_gray(2, basis, n, x) for n, x in blocks)
    return _odd_gray(p, basis, blocks)


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int
    entries: int  # size(result) summed over the results held


def _lru_within(entries, size):
    """functools.lru_cache(maxsize=_TABLE_CACHE) for a function of (q, d)
    that also keeps size(result), summed over the results it holds, within
    entries: the least recently used results go first, and a result larger
    than entries alone is returned but not kept.  cache_info() adds the
    entries held to lru_cache's four fields."""

    def wrap(build):
        kept = {}  # (q, d): (result, size), least recently used first
        stats = [0, 0]  # hits, misses

        @wraps(build)
        def cached(q, d):
            hit = kept.pop((q, d), None)
            if hit is not None:
                stats[0] += 1
                kept[q, d] = hit
                return hit[0]
            stats[1] += 1
            result = build(q, d)
            n = size(result)
            if n <= entries:
                kept[q, d] = result, n
                held = sum(k for _, k in kept.values())
                while len(kept) > _TABLE_CACHE or held > entries:
                    held -= kept.pop(next(iter(kept)))[1]
            return result

        def cache_clear():
            kept.clear()
            stats[:] = [0, 0]

        cached.cache_info = lambda: _CacheInfo(
            *stats, _TABLE_CACHE, len(kept), sum(k for _, k in kept.values()))
        cached.cache_clear = cache_clear
        return cached

    return wrap


# _outer_tables and _mask_table keep no more entries than these, summed over
# their tables: image entries (len(forms) times the columns of a row) of
# about 9 bytes, so about 38 MB, and masks of 110-140 bytes, so 30-37 MB
_OUTER_TABLE_ENTRIES = 1 << 22
_MASK_TABLE_ENTRIES = 1 << 18


@lru_cache(maxsize=_TABLE_CACHE)
def _unit_bases(q: int, d: int):
    """The _packed_basis of the unit forms of degree d over F_q and that of
    their multiples by the generator g: g is F_p-linear, so a _walk over
    each visits every nonzero form f and g*f in step."""
    ctx = field_of_order(q)
    basis = _packed_basis(ctx, [(0,) * j + (c,) + (0,) * (d - j)
                                for c in (1, ctx.generator) for j in range(d + 1)])
    return tuple(basis[: ctx.e * (d + 1)]), tuple(basis[ctx.e * (d + 1):])


@_lru_within(_MASK_TABLE_ENTRIES, len)
def _mask_table(q: int, d: int):
    """The root mask of each packed nonzero form of degree d over F_q.

    Bit 0 is the point at infinity, the form t, then one bit per monic
    irreducible in p1.irreducibles order, so every table numbers the points
    as a prefix of one order and tables of any degrees and counts combine.
    Every nonzero form, walked over _unit_bases, starts at 0; then the
    multiples pi*g of each point pi of degree <= d get its bit.  The table
    is shared by every count at q and must not be mutated.
    """
    ctx = field_of_order(q)
    table = dict.fromkeys(_walk(ctx.p, _unit_bases(q, d)[0]), 0)
    for bit, pi in enumerate([(1, 0)] + irreducibles(ctx, d)):
        k = len(pi) - 1
        shifts = [(0,) * j + pi + (0,) * (d - k - j) for j in range(d - k + 1)]
        for key in _walk(ctx.p, _packed_basis(ctx, shifts)):
            table[key] |= 1 << bit
    return table


def _root_masks(ctx: FieldCtx, degrees):
    """Root-mask tables for the slot degrees of one count: tables[d] maps
    each packed nonzero form of degree d to its root mask.  Each is the
    _mask_table of (q, d), built once per process and shared, read-only."""
    return {d: _mask_table(ctx.q, d) for d in set(degrees)}


@_lru_within(_OUTER_TABLE_ENTRIES, lambda tables: len(tables[1]) * len(tables[1][0]))
def _outer_tables(q: int, d: int):
    """(forms, images, masks) for the outer forms of degree d over F_q.

    forms is _monic_forms, images its _orbit_images under _pgl2 and masks
    the _mask_table entry of each form, all tuples shared by every count at
    q.  The one form of degree 0 is fixed by the whole group, so its row is
    the identity column alone and no group is built for it.  The tables
    hold len(forms) * q(q^2 - 1) image entries (len(forms) at d = 0), which
    the cache keeps within _OUTER_TABLE_ENTRIES.
    """
    ctx = field_of_order(q)
    forms = tuple(_monic_forms(ctx, d))
    group = _pgl2(ctx) if d else [(1, 0, 0, 1)]
    images = tuple(_orbit_images(ctx, forms, group))
    table = _mask_table(q, d)
    keys = _packed_basis(ctx, [f.coeffs for f in forms])[:: ctx.e]
    return forms, images, tuple(table[k] for k in keys)


def _check_scaling(ctx: FieldCtx, masks):
    """DP5Error unless each nonzero form f of a root-mask table in masks,
    {d: table}, has the mask of g*f, walked in step over _unit_bases; g =
    ctx.generator spans F_q^*, so every multiple of a vector gets its verdict."""
    for d, table in masks.items():
        basis, scaled = _unit_bases(ctx.q, d)
        masks_of_forms = list(map(table.get, _walk(ctx.p, basis)))
        if masks_of_forms != list(map(table.get, _walk(ctx.p, scaled))):
            raise DP5Error(
                f"a form of degree {d} and its multiple by {ctx.generator} "
                f"get different root masks over F_{ctx.q}: acceptance is "
                "not invariant under scaling"
            )


@lru_cache(maxsize=_TABLE_CACHE)
def _slot_layout(p: int, e: int, degs6):
    """(shift, key mask, degree) of each slot of a packed kernel vector over
    F_(p^e), in _SLOT_GROUPS order."""
    ends = [0, *accumulate(_lane_width(p) * e * (d + 1) for d in degs6)]
    slots = [(a, (1 << b - a) - 1, d) for a, b, d in zip(ends, ends[1:], degs6)]
    return tuple(slots[s] for group in _SLOT_GROUPS for s in group)


def _count_inner(ctx: FieldCtx, degs6, vectors, masks):
    """Accepted kernel vectors for the fixed quadruple, and the q^dim they
    are drawn from.

    vectors is the packed F_p-basis of _kernel_coords, masks the _root_masks
    of the slot degrees of A and B.  A vector is accepted when its six
    slots are nonzero and groups A = (L13, L24) and B = (L34, L12) share no
    point, so an F_q^* multiple gets its verdict: _projective_walk visits
    one vector per F_q-line, and each accepted line counts q - 1; the shard
    has first checked each form of masks against its generator multiple
    (_check_scaling).  A and B are read a slot at a time, rejecting once
    they meet; a zero slot among them is a KeyError, re-raised if none is.
    C = (L14, L23) is only tested for zero, by this lemma.

    Let a1..a4 be pairwise coprime and the slots solve P1-P4, P_i: +-a_j*a_ij
    +- a_k*a_ik +- a_l*a_il = 0 for {i, j, k, l} = {1..4}.  If a point x
    divides a_ij and a_ik, P_i puts it on a_l*a_il: on a_il, or on a_l, so
    not on a_k, and P_j puts it on a_k*a_jk, so on a_jk.  x divides a star
    (a_ij, a_ik, a_il) or a triangle (a_ij, a_ik, a_jk), one slot of each
    group, so the twelve disjoint slot pairs are coprime exactly when the
    four between A and B are.  If x divides a_l and a_ij, l not in {i, j},
    P_i puts it on a_ik, so the outer forms need no test either.
    """
    layout = _slot_layout(ctx.p, ctx.e, degs6)
    # A is slots 0 1, B 2 3, C 4 5; slot 0 is at shift 0, none above slot 3
    (_, m0, d0), (s1, m1, d1), (s2, m2, d2), (s3, _, d3) = layout[:4]
    (s4, m4, _), (s5, m5, _) = layout[4:]
    t0, t1, t2, t3 = map(masks.__getitem__, (d0, d1, d2, d3))

    accepted = 0
    for x in _projective_walk(ctx.p, ctx.e, vectors):
        try:
            g, h = t0[x & m0], t3[x >> s3]
            if g & h:
                continue
            h |= t2[x >> s2 & m2]
            if g & h or t1[x >> s1 & m1] & h:
                continue
        except KeyError:
            if x & m0 and x >> s1 & m1 and x >> s2 & m2 and x >> s3:
                raise
            continue
        if x >> s4 & m4 and x >> s5 & m5:
            accepted += 1
    return accepted * (ctx.q - 1), ctx.p ** len(vectors)


def _orbit_reps(q: int, pairings):
    """One representative per G-orbit of coprime normalised quadruples.

    G = PGL2(F_q) x Stab, where Stab permutes positions of a1..a4 inside each
    run of equal consecutive degrees (after chamber_normalize, d1 <= .. <= d4,
    so the runs are the blocks of equal degree).  The walk visits, in
    lexicographic order, only tuples of form indices that are nondecreasing
    inside each run; the forms of t are pairwise coprime when their
    _root_masks are disjoint.  A tuple t not yet marked is the least member
    of its orbit, so it is kept, and its other run-sorted members go into
    seen by their mixed-radix index until the walk reaches them; seen holds
    no more than the tuples the walk visits.  A member is ranked with one
    sorted() of its PGL2 image: the image indices of run r are first lifted
    by r times the largest form count, so the sort keeps every run in its
    own positions and sorts inside it, and the lifts' constant share of the
    mixed-radix index is taken off.  Returns a list of (coeffs,
    size, pgl2_orbits): the four forms as coefficient tuples, |G.t|, and the
    number of PGL2 orbits inside G.t, which is |G.t| / |PGL2.t|.  The forms,
    images and masks of each degree come from _outer_tables, built once per
    process in a bounded cache; plan_count checks their budget first.
    """
    dd = dict(zip(LINES, pairings))
    degs = (dd["E1"], dd["E2"], dd["E3"], dd["E4"])
    outer = {d: _outer_tables(q, d) for d in set(degs)}
    (f1, o1, m1), (f2, o2, m2), (f3, o3, m3), (f4, o4, m4) = (outer[d] for d in degs)
    runs = _runs(degs)
    # inside a run the walk keeps form indices nondecreasing
    tied = [p > 0 and degs[p] == degs[p - 1] for p in range(4)]
    n2, n3, n4 = len(m2), len(m3), len(m4)
    # each position's lift, r * step in run r, and the share of the
    # mixed-radix index that the lifts add
    step = max(len(m1), n2, n3, n4)
    l1, l2, l3, l4 = (r * step for r, (a, b) in enumerate(runs) for _ in range(a, b))
    shift = ((l1 * n2 + l2) * n3 + l3) * n4 + l4

    def lifted(lift, row):  # the first run's rows are not lifted
        return map(lift.__add__, row) if lift else row

    reps, seen = [], set()
    for i1, k1 in enumerate(m1):
        for i2 in range(i1 if tied[1] else 0, n2):
            if k1 & m2[i2]:
                continue
            k12 = k1 | m2[i2]
            for i3 in range(i2 if tied[2] else 0, n3):
                if k12 & m3[i3]:
                    continue
                k123 = k12 | m3[i3]
                base = ((i1 * n2 + i2) * n3 + i3) * n4
                for i4 in range(i3 if tied[3] else 0, n4):
                    if k123 & m4[i4]:
                        continue
                    if base + i4 in seen:
                        seen.remove(base + i4)
                        continue
                    # unmarked, so the least member of its orbit: mark the rest
                    t = (i1, i2, i3, i4)
                    # a degree-0 row is one column, its form fixed: degrees
                    # ascend, so it is in the first run, which is not lifted
                    pgl2_orbit = set(zip_longest(
                        o1[i1], lifted(l2, o2[i2]), lifted(l3, o3[i3]),
                        lifted(l4, o4[i4]), fillvalue=0))
                    # the mixed-radix index of each member, run-sorted
                    members = {((a * n2 + b) * n3 + c) * n4 + d - shift
                               for a, b, c, d in map(sorted, pgl2_orbit)}
                    # PGL2 permutes the forms of each degree, so every member
                    # repeats entries as t does and has |Stab.t| arrangements
                    size = len(members) * _arrangements(t, runs)
                    members.discard(base + i4)
                    seen |= members
                    coeffs = (f1[i1].coeffs, f2[i2].coeffs, f3[i3].coeffs, f4[i4].coeffs)
                    reps.append((coeffs, size, size // len(pgl2_orbit)))
    if seen:
        raise DP5Error(f"{len(seen)} orbit members were marked but never reached")
    return reps


def _runs(degs):
    """(start, end) slices of the runs of equal consecutive degrees."""
    bounds = [0] + [p for p in range(1, len(degs)) if degs[p] != degs[p - 1]]
    return list(zip(bounds, bounds[1:] + [len(degs)]))


def _arrangements(t, runs) -> int:
    """|Stab.t|: the distinct rearrangements of t inside each run."""
    n = 1
    for a, b in runs:
        n *= factorial(b - a)
        for v in set(t[a:b]):
            n //= factorial(t[a:b].count(v))
    return n


# a process pool starts only for this many kernel vectors or more.  Its
# start-up and teardown take 11.5 ms for two workers on a 2-vCPU x86-64
# guest; at the walk's 0.74-2.55 M vectors/s there that is 3-12 % of the
# walk at the gate, which was set when the walk ran at 0.24-0.62 M/s
_POOL_MIN_WORK = 250_000


def _kernel_dim(dd) -> int:
    """The kernel dimension when h1 = 0: deg + 3 of the zero-divisor bundle."""
    return dd["L13"] + dd["L24"] + dd["L34"] - dd["E1"] - dd["E2"] + 3


def _fast_worker(args):
    """Count one shard: args is (q, pairings, reps), reps a share of
    _orbit_reps.  Each representative's kernel is solved, checked to have
    dimension _kernel_dim (DP5Error naming h1 > 0 if not) and walked before
    the next one is solved, with one _kernel_coords cache and one BinaryForm
    per outer form.  _check_scaling first walks the forms of the slot
    degrees of A and B in step with their generator multiples.
    Returns the accepted vectors weighted by orbit size."""
    q, pairings, reps = args
    ctx = field_of_order(q)
    dd = dict(zip(LINES, pairings))
    degs6 = tuple(dd[name] for name in _SLOTS)
    want = _kernel_dim(dd)
    masks = _root_masks(ctx, [dd[name] for name in _AB_SLOTS])
    _check_scaling(ctx, masks)
    total, cache = 0, {}
    forms = {c: BinaryForm(ctx, len(c) - 1, c) for c in {c for r in reps for c in r[0]}}
    for coeffs, size, _ in reps:
        afixed = tuple(map(forms.__getitem__, coeffs))
        dim, basis = _kernel_coords(afixed, degs6, cache)
        if dim != want:
            raise DP5Error(f"kernel dimension {dim} != {want} over {coeffs}: h1 > 0")
        total += _count_inner(ctx, degs6, basis, masks)[0] * size
    return total


class CountPlan(NamedTuple):
    """A fast count whose gates have passed: the class as given, with the
    pairings and degree its CountResult reports, the chamber pairings the
    walk reads, _orbit_reps' representatives, the work and the vectors to
    walk, len(reps) * q^dim and len(reps) * (q^dim - 1)/(q - 1)."""
    q: int
    alpha: CurveClass
    pairings: tuple
    degree: int
    chamber_pairings: tuple
    reps: list
    work: int
    walked: int


def plan_count(q: int, alpha: CurveClass, budget: Optional[int] = None) -> CountPlan:
    """count_fast's gates, in its order and with its messages, then its
    orbit representatives; no kernel is solved or walked.  Raises
    BudgetExceeded at the first gate the budget does not cover and
    ValueError for a budget that is negative or not an integer."""
    alpha = CurveClass(*alpha)
    dd0 = eff_dual_data(alpha)
    prime_power(q)
    _, _, dd = _chamber_normalized(dd0)
    pairings = dd.as_tuple()
    budget = _budget(budget)
    degs = [dd[name] for name in ("E1", "E2", "E3", "E4")]
    # the tuples the walk of _orbit_reps visits: a multiset of k forms for
    # each run of k equal degrees d
    est = prod(comb(divisor_count(q, degs[a]) + b - a - 1, b - a)
               for a, b in _runs(degs))
    if est > budget:
        raise BudgetExceeded(f"quadruple enumeration needs {est} > budget {budget}")
    if max(degs):
        tables = q * (q * q - 1) * sum(divisor_count(q, d) for d in set(degs))
        if tables > budget:
            raise BudgetExceeded(f"orbit tables need {tables} > budget {budget}")
    # sum q^(d+1) mask entries over the slot degrees of A and B; _orbit_reps'
    # outer ones fit the orbit tables above, or q <= roots if all degrees are 0
    roots = sum(q ** (d + 1) for d in {dd[name] for name in _AB_SLOTS})
    if roots > budget:
        raise BudgetExceeded(f"root-mask tables need {roots} > budget {budget}")

    reps = _orbit_reps(q, pairings)
    q_dim = q ** _kernel_dim(dd)
    work = len(reps) * q_dim
    if work > budget:
        raise BudgetExceeded(f"kernel enumeration needs {work} > budget {budget}")
    walked = len(reps) * (q_dim - 1) // (q - 1)
    return CountPlan(q, alpha, dd0.as_tuple(), dd0.d, pairings, reps, work, walked)


def count_fast(
    q: int,
    alpha: CurveClass,
    workers: int = 1,
    budget: Optional[int] = None,
) -> CountResult:
    """Count via the torsor parameterization with the quadruple fixed.

    The class is first moved to the fundamental chamber (the count is
    invariant under the 120 symmetries), so the outer quadruple runs over
    the smallest degrees available.  Raises ValueError for workers < 1 or
    a negative budget.  plan_count runs every gate; this walks its plan.
    """
    _check_workers(workers)
    plan = plan_count(q, alpha, budget)
    reps = plan.reps
    shards = min(workers, len(reps))
    if shards > 1 and plan.walked >= _POOL_MIN_WORK:
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(q, plan.chamber_pairings, reps[i::shards]) for i in range(shards)]
        with ProcessPoolExecutor(max_workers=shards) as pool:
            total = sum(pool.map(_fast_worker, jobs))
    else:
        total = _fast_worker((q, plan.chamber_pairings, reps))
    m = total * (q - 1) ** 4
    _check_torus(m, q)
    return CountResult(
        q, plan.alpha, plan.pairings, plan.degree, m, m // (q - 1) ** 5, "fast",
        plan.work, sum(size for _, size, _ in reps), sum(n for _, _, n in reps),
        len(reps), plan.walked)


# -- sweeps --------------------------------------------------------------------


SWEEP_COLUMNS = ("class", "d", "d1", "hom_count", "ratio", "c_mid", "c_rad", "rel_err")


def sweep_row(res: CountResult, c) -> dict:
    """One sweep row, keyed by SWEEP_COLUMNS: the class, its degree and
    boundary distance, the morphism count, the ratio hom/q^(d+2), and the
    certified constant c with the relative error of the ratio against it."""
    ratio = res.ratio()
    return dict(zip(SWEEP_COLUMNS, (
        ",".join(str(x) for x in res.alpha),
        res.degree,
        min(res.pairings),
        res.hom,
        float(ratio),
        float(c.mid),
        float(c.rad),
        float(abs(ratio - c.mid) / c.mid),
    )))


def sweep(q: int, classes, workers: int = 1, budget: Optional[int] = None):
    """Count every class and compare against the leading constant.

    Returns one sweep_row per class.  Raises ValueError for workers < 1 or
    a negative budget, and refuses a q that is not a prime power or a class
    outside the effective dual, before any work.
    """
    from .constants import leading_constant_direct

    _check_workers(workers)
    budget = _budget(budget)
    prime_power(q)
    classes = [CurveClass(*alpha) for alpha in classes]
    for alpha in classes:
        eff_dual_data(alpha)
    c = leading_constant_direct(q)
    return [
        sweep_row(count_fast(q, alpha, workers=workers, budget=budget), c)
        for alpha in classes
    ]
