"""Picard lattice of the split degree-5 del Pezzo surface.

Basis (H, E1, E2, E3, E4) of Z^5 with intersection form diag(+1,-1,-1,-1,-1).
The ten lines are E1..E4 and L_ij = H - E_i - E_j; two distinct lines meet
exactly when their pairing is 1, and the resulting meeting graph is the
Petersen graph.  Its 120 automorphisms are realized by the 120 ordered
frames (l1,l2,l3,l4) of pairwise disjoint lines: the frame tells which four
lines play the roles of E1..E4, and each L_ij role goes to the unique line
meeting both l_i and l_j.

A class is normalized by relabeling through one of these frames until its
line pairings satisfy d1 <= d2 <= d3 <= d4 and d2 <= d34; ties are broken
by taking the lexicographically first qualifying frame, which makes
normalization idempotent (the identity frame is lexicographically first).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations
from typing import NamedTuple

from .errors import DP5Error, InconsistentPairings, NotInEffDual

LINES = ("E1", "E2", "E3", "E4", "L12", "L13", "L14", "L23", "L24", "L34")

_LINE_PAIR = {
    "L12": (1, 2), "L13": (1, 3), "L14": (1, 4),
    "L23": (2, 3), "L24": (2, 4), "L34": (3, 4),
}


class CurveClass(NamedTuple):
    a: int
    c1: int
    c2: int
    c3: int
    c4: int


ANTICANONICAL = CurveClass(3, -1, -1, -1, -1)
H = CurveClass(1, 0, 0, 0, 0)


def line_class(name: str) -> CurveClass:
    if name[0] == "E":
        i = int(name[1])
        c = [0, 0, 0, 0]
        c[i - 1] = 1
        return CurveClass(0, *c)
    i, j = _LINE_PAIR[name]
    c = [0, 0, 0, 0]
    c[i - 1] = c[j - 1] = -1
    return CurveClass(1, *c)


# the ten line classes, in LINES order
_LINE_CLASSES = tuple(map(line_class, LINES))


def pairing(alpha: CurveClass, beta: CurveClass) -> int:
    a, a1, a2, a3, a4 = alpha
    b, b1, b2, b3, b4 = beta
    return a * b - a1 * b1 - a2 * b2 - a3 * b3 - a4 * b4


def scale(alpha: CurveClass, m: int) -> CurveClass:
    return CurveClass(*(m * x for x in alpha))


def add(alpha: CurveClass, beta: CurveClass) -> CurveClass:
    return CurveClass(*(x + y for x, y in zip(alpha, beta)))


class DegreeData:
    """The ten line pairings of a class, plus its anticanonical degree d.
    pairings is anything dict() takes: a mapping or (line, pairing) pairs."""

    __slots__ = ("pairings", "d")

    def __init__(self, pairings, d: int):
        self.pairings = dict(pairings)
        self.d = d

    def __getitem__(self, name: str) -> int:
        return self.pairings[name]

    def as_tuple(self):
        return tuple(map(self.pairings.__getitem__, LINES))

    def __eq__(self, other):
        return (
            isinstance(other, DegreeData)
            and self.pairings == other.pairings
            and self.d == other.d
        )

    def __repr__(self):
        body = ", ".join(f"{n}={self.pairings[n]}" for n in LINES)
        return f"DegreeData({body}, d={self.d})"


def degree_data(alpha: CurveClass) -> DegreeData:
    p = dict(zip(LINES, [pairing(alpha, line) for line in _LINE_CLASSES]))
    d = pairing(alpha, ANTICANONICAL)
    # two computations of d must agree: -K pairing vs a pentagon of lines
    pent = p["L13"] + p["E3"] + p["L34"] + p["E4"] + p["L24"]
    if not d == pent == 3 * alpha.a + sum(alpha[1:]):
        raise DP5Error(f"degree cross-check failed for {tuple(alpha)}")
    return DegreeData(p, d)


def in_eff_dual(alpha: CurveClass) -> bool:
    return all(v >= 0 for v in degree_data(alpha).pairings.values())


def eff_dual_data(alpha: CurveClass) -> DegreeData:
    """degree_data(alpha), or NotInEffDual if alpha pairs negatively with a
    line: the one refusal of a class outside the dual of the effective cone."""
    dd = degree_data(alpha)
    if min(dd.pairings.values()) < 0:
        raise NotInEffDual(f"{alpha} pairs negatively with some line")
    return dd


def pairings_to_class(p: dict) -> CurveClass:
    """Invert degree_data; raises if the ten values fit no class."""
    missing = [n for n in LINES if n not in p]
    if missing:
        raise InconsistentPairings(f"missing pairings: {missing}")
    c = [-p[f"E{i}"] for i in (1, 2, 3, 4)]
    a = p["L12"] + p["E1"] + p["E2"]
    alpha = CurveClass(a, *c)
    check = degree_data(alpha)
    if any(check[n] != p[n] for n in LINES):
        raise InconsistentPairings(f"{dict(p)} is not the pairing vector of a class")
    return alpha


def meets(l1: str, l2: str) -> bool:
    return l1 != l2 and pairing(line_class(l1), line_class(l2)) == 1


_LINE_IDX = {name: i for i, name in enumerate(LINES)}


def _meeting_pairs():
    """The ordered pairs of lines that meet, read off meets."""
    return {(a, b) for a in LINES for b in LINES if meets(a, b)}


def _frames():
    """Ordered 4-tuples of pairwise disjoint lines, lexicographic order."""
    meet = _meeting_pairs()
    indep = [s for s in combinations(LINES, 4) if meet.isdisjoint(combinations(s, 2))]
    if len(indep) != 5:
        raise DP5Error(f"{len(indep)} sets of four disjoint lines, not 5")
    frames = [f for s in indep for f in permutations(s)]
    frames.sort(key=lambda f: tuple(_LINE_IDX[n] for n in f))
    return frames


def _frame_perm(frame, meet=None) -> dict:
    """Role map of a frame: role name -> actual line filling that role;
    meet is _meeting_pairs(), built here when None."""
    meet = _meeting_pairs() if meet is None else meet
    perm = {f"E{i}": frame[i - 1] for i in (1, 2, 3, 4)}
    for name, (i, j) in _LINE_PAIR.items():
        li, lj = frame[i - 1], frame[j - 1]
        common = [m for m in LINES if (m, li) in meet and (m, lj) in meet]
        if len(common) != 1:
            raise DP5Error(f"{len(common)} lines meet both {li} and {lj}")
        perm[name] = common[0]
    return perm


@cache
def _framed():
    """(frames, role maps, index maps), in the order of _frames; constant,
    built once.  A frame's index map is the LINES index of the line filling
    each role, in LINES order."""
    frames, meet = _frames(), _meeting_pairs()
    perms = [_frame_perm(f, meet) for f in frames]
    return frames, perms, [tuple(_LINE_IDX[p[name]] for name in LINES) for p in perms]


def symmetries():
    """All 120 line permutations preserving the meeting graph."""
    return _framed()[1]


def apply_symmetry(alpha: CurveClass, perm: dict) -> CurveClass:
    """Relabel so the line perm[J] takes over the role J."""
    dd = degree_data(alpha)
    return pairings_to_class({name: dd[perm[name]] for name in LINES})


def chamber_coords(dd: DegreeData):
    """(b1, b2, a, c1, c2); the data is in the chamber iff all five >= 0."""
    d1, d2, d3, d4 = (dd[f"E{i}"] for i in (1, 2, 3, 4))
    return (d1, d2 - d1, dd["L34"] - d2, d3 - d2, d4 - d2)


def in_chamber(dd: DegreeData) -> bool:
    # note d3 <= d4 is not implied by the coordinate signs alone
    p = dd.pairings
    d2 = p["E2"]
    return 0 <= p["E1"] <= d2 <= p["E3"] <= p["E4"] and d2 <= p["L34"]


def chamber_normalize(alpha: CurveClass):
    """Relabel into the fundamental chamber.

    Returns (chamber id, permutation, normalized DegreeData) where the id is
    the frame (which lines take the roles E1..E4) and the permutation maps
    each role to the line occupying it.  The first qualifying frame in
    lexicographic order wins, so already-normalized data keeps the identity.
    """
    return _chamber_normalized(eff_dual_data(alpha))


def _chamber_normalized(dd: DegreeData):
    """chamber_normalize of the class whose eff_dual_data is dd."""
    pairs, d = dd.as_tuple(), dd.d
    for frame, perm, idx in zip(*_framed()):
        moved = DegreeData(zip(LINES, map(pairs.__getitem__, idx)), d)
        if in_chamber(moved):
            return frame, perm, moved
    raise DP5Error("effective-dual class missed all 120 chambers")


def boundary_distance(alpha: CurveClass) -> int:
    """min over the ten line pairings; equals d1 after normalization."""
    return min(eff_dual_data(alpha).pairings.values())


def surface_point_count(q: int) -> int:
    """F_q-points of the split surface: q^2 + 5q + 1."""
    return q * q + 5 * q + 1


def torsor_open_count(q: int) -> int:
    """F_q-points off the ten lines: (q-2)(q-3)."""
    return (q - 2) * (q - 3)
