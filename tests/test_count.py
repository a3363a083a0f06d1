"""Morphism counting on the torsor: the slow enumerator is the oracle for
the kernel-based one, and both must hit the known closed forms."""

import json
import os
from fractions import Fraction

import pytest

from dp5.count import (
    DISJOINT_PAIRS,
    CountResult,
    count_fast,
    count_naive,
    sweep,
)
from dp5.errors import BudgetExceeded, NotInEffDual
from dp5.picard import (
    ANTICANONICAL,
    LINES,
    CurveClass,
    apply_symmetry,
    line_class,
    meets,
    pairing,
    scale,
    symmetries,
)

GOLDEN = json.load(open(os.path.join(os.path.dirname(__file__),
                                     "fixtures", "golden.json")))


def _cls(text):
    return CurveClass(*(int(x) for x in text.split(",")))


def test_disjoint_pairs_match_the_meeting_graph():
    assert len(DISJOINT_PAIRS) == 30
    for i, j in DISJOINT_PAIRS:
        assert not meets(LINES[i], LINES[j])
        assert pairing(line_class(LINES[i]), line_class(LINES[j])) == 0


def test_zero_class_counts_torsor_open_set():
    for q in (2, 3, 4, 5):
        res = count_fast(q, CurveClass(0, 0, 0, 0, 0))
        assert res.hom == (q - 2) * (q - 3)
        assert res.m_count == res.hom * (q - 1) ** 5
    for q in (2, 3):
        assert count_naive(q, CurveClass(0, 0, 0, 0, 0)).hom == (q - 2) * (q - 3)


def test_oracle_counts_from_closed_forms():
    for row in GOLDEN["oracle_counts"]:
        res = count_fast(row["q"], _cls(row["class"]))
        assert res.hom == row["hom"], row


def test_naive_equals_fast_on_small_classes():
    cases = [
        (2, "1,0,0,0,0"),
        (2, "1,-1,0,0,0"),
        (2, "2,-1,-1,0,0"),
        (2, "2,-1,-1,-1,0"),
        (3, "1,-1,0,0,0"),
        (3, "1,0,0,0,0"),
    ]
    for q, text in cases:
        alpha = _cls(text)
        rn = count_naive(q, alpha)
        rf = count_fast(q, alpha)
        assert rn.m_count == rf.m_count, (q, text)
        assert rn.hom == rf.hom
        assert rn.method == "naive" and rf.method == "fast"


def test_torus_scaling_divisibility():
    for q, text in ((3, "1,-1,0,0,0"), (3, "2,-1,-1,-1,0"), (4, "1,0,0,0,0")):
        res = count_fast(q, _cls(text))
        assert res.m_count % (q - 1) ** 5 == 0
        assert res.hom == res.m_count // (q - 1) ** 5


def test_symmetry_invariance_spot_checks():
    syms = symmetries()
    alpha = _cls("2,-1,-1,-1,0")
    base = count_naive(2, alpha).m_count
    for s in (syms[3], syms[40], syms[77], syms[119]):
        assert count_naive(2, apply_symmetry(alpha, s)).m_count == base


def test_worker_counts_agree():
    alpha = _cls("2,-1,-1,-1,0")
    r1 = count_fast(3, alpha, workers=1)
    r2 = count_fast(3, alpha, workers=2)
    assert r1.m_count == r2.m_count and r1.hom == r2.hom


def test_ratio_is_exact_fraction():
    res = count_fast(2, scale(ANTICANONICAL, 3))
    assert res.degree == 15
    assert res.ratio() == Fraction(res.hom, 2**17)


def test_rejects_classes_outside_effective_dual():
    with pytest.raises(NotInEffDual):
        count_fast(2, line_class("E1"))
    with pytest.raises(NotInEffDual):
        count_naive(2, CurveClass(1, -1, -1, 0, 0))


def test_budget_guards():
    with pytest.raises(BudgetExceeded):
        count_naive(2, ANTICANONICAL, budget=10)
    with pytest.raises(BudgetExceeded):
        count_fast(2, ANTICANONICAL, budget=10)


def test_budget_env_variable(monkeypatch):
    monkeypatch.setenv("DP5_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        count_fast(2, ANTICANONICAL)
    monkeypatch.delenv("DP5_BUDGET")
    assert count_fast(2, ANTICANONICAL).hom == 0


def test_count_result_fields():
    res = count_fast(2, _cls("1,0,0,0,0"))
    assert isinstance(res, CountResult)
    assert res.q == 2 and res.alpha == (1, 0, 0, 0, 0)
    assert len(res.pairings) == 10
    assert res.work > 0


def test_sweep_rows():
    rows = sweep(2, [_cls("1,0,0,0,0"), ANTICANONICAL])
    assert [r["class"] for r in rows] == ["1,0,0,0,0", "3,-1,-1,-1,-1"]
    for r in rows:
        assert list(r) == ["class", "d", "d1", "hom_count", "ratio",
                           "c_mid", "c_rad", "rel_err"]
    assert rows[1]["d"] == 5 and rows[1]["d1"] == 1


def test_pgl2_permutes_normalised_forms():
    from dp5.count import _monic_forms, _orbit_images, _pgl2
    from dp5.gf import field_of_order

    for q in (2, 3, 4):
        ctx = field_of_order(q)
        group = _pgl2(ctx)
        assert len(group) == len(set(group)) == q * (q * q - 1)
        for a, b, c, d in group:
            assert ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != 0
        for deg in (0, 1, 2):
            forms = _monic_forms(ctx, deg)
            columns = list(zip(*_orbit_images(ctx, forms, group)))
            assert len(columns) == len(group)
            for col in columns:
                assert sorted(col) == list(range(len(forms)))
            # the identity (1, 0, 0, 1) fixes every form
            assert columns[group.index((1, 0, 0, 1))] == tuple(range(len(forms)))


def test_count_funnel():
    cases = [
        (2, scale(ANTICANONICAL, 3), 696, 116),
        (4, ANTICANONICAL, 120, 2),
        (5, ANTICANONICAL, 360, 3),
        (4, _cls("2,-2,0,0,0"), 21, 3),
    ]
    for q, alpha, quadruples, orbits in cases:
        res = count_fast(q, alpha)
        assert (res.quadruples, res.orbits) == (quadruples, orbits), (q, alpha)
    rn = count_naive(2, _cls("1,0,0,0,0"))
    assert (rn.quadruples, rn.orbits) == (0, 0)


def test_funnel_and_work_independent_of_workers():
    for q, alpha in ((2, scale(ANTICANONICAL, 3)), (4, _cls("2,-2,0,0,0"))):
        r1 = count_fast(q, alpha, workers=1)
        r2 = count_fast(q, alpha, workers=2)
        assert r1 == r2


# at q = 2, (8,-2,-2,-2,-2) is one orbit of 2048 kernel vectors, whose
# quadruple estimate (15) is far below its work; split shards are in
# test_summed_budget_refuses_shards_that_each_fit
@pytest.mark.parametrize("q,text", [(3, "2,-1,-1,-1,0"), (2, "8,-2,-2,-2,-2")])
def test_budget_verdict_independent_of_workers(q, text):
    alpha = _cls(text)
    work = count_fast(q, alpha).work
    for workers in (1, 2):
        with pytest.raises(BudgetExceeded):
            count_fast(q, alpha, workers=workers, budget=work - 1)
        assert count_fast(q, alpha, workers=workers, budget=work).work == work


def test_orbit_tables_are_budgeted_before_they_are_built():
    # 1025 quadruples pass the quadruple estimate, but PGL2(F_1024) has
    # about 1.07e9 elements
    with pytest.raises(BudgetExceeded, match="orbit tables"):
        count_fast(1024, _cls("1,-1,0,0,0"))
    # with all four outer degrees zero no group is built; the kernel is what
    # exceeds the budget then
    with pytest.raises(BudgetExceeded, match="kernel enumeration"):
        count_fast(1024, CurveClass(0, 0, 0, 0, 0), budget=10**7)


def test_torus_check_is_not_an_assert(monkeypatch):
    from dp5 import count
    from dp5.cli import main
    from dp5.errors import DP5Error

    # a total that is not divisible by q - 1 = 2
    monkeypatch.setattr(count, "_fast_worker", lambda args: (1, 0, 1, 1))
    with pytest.raises(DP5Error, match="torus action is not free"):
        count_fast(3, CurveClass(0, 0, 0, 0, 0))
    assert main(["count", "--q", "3", "--class", "0,0,0,0,0"]) == 1


def _classes_with_small_pairings():
    from itertools import product

    from dp5.picard import degree_data, in_eff_dual

    out = []
    for t in product(range(4), *[range(-1, 1)] * 4):
        alpha = CurveClass(*t)
        if in_eff_dual(alpha) and max(degree_data(alpha)[n] for n in LINES) <= 1:
            out.append(alpha)
    return out


def test_orbit_quotient_matches_naive_on_random_presentations():
    import random

    rng = random.Random(20260)
    syms = symmetries()
    classes = _classes_with_small_pairings()
    assert len(classes) == 12
    # naive enumeration at q = 3 of -K is out of reach; sample the rest
    picks = [(2, alpha) for alpha in classes]
    picks += [(3, alpha) for alpha in
              rng.sample([a for a in classes if a != ANTICANONICAL], 3)]
    for q, alpha in picks:
        shown = apply_symmetry(alpha, syms[rng.randrange(len(syms))])
        assert count_fast(q, shown).m_count == count_naive(q, shown).m_count, (
            q, alpha, shown)


def _unreduced_m_count(q, alpha):
    """Kernel counts summed over every coprime normalised quadruple, no group."""
    from itertools import combinations, product

    from dp5.count import (
        _coprime_triples,
        _count_inner,
        _kernel_coords,
        _monic_forms,
    )
    from dp5.gf import field_of_order
    from dp5.p1 import pdeg
    from dp5.picard import chamber_normalize

    ctx = field_of_order(q)
    _, _, dd = chamber_normalize(alpha)
    dpp = (dd["L13"], dd["L24"], dd["L34"])
    derived = (dd["L14"], dd["L23"], dd["L12"])
    forms = [_monic_forms(ctx, dd[name]) for name in ("E1", "E2", "E3", "E4")]
    total = 0
    for afixed in product(*forms):
        trip = [(f, f.dehom(), pdeg(f.dehom()) < f.d) for f in afixed]
        if not all(_coprime_triples(ctx, a, b) for a, b in combinations(trip, 2)):
            continue
        _, vectors = _kernel_coords(afixed, dpp, derived)
        acc, _ = _count_inner(ctx, afixed, dpp + derived, vectors)
        total += acc
    return total * (q - 1) ** 4


def test_group_quotient_matches_unreduced_count():
    cases = [
        (2, scale(ANTICANONICAL, 2)),
        (2, scale(ANTICANONICAL, 3)),
        (3, ANTICANONICAL),
        (3, _cls("2,-1,-1,-1,0")),
        (4, ANTICANONICAL),
    ]
    for q, alpha in cases:
        assert count_fast(q, alpha).m_count == _unreduced_m_count(q, alpha), (q, alpha)


def test_kernel_counts_run_once_per_group_orbit():
    cases = [
        (2, scale(ANTICANONICAL, 4), 115, 14720),
        (2, scale(ANTICANONICAL, 3), 6, 384),
        (5, ANTICANONICAL, 1, 625),
        (4, ANTICANONICAL, 1, 256),
    ]
    for q, alpha, kernels, work in cases:
        for workers in (1, 2):
            res = count_fast(q, alpha, workers=workers)
            assert (res.kernels, res.work) == (kernels, work), (q, alpha, workers)
    assert count_naive(2, _cls("1,0,0,0,0")).kernels == 0


def test_summed_budget_refuses_shards_that_each_fit():
    from dp5 import count
    from dp5.picard import chamber_normalize

    q, alpha = 4, _cls("2,-2,0,0,0")
    pairings = tuple(chamber_normalize(alpha)[2][name] for name in LINES)
    reps = count._orbit_reps(q, pairings)
    # three orbits of 1024 vectors, dealt 2048 + 1024 to two workers
    shard_work = [count._fast_worker((q, pairings, reps[w::2], 10**9))[1]
                  for w in (0, 1)]
    assert shard_work == [2048, 1024]
    for workers in (1, 2):
        with pytest.raises(BudgetExceeded):
            count_fast(q, alpha, workers=workers, budget=3071)
        assert count_fast(q, alpha, workers=workers, budget=3072).work == 3072


def test_fields_beyond_the_golden_file():
    # q = 9 is the one reachable field with odd p and e > 1, so its kernels
    # are walked with two-digit lanes
    cases = [
        (7, ANTICANONICAL, 181440),
        (8, _cls("2,-2,0,0,0"), 193536),
        (9, ANTICANONICAL, 1542240),
    ]
    for q, alpha, hom in cases:
        assert count_fast(q, alpha).hom == hom, (q, alpha)


def test_packed_walk_visits_every_combination_once():
    from itertools import product

    from dp5.count import _packed_basis, _walk
    from dp5.gf import field_of_order

    for q in (2, 3, 4, 5, 8, 9):
        ctx = field_of_order(q)
        u, v = (1, 0, q - 1), (0, q - 1, 2 % q)
        basis = _packed_basis(ctx, [u, v])
        assert len(basis) == 2 * ctx.e
        walked = list(_walk(ctx.p, basis))
        assert len(walked) == len(set(walked)) == q * q - 1
        span = {
            tuple(ctx.add(ctx.mul(a, x), ctx.mul(b, y)) for x, y in zip(u, v))
            for a, b in product(range(q), repeat=2)
            if a or b
        }
        assert set(walked) == set(_packed_basis(ctx, span)[:: ctx.e]), q


def _unpack(ctx, x, degs6):
    """The six coefficient tuples of a packed kernel vector."""
    from dp5.count import _lane_width

    w = _lane_width(ctx.p)
    forms = []
    for d in degs6:
        coeffs = []
        for _ in range(d + 1):
            c = 0
            for k in range(ctx.e):
                c += (x >> w * k & (1 << w) - 1) * ctx.p**k
            x >>= w * ctx.e
            coeffs.append(c)
        forms.append(tuple(coeffs))
    return forms


def test_kernel_system_matches_plucker_kernel():
    import random

    from dp5.bundles import plucker_kernel, rref
    from dp5.count import _SLOTS, _kernel_coords, _walk
    from dp5.gf import field_of_order
    from dp5.p1 import form_from_index, forms_coprime, padd, pmul, psub
    from dp5.picard import degree_data

    relations = (  # P1..P5 as (sign, form, form) over COORD_NAMES
        ((1, "E4", "L14"), (-1, "E3", "L13"), (1, "E2", "L12")),
        ((1, "E4", "L24"), (-1, "E3", "L23"), (1, "E1", "L12")),
        ((1, "E4", "L34"), (-1, "E2", "L23"), (1, "E1", "L13")),
        ((1, "E3", "L34"), (-1, "E2", "L24"), (1, "E1", "L14")),
        ((1, "L12", "L34"), (-1, "L13", "L24"), (1, "L23", "L14")),
    )
    classes = [ANTICANONICAL, _cls("2,-2,0,0,0"), _cls("2,-1,-1,-1,0"),
               _cls("2,0,-1,-1,-1"), _cls("4,-2,-1,-1,-1"), _cls("3,-2,-1,0,0"),
               scale(ANTICANONICAL, 2)]
    rng = random.Random(2026)
    checked = {}
    for q in (2, 3, 4, 5, 8, 9):
        ctx = field_of_order(q)
        for alpha in classes:
            dd = degree_data(alpha)
            degs6 = tuple(dd[name] for name in _SLOTS)
            # at q = 2 four linear forms cannot be coprime: -K has none
            for _ in range(3):
                for _ in range(100):
                    afixed = tuple(
                        form_from_index(ctx, dd[f"E{i}"],
                                        rng.randrange(1, q ** (dd[f"E{i}"] + 1)))
                        for i in (1, 2, 3, 4))
                    if all(forms_coprime(afixed[i], afixed[j])
                           for i in range(4) for j in range(i + 1, 4)):
                        break
                else:
                    continue
                checked[q] = checked.get(q, 0) + 1
                dim, basis = _kernel_coords(afixed, degs6[:3], degs6[3:])
                _, _, old = plucker_kernel(afixed, degs6[:3])
                assert dim == len(old) and len(basis) == ctx.e * dim, (q, alpha)
                new = []
                for x in basis:
                    forms = _unpack(ctx, x, degs6)
                    coords = dict(zip(_SLOTS, forms))
                    coords.update((f"E{i + 1}", f.coeffs) for i, f in enumerate(afixed))
                    for rel in relations:
                        total = ()
                        for sign, u, v in rel:
                            prod = pmul(ctx, coords[u], coords[v])
                            total = (padd if sign > 0 else psub)(ctx, total, prod)
                        assert total == (), (q, alpha, afixed, rel)
                    new.append(forms[0] + forms[1] + forms[2])
                ncols = sum(degs6[:3]) + 3
                assert len(rref(ctx, new, ncols)[0]) == dim
                assert len(rref(ctx, new + list(old), ncols)[0]) == dim
                if q**dim <= 4096:
                    assert len(set(_walk(ctx.p, basis))) == q**dim - 1
    assert checked == {2: 17, 3: 21, 4: 21, 5: 21, 8: 21, 9: 21}


def test_root_masks_read_off_coprimality():
    from itertools import combinations

    from dp5.count import _packed_basis, _root_masks
    from dp5.gf import field_of_order
    from dp5.p1 import factor_poly, form_from_index, forms_coprime, irreducibles

    def _root_mask(ctx, f, bits):
        # the root mask by factorisation, over the points that have a bit
        mask = 0 if f.coeffs[-1] else 1
        for pi in factor_poly(ctx, f.dehom()):
            if pi in bits:
                mask |= 1 << bits[pi]
        return mask

    for q, degs in ((2, (0, 1, 3)), (3, (0, 1, 2)), (4, (1, 2)), (9, (0, 1))):
        ctx = field_of_order(q)
        tables = _root_masks(ctx, degs)
        points = [(1, 0)] + irreducibles(ctx, max(degs))
        bits = {pi: bit for bit, pi in enumerate(points)}
        forms = [form_from_index(ctx, d, i)
                 for d in degs for i in range(1, q ** (d + 1))]
        assert sum(map(len, tables.values())) == len(forms)
        masks = [tables[f.d][_packed_basis(ctx, [f.coeffs])[0]] for f in forms]
        for f, m in zip(forms, masks):
            assert m == _root_mask(ctx, f, bits), f
        for (f, mf), (g, mg) in combinations(zip(forms, masks), 2):
            assert (mf & mg == 0) == forms_coprime(f, g), (f, g)


def test_slot_groups_are_the_disjoint_slot_pairs():
    from itertools import combinations

    from dp5.count import _SLOT_GROUPS, _SLOTS, COORD_NAMES

    slot = {COORD_NAMES.index(name): s for s, name in enumerate(_SLOTS)}
    var = {frozenset((slot[i], slot[j])) for i, j in DISJOINT_PAIRS if i >= 4}
    cross = {
        frozenset((a, b))
        for g, h in combinations(_SLOT_GROUPS, 2)
        for a in g
        for b in h
    }
    assert var == cross and len(var) == 12
    # the outer-pair check is implied: a point of a_i and a_jk (i not in
    # {j, k}) also lies on a_js, s the fourth index, and (L_jk, L_js) is a
    # cross pair of the slot groups
    fixed = {(i, j) for i, j in DISJOINT_PAIRS if i < 4 <= j}
    assert len(fixed) == 12
    for i in range(1, 5):
        for j, k in combinations(sorted({1, 2, 3, 4} - {i}), 2):
            assert (i - 1, COORD_NAMES.index(f"L{j}{k}")) in fixed
            (s,) = {1, 2, 3, 4} - {i, j, k}
            for a, b in ((j, k), (k, j)):
                jk = slot[COORD_NAMES.index(f"L{min(a, b)}{max(a, b)}")]
                js = slot[COORD_NAMES.index(f"L{min(a, s)}{max(a, s)}")]
                assert frozenset((jk, js)) in cross, (i, a, b)


def test_root_mask_tables_are_budgeted_before_they_are_built(monkeypatch):
    from dp5 import count

    def refuse(*args):
        raise AssertionError("root-mask tables were built")

    monkeypatch.setattr(count, "_root_masks", refuse)
    # one quadruple and no group, but a degree-0 slot table has q entries
    with pytest.raises(BudgetExceeded, match="root-mask tables need 1024"):
        count_fast(1024, CurveClass(0, 0, 0, 0, 0), budget=1023)
