"""Morphism counting on the torsor: the slow enumerator is the oracle for
the kernel-based one, and both must hit the known closed forms."""

import json
import os
from fractions import Fraction
from pathlib import Path

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

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "golden.json")
                    .read_text(encoding="utf-8"))


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
        # slot degrees (4, 1, 1, 2, 3, 4): degrees 2 and 3 are C's alone
        (2, "5,-3,-1,-1,0"),
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
    monkeypatch.setattr(count, "_fast_worker", lambda args: 1)
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
        _root_masks,
    )
    from dp5.gf import field_of_order
    from dp5.p1 import pdeg
    from dp5.picard import chamber_normalize

    ctx = field_of_order(q)
    _, _, dd = chamber_normalize(alpha)
    dpp = (dd["L13"], dd["L24"], dd["L34"])
    derived = (dd["L14"], dd["L23"], dd["L12"])
    forms = [_monic_forms(ctx, dd[name]) for name in ("E1", "E2", "E3", "E4")]
    masks = _root_masks(ctx, dpp + derived)
    total = 0
    for afixed in product(*forms):
        trip = [(f, f.dehom(), pdeg(f.dehom()) < f.d) for f in afixed]
        if not all(_coprime_triples(ctx, a, b) for a, b in combinations(trip, 2)):
            continue
        _, vectors = _kernel_coords(afixed, dpp + derived, {})
        acc, _ = _count_inner(ctx, dpp + derived, vectors, masks)
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


def test_summed_budget_refuses_shards_that_each_fit(monkeypatch):
    from dp5 import count
    from dp5.picard import chamber_normalize

    q, alpha = 4, _cls("2,-2,0,0,0")
    pairings = tuple(chamber_normalize(alpha)[2][name] for name in LINES)
    reps = count._orbit_reps(q, pairings)
    real, walked = count._count_inner, []

    def count_inner(ctx, degs6, vectors, masks):
        walked.append(ctx.p ** len(vectors))
        return real(ctx, degs6, vectors, masks)

    monkeypatch.setattr(count, "_count_inner", count_inner)
    # three orbits of 1024 vectors, dealt 2048 + 1024 to two workers
    shard_work = []
    for i in range(2):
        del walked[:]
        count._fast_worker((q, pairings, reps[i::2]))
        shard_work.append(sum(walked))
    assert shard_work == [2048, 1024]
    for workers in (1, 2):
        with pytest.raises(BudgetExceeded):
            count_fast(q, alpha, workers=workers, budget=3071)
        assert count_fast(q, alpha, workers=workers, budget=3072).work == 3072


def test_forced_pool_gives_identical_results(monkeypatch):
    import concurrent.futures

    from dp5 import count

    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(count, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    # six kernels, three kernels, and one kernel, which never needs a pool
    cases = [(2, scale(ANTICANONICAL, 3)), (4, _cls("2,-2,0,0,0")),
             (3, _cls("2,-1,-1,-1,0"))]
    for q, alpha in cases:
        results = []
        for workers in (1, 2, 8):
            del started[:]
            results.append(count_fast(q, alpha, workers=workers))
            kernels = results[-1].kernels
            want = [min(workers, kernels)] if min(workers, kernels) > 1 else []
            assert started == want, (q, alpha, workers)
        assert results[0] == results[1] == results[2], (q, alpha)


def test_kernel_budget_is_checked_before_any_walk(monkeypatch):
    from dp5 import count

    def refuse(*args):
        raise AssertionError("a kernel was walked")

    # three kernels of 1024 vectors; one of 2048, whose up-front estimates
    # stay below its work
    for q, alpha in ((4, _cls("2,-2,0,0,0")), (2, _cls("8,-2,-2,-2,-2"))):
        work = count_fast(q, alpha).work
        monkeypatch.setattr(count, "_count_inner", refuse)
        monkeypatch.setattr(count, "_POOL_MIN_WORK", 0)
        messages = set()
        for workers in (1, 2, 8):
            with pytest.raises(BudgetExceeded) as err:
                count_fast(q, alpha, workers=workers, budget=work - 1)
            messages.add(str(err.value))
        assert messages == {f"kernel enumeration needs {work} > budget {work - 1}"}
        monkeypatch.undo()


def test_kernel_verdict_needs_no_solve(monkeypatch):
    from dp5 import count

    def refuse(*args):
        raise AssertionError("a kernel was solved")

    for q, alpha in ((4, _cls("2,-2,0,0,0")), (2, _cls("8,-2,-2,-2,-2"))):
        work = count_fast(q, alpha).work
        monkeypatch.setattr(count, "_kernel_coords", refuse)
        monkeypatch.setattr(count, "_POOL_MIN_WORK", 0)
        for workers in (1, 2, 8):
            with pytest.raises(BudgetExceeded) as err:
                count_fast(q, alpha, workers=workers, budget=work - 1)
            assert str(err.value) == (
                f"kernel enumeration needs {work} > budget {work - 1}")
        monkeypatch.undo()


@pytest.mark.parametrize("workers", [1, 2])
def test_kernel_of_another_dimension_is_never_walked(monkeypatch, workers):
    import concurrent.futures

    from dp5 import count
    from dp5.errors import DP5Error

    real, started = count._kernel_coords, []

    def one_more(afixed, degs6, packed):
        # dim + 1: e more packed ints
        dim, basis = real(afixed, degs6, packed)
        return dim + 1, basis + basis[: afixed[0].ctx.e]

    def refuse(*args):
        raise AssertionError("a kernel was walked")

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(count, "_kernel_coords", one_more)
    monkeypatch.setattr(count, "_count_inner", refuse)
    monkeypatch.setattr(count, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    # three kernels of 1024 vectors
    with pytest.raises(DP5Error, match="h1 > 0"):
        count_fast(4, _cls("2,-2,0,0,0"), workers=workers)
    assert started == ([2] if workers == 2 else [])


def test_shard_walks_each_kernel_before_it_solves_the_next(monkeypatch):
    from dp5 import count
    from dp5.errors import DP5Error

    real_coords, real_inner, calls = count._kernel_coords, count._count_inner, []

    def kernel_coords(afixed, degs6, packed):
        calls.append("solve")
        dim, basis = real_coords(afixed, degs6, packed)
        if calls.count("solve") == 2:  # only the second kernel: dim + 1
            return dim + 1, basis + basis[: afixed[0].ctx.e]
        return dim, basis

    def count_inner(*args):
        calls.append("walk")
        return real_inner(*args)

    monkeypatch.setattr(count, "_kernel_coords", kernel_coords)
    monkeypatch.setattr(count, "_count_inner", count_inner)
    # three kernels of 1024 vectors, in one shard
    with pytest.raises(DP5Error, match="h1 > 0"):
        count_fast(4, _cls("2,-2,0,0,0"))
    assert calls == ["solve", "walk", "solve"]


@pytest.mark.parametrize("budget", [float("inf"), 2.9, 10.0, True, "10"])
def test_non_integer_budget_is_refused(monkeypatch, budget):
    from dp5 import constants

    def refuse(*args, **kwargs):
        raise AssertionError("computed the constant for an invalid budget")

    monkeypatch.setattr(constants, "leading_constant_direct", refuse)
    alpha = _cls("1,0,0,0,0")
    for run in (lambda: count_fast(2, alpha, budget=budget),
                lambda: count_naive(2, alpha, budget=budget),
                lambda: sweep(2, [alpha], budget=budget)):
        with pytest.raises(ValueError, match="budget must be an integer"):
            run()


@pytest.mark.parametrize("workers", [2.5, 2.0, True, "2"])
def test_non_integer_workers_are_refused(monkeypatch, workers):
    from dp5 import constants

    def refuse(*args, **kwargs):
        raise AssertionError("computed the constant for invalid workers")

    monkeypatch.setattr(constants, "leading_constant_direct", refuse)
    alpha = _cls("1,0,0,0,0")
    with pytest.raises(ValueError, match="workers must be an integer"):
        count_fast(2, alpha, workers=workers)
    with pytest.raises(ValueError, match="workers must be an integer"):
        sweep(2, [alpha], workers=workers)


def test_pool_jobs_carry_representatives(monkeypatch):
    import concurrent.futures

    from dp5 import count
    from dp5.picard import chamber_normalize

    parent, solved_here, jobs = os.getpid(), [], []
    real = count._kernel_coords

    def kernel_coords(*args):
        if os.getpid() == parent:
            solved_here.append(args)
        return real(*args)

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables):
            iterables = [list(it) for it in iterables]
            jobs.extend(iterables[0])
            return super().map(fn, *iterables)

    monkeypatch.setattr(count, "_kernel_coords", kernel_coords)
    monkeypatch.setattr(count, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    q, alpha = 2, scale(ANTICANONICAL, 3)
    assert count_fast(q, alpha, workers=2).hom == 360
    assert solved_here == []
    # each job is a share of the representatives: coefficient tuples and sizes
    pairings = chamber_normalize(alpha)[2].as_tuple()
    reps = count._orbit_reps(q, pairings)
    assert len(reps) == 6
    assert jobs == [(q, pairings, reps[0::2]), (q, pairings, reps[1::2])]


def test_pool_starts_above_the_real_gate(monkeypatch):
    import concurrent.futures

    from dp5 import count

    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    # q = 2, -5K: 1 850 kernels, 473 600 vectors
    alpha = scale(ANTICANONICAL, 5)
    one = count_fast(2, alpha)
    assert started == []
    assert one.work >= count._POOL_MIN_WORK
    assert (one.kernels, one.work, one.hom) == (1850, 473600, 1725120)
    assert count_fast(2, alpha, workers=2) == one
    assert started == [2]


@pytest.mark.parametrize("workers", [0, -4])
def test_workers_below_one_are_refused(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        count_fast(2, _cls("1,0,0,0,0"), workers=workers)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        sweep(2, [_cls("1,0,0,0,0")], workers=workers)


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
                dim, basis = _kernel_coords(afixed, degs6, {})
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


def _substituted_images(ctx, forms, group):
    # one column per group element by polynomial arithmetic, as _orbit_images
    # computed every column before it composed them from a few generators
    from dp5.p1 import pmul

    deg = forms[0].d
    index = {f.coeffs: i for i, f in enumerate(forms)}
    perms = []
    for a, b, c, d in group:
        up, vp = [(1,)], [(1,)]
        for _ in range(deg):
            up.append(pmul(ctx, up[-1], (b, a)))
            vp.append(pmul(ctx, vp[-1], (d, c)))
        mono = [pmul(ctx, up[j], vp[deg - j]) for j in range(deg + 1)]
        perm = []
        for f in forms:
            img = [0] * (deg + 1)
            for cj, m in zip(f.coeffs, mono):
                if cj:
                    for k, mk in enumerate(m):
                        img[k] = ctx.add(img[k], ctx.mul(cj, mk))
            inv = ctx.inv(next(x for x in img if x))
            perm.append(index[tuple(ctx.mul(inv, x) for x in img)])
        perms.append(perm)
    return list(zip(*perms))


def test_composed_orbit_images_match_substitution_column_by_column():
    import random

    from dp5.count import _monic_forms, _orbit_images, _pgl2
    from dp5.gf import field_of_order

    rng = random.Random(91)
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_of_order(q)
        group = _pgl2(ctx)
        # every column of the small groups, a sample of both families above
        ks = sorted(rng.sample(range(len(group)), min(len(group), 60)))
        assert {group[k][0] for k in ks} == {0, 1}
        for deg in (0, 1, 2, 3):
            forms = _monic_forms(ctx, deg)
            columns = list(zip(*_orbit_images(ctx, forms, group)))
            assert len(columns) == len(group)
            want = _substituted_images(ctx, forms, [group[k] for k in ks])
            assert [columns[k] for k in ks] == list(zip(*want)), (q, deg)
    # the identity alone, as _orbit_reps passes it for all-zero degrees
    ctx = field_of_order(7)
    forms = _monic_forms(ctx, 2)
    assert _orbit_images(ctx, forms, [(1, 0, 0, 1)]) == [(i,) for i in range(57)]


def _orbit_reps_by_pgcd(q, pairings):
    # _orbit_reps with its pairwise coprimality tables built by pgcd, as it
    # was before it read them off root masks
    from dp5.count import (
        _arrangements,
        _coprime_triples,
        _monic_forms,
        _orbit_images,
        _pgl2,
        _runs,
        _triple,
    )
    from dp5.gf import field_of_order

    ctx = field_of_order(q)
    dd = dict(zip(LINES, pairings))
    degs = (dd["E1"], dd["E2"], dd["E3"], dd["E4"])
    lists = {d: _monic_forms(ctx, d) for d in set(degs)}
    group = _pgl2(ctx) if max(degs) else [(1, 0, 0, 1)]
    images = {d: _orbit_images(ctx, forms, group) for d, forms in lists.items()}
    triples = {d: [_triple(f) for f in forms] for d, forms in lists.items()}

    def coprime(da, db):
        return [[_coprime_triples(ctx, f, g) for g in triples[db]]
                for f in triples[da]]

    d1, d2, d3, d4 = degs
    c12, c13, c14 = coprime(d1, d2), coprime(d1, d3), coprime(d1, d4)
    c23, c24, c34 = coprime(d2, d3), coprime(d2, d4), coprime(d3, d4)
    l1, l2, l3, l4 = (lists[d] for d in degs)
    o1, o2, o3, o4 = (images[d] for d in degs)
    runs = _runs(degs)
    tied = [p > 0 and degs[p] == degs[p - 1] for p in range(4)]

    def canon(u):
        return tuple(v for a, b in runs for v in sorted(u[a:b]))

    reps = []
    for i1 in range(len(l1)):
        for i2 in range(i1 if tied[1] else 0, len(l2)):
            if not c12[i1][i2]:
                continue
            for i3 in range(i2 if tied[2] else 0, len(l3)):
                if not (c13[i1][i3] and c23[i2][i3]):
                    continue
                for i4 in range(i3 if tied[3] else 0, len(l4)):
                    if not (c14[i1][i4] and c24[i2][i4] and c34[i3][i4]):
                        continue
                    t = (i1, i2, i3, i4)
                    pgl2_orbit = set()
                    for u in zip(o1[i1], o2[i2], o3[i3], o4[i4]):
                        if canon(u) < t:
                            break
                        pgl2_orbit.add(u)
                    else:
                        size = sum(_arrangements(s, runs)
                                   for s in set(map(canon, pgl2_orbit)))
                        coeffs = tuple(
                            f.coeffs for f in (l1[i1], l2[i2], l3[i3], l4[i4])
                        )
                        reps.append((coeffs, size, size // len(pgl2_orbit)))
    return reps


def test_orbit_reps_coprimality_by_root_masks_matches_pgcd():
    from dp5.count import _orbit_reps
    from dp5.picard import chamber_normalize

    cases = [
        (2, "0,0,0,0,0"),
        (2, "6,-2,-2,-2,-2"),
        (2, "9,-3,-3,-3,-3"),
        (3, "1,-1,0,0,0"),
        (3, "6,-2,-2,-2,-2"),
        (3, "2,-1,-1,-1,0"),
        (4, "3,-1,-1,-1,-1"),
        (4, "2,-2,0,0,0"),
        (5, "4,-2,-1,-1,-1"),
        (7, "3,-1,-1,-1,-1"),
        (8, "3,-1,-1,-1,-1"),
        (9, "2,-2,0,0,0"),
    ]
    for q, text in cases:
        pairings = chamber_normalize(_cls(text))[2].as_tuple()
        assert _orbit_reps(q, pairings) == _orbit_reps_by_pgcd(q, pairings), (q, text)


@pytest.mark.parametrize("q,text", [(4, "3,-1,-1,-1,-1"), (3, "2,-2,0,0,0"),
                                    (9, "3,-1,-1,-1,-1")])
def test_outer_tables_are_not_built_below_the_orbit_table_budget(
    monkeypatch, q, text
):
    from dp5 import count
    from dp5.picard import chamber_normalize

    def refuse(*args):
        raise AssertionError("outer tables were built")

    dd = chamber_normalize(_cls(text))[2]
    degs = {dd[f"E{i}"] for i in (1, 2, 3, 4)}
    tables = q * (q * q - 1) * sum((q ** (d + 1) - 1) // (q - 1) for d in degs)
    monkeypatch.setattr(count, "_root_masks", refuse)
    monkeypatch.setattr(count, "_orbit_images", refuse)
    msg = f"orbit tables need {tables} > budget {tables - 1}"
    with pytest.raises(BudgetExceeded) as err:
        count_fast(q, _cls(text), budget=tables - 1)
    assert str(err.value) == msg
    # the gate is tight: one more unit of budget and the tables are built
    with pytest.raises(AssertionError, match="outer tables were built"):
        count_fast(q, _cls(text), budget=tables)


def test_orbit_marking_matches_the_minimum_image_walk():
    # run structures the root-mask test above lacks: one run of four degree-2
    # forms at q = 5, degrees (1, 1, 1, 2) at q = 9, (1, 2, 2, 3) at q = 4
    # and one run of four degree-4 forms at q = 2; then three runs, the
    # first of degree 0, so the sort that ranks members must keep each run
    # in its own slots: (0, 0, 1, 2) at q = 3, (0, 0, 2, 3) at q = 4 and
    # (0, 1, 2, 2) at q = 5
    from dp5.count import _orbit_reps
    from dp5.picard import chamber_normalize

    cases = [
        (5, "6,-2,-2,-2,-2", 130),
        (9, "4,-2,-1,-1,-1", 15),
        (4, "5,-3,-1,-1,0", 11),
        (2, "12,-4,-4,-4,-4", 115),
        (3, "3,-2,-1,0,0", 3),
        (4, "5,-3,-2,0,0", 29),
        (5, "5,-2,-2,-1,0", 18),
    ]
    for q, text, n in cases:
        pairings = chamber_normalize(_cls(text))[2].as_tuple()
        reps = _orbit_reps(q, pairings)
        assert len(reps) == n, (q, text)
        assert reps == _orbit_reps_by_pgcd(q, pairings), (q, text)


def test_orbit_marks_the_walk_never_reaches_raise(monkeypatch):
    from dp5 import count
    from dp5.errors import DP5Error
    from dp5.picard import chamber_normalize

    real = count._orbit_images

    def collapsed(ctx, forms, group):
        # every image is the first form, so (0, 0, 0, 0) is marked, and it
        # is not coprime, so the walk never reaches it
        return [(0,) * len(row) for row in real(ctx, forms, group)]

    monkeypatch.setattr(count, "_orbit_images", collapsed)
    pairings = chamber_normalize(ANTICANONICAL)[2].as_tuple()
    with pytest.raises(DP5Error, match="marked but never reached"):
        count._orbit_reps(3, pairings)


@pytest.mark.parametrize("q,text", [(2, "12,-4,-4,-4,-4"), (4, "2,-2,0,0,0"),
                                    (9, "2,-2,0,0,0")])
def test_solve_kernels_packs_each_outer_form_once(monkeypatch, q, text):
    # q = 9 is odd p with e = 2: negated forms and their X^i multiples
    from dp5 import count
    from dp5.gf import field_of_order
    from dp5.p1 import BinaryForm
    from dp5.picard import chamber_normalize

    dd = chamber_normalize(_cls(text))[2]
    pairings = dd.as_tuple()
    degs = tuple(dd[f"E{i}"] for i in (1, 2, 3, 4))
    degs6 = tuple(dd[name] for name in count._SLOTS)
    ctx = field_of_order(q)
    reps = count._orbit_reps(q, pairings)
    want = []
    for coeffs, size, _ in reps:
        afixed = tuple(BinaryForm(ctx, d, c) for d, c in zip(degs, coeffs))
        dim, basis = count._kernel_coords(afixed, degs6, {})
        want.append((q**dim, basis, size))

    masks = count._root_masks(ctx, degs6)  # warm: a table miss packs forms
    real_inner, walked = count._count_inner, []

    def count_inner(ctx, degs6, vectors, masks):
        walked.append(vectors)
        return real_inner(ctx, degs6, vectors, masks)

    real, calls = count._packed_basis, []

    def packed_basis(ctx, vectors):
        calls.append(vectors)
        return real(ctx, vectors)

    monkeypatch.setattr(count, "_count_inner", count_inner)
    monkeypatch.setattr(count, "_packed_basis", packed_basis)
    total = count._fast_worker((q, pairings, reps))
    got = [(ctx.p ** len(b), b, size) for b, (_, size, _) in zip(walked, reps)]
    assert got == want
    assert total == sum(real_inner(ctx, degs6, basis, masks)[0] * size
                        for _, basis, size in want)
    # each distinct outer form, and its negation, packed once per count
    forms = {c for coeffs, _, _ in reps for c in coeffs}
    assert len(calls) <= 2 * len(forms)


def _table_builds(monkeypatch):
    # calls of the outer-table builders and misses of the mask-table cache,
    # which between them build every per-(q, degree) table
    from dp5 import count

    calls = {}
    for name in ("_orbit_images", "_pgl2", "_monic_forms"):
        real = getattr(count, name)

        def spy(*args, name=name, real=real):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(count, name, spy)
    return lambda: dict(calls, mask_misses=count._mask_table.cache_info().misses)


@pytest.mark.parametrize("q,text", [(3, "2,-2,0,0,0"), (4, "3,-1,-1,-1,-1"),
                                    (2, "8,-2,-2,-2,-2")])
def test_second_count_builds_no_table(monkeypatch, q, text):
    builds = _table_builds(monkeypatch)
    cold = count_fast(q, _cls(text))
    before = builds()
    assert before["_orbit_images"] > 0 and before["mask_misses"] > 0
    assert count_fast(q, _cls(text)) == cold
    assert builds() == before


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_verdicts_do_not_depend_on_warm_tables(monkeypatch, workers):
    from dp5.cli import main

    # at q = 2 the gates are ordered: quadruples 6 < orbit tables 24 <
    # root-mask tables 28 < kernel work 256, so each one trips alone
    alpha = _cls("3,0,0,-1,-1")
    gates = [(24, "orbit tables need"), (28, "root-mask tables need"),
             (256, "kernel enumeration needs")]

    def verdicts():
        out = []
        for need, _ in gates:
            with pytest.raises(BudgetExceeded) as err:
                count_fast(2, alpha, workers=workers, budget=need - 1)
            out.append(str(err.value))
            code = main(["count", "--q", "2", "--class", "3,0,0,-1,-1",
                         "--workers", str(workers), "--budget", str(need - 1)])
            out.append(code)
        return out

    want = []
    for need, text in gates:
        want += [f"{text} {need} > budget {need - 1}", 3]
    assert verdicts() == want  # cold
    assert count_fast(2, alpha, workers=workers).work == 256
    builds = _table_builds(monkeypatch)
    before = builds()
    assert verdicts() == want  # warm
    assert builds() == before


def test_table_caches_stay_within_their_bound():
    from dp5 import count
    from dp5.picard import chamber_normalize

    # k(H - E1) has outer degrees (0, 0, 0, k); a count refused at the
    # kernel gate has already built its outer tables
    cases = [(2, k) for k in range(9)] + [(3, k) for k in range(6)]
    cases += [(4, k) for k in range(4)] + [(5, k) for k in range(4)]
    cases += [(7, k) for k in range(3)] + [(q, k) for q in (8, 9, 11) for k in (0, 1)]
    cases += [(13, 0), (16, 0)]
    pairs = set()
    for q, k in cases:
        alpha = CurveClass(k, -k, 0, 0, 0)
        dd = chamber_normalize(alpha)[2]
        pairs |= {(q, dd[f"E{i}"]) for i in (1, 2, 3, 4)}
        try:
            count_fast(q, alpha, budget=20_000)
        except BudgetExceeded as err:
            assert "kernel enumeration" in str(err), (q, k)
    assert len(pairs) > count._TABLE_CACHE
    for cached in (count._outer_tables, count._mask_table):
        info = cached.cache_info()
        assert info.maxsize == count._TABLE_CACHE
        assert info.misses >= len(pairs)
        assert info.currsize <= info.maxsize


def test_counts_leave_the_cached_tables_unchanged():
    from dp5 import count

    def snapshot(q, degrees):
        outer = {}
        for d in degrees:
            forms, images, masks = count._outer_tables(q, d)
            outer[d] = ([(f.d, f.coeffs) for f in forms], images, masks)
        return outer, {d: dict(count._mask_table(q, d)) for d in degrees}

    for q, first, second in ((3, "2,-2,0,0,0", "1,-1,0,0,0"),
                             (4, "3,-1,-1,-1,-1", "2,-2,0,0,0"),
                             (5, "3,-1,-1,-1,-1", "2,-2,0,0,0")):
        count_fast(q, _cls(first))
        before = snapshot(q, (0, 1, 2))
        hits = count._outer_tables.cache_info().hits
        count_fast(q, _cls(second))
        assert count._outer_tables.cache_info().hits > hits, q
        assert snapshot(q, (0, 1, 2)) == before, q


def _first_kernel(q, alpha):
    """(ctx, degs6, basis) of the first kernel count_fast walks."""
    from dp5 import count
    from dp5.gf import field_of_order
    from dp5.p1 import BinaryForm
    from dp5.picard import chamber_normalize

    ctx = field_of_order(q)
    dd = chamber_normalize(alpha)[2]
    coeffs = count._orbit_reps(q, tuple(dd[name] for name in LINES))[0][0]
    afixed = tuple(BinaryForm(ctx, dd[f"E{i + 1}"], c) for i, c in enumerate(coeffs))
    degs6 = tuple(dd[name] for name in count._SLOTS)
    return ctx, degs6, count._kernel_coords(afixed, degs6, {})[1]


def _break_scaling(q, text):
    """Give the generator multiple g*f of one slot form f a root mask that
    meets another group, where f lies in the first accepted vector of the
    first kernel count_fast walks for (q, text); f keeps its mask."""
    from dp5.count import _SLOT_GROUPS, _mask_table, _packed_basis, _projective_walk

    ctx, degs6, basis = _first_kernel(q, _cls(text))
    tables = {d: _mask_table(q, d) for d in degs6}
    for x in _projective_walk(ctx.p, ctx.e, basis):
        forms = _unpack(ctx, x, degs6)
        if not all(any(f) for f in forms):
            continue
        keys = [_packed_basis(ctx, [f])[0] for f in forms]
        masks = [tables[d][k] for d, k in zip(degs6, keys)]
        group = [masks[a] | masks[b] for a, b in _SLOT_GROUPS]
        if not (group[0] & group[1] or group[0] & group[2] or group[1] & group[2]):
            break
    assert group[1] | group[2]
    scaled = tuple(ctx.mul(ctx.generator, c) for c in forms[0])
    key = _packed_basis(ctx, [scaled])[0]
    assert key != keys[0]
    tables[degs6[0]][key] |= group[1] | group[2]


GOLDEN_HOM = {(r["q"], r["class"]): r["hom"] for r in GOLDEN["oracle_counts"]}


@pytest.mark.parametrize("q", [3, 4])
def test_scaling_check_fires_on_a_broken_mask_table(q):
    from dp5.cli import main
    from dp5.errors import DP5Error

    assert count_fast(q, _cls("1,-1,0,0,0")).hom == GOLDEN_HOM[q, "1,-1,0,0,0"]
    _break_scaling(q, "1,-1,0,0,0")
    with pytest.raises(DP5Error, match="not invariant under scaling"):
        count_fast(q, _cls("1,-1,0,0,0"))
    assert main(["count", "--q", str(q), "--class", "1,-1,0,0,0"]) == 1


def test_scaling_check_survives_python_O():
    import subprocess
    import sys

    here = os.path.dirname(__file__)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {here!r})\n"
        "from test_count import _break_scaling\n"
        "from dp5.cli import main\n"
        "_break_scaling(3, '1,-1,0,0,0')\n"
        "raise SystemExit(main(['count', '--q', '3', '--class', '1,-1,0,0,0']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(here, os.pardir, "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 1, out.stderr
    assert "not invariant under scaling" in out.stderr


@pytest.mark.parametrize("q", [3, 4, 9, 16])
def test_scaling_check_finds_one_broken_key_anywhere(q):
    from dp5.cli import main
    from dp5.count import _mask_table, _packed_basis, _projective_walk
    from dp5.errors import DP5Error

    # (1,-1,0,0,0) has one kernel and slot degrees (1, 0, 0, 0, 1, 1); the
    # key broken is in no slot of the walk's first four vectors with six
    # nonzero slots, nor of their multiples by the generator, so a check
    # that samples the head of the walk misses it
    ctx, degs6, basis = _first_kernel(q, _cls("1,-1,0,0,0"))
    walk = (_unpack(ctx, x, degs6) for x in _projective_walk(ctx.p, ctx.e, basis))
    head = [forms for forms in walk if all(map(any, forms))][:4]
    drawn = {_packed_basis(ctx, [[ctx.mul(a, c) for c in f]])[0]
             for forms in head for f in forms if len(f) == 2 for a in (1, ctx.generator)}
    table = _mask_table(q, 1)
    key = next(k for k in table if k not in drawn)
    table[key] ^= 1
    with pytest.raises(DP5Error, match="not invariant under scaling"):
        count_fast(q, _cls("1,-1,0,0,0"))
    assert main(["count", "--q", str(q), "--class", "1,-1,0,0,0"]) == 1


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 16])
def test_unit_bases_walk_each_form_in_step_with_its_generator_multiple(q, d):
    from dp5.count import _mask_table, _packed_basis, _unit_bases, _walk
    from dp5.gf import field_of_order

    ctx = field_of_order(q)
    basis, scaled = _unit_bases(q, d)
    forms, multiples = list(_walk(ctx.p, basis)), list(_walk(ctx.p, scaled))
    assert len(forms) == len(set(forms)) == len(multiples) == q ** (d + 1) - 1
    assert set(forms) == set(_mask_table(q, d))
    for f, gf in zip(forms, multiples):
        (coeffs,) = _unpack(ctx, f, (d,))
        scaled_coeffs = [ctx.mul(ctx.generator, c) for c in coeffs]
        assert gf == _packed_basis(ctx, [scaled_coeffs])[0], (q, d, coeffs)


@pytest.mark.parametrize("d", [0, 2])
@pytest.mark.parametrize("q", [3, 9])
def test_scaling_check_fires_on_a_broken_degree_0_or_2_table(q, d):
    from dp5.cli import main
    from dp5.count import _check_scaling, _packed_basis, _root_masks
    from dp5.errors import DP5Error
    from dp5.gf import field_of_order

    # (2,-2,0,0,0) has slot degrees (2, 0, 0, 0, 2, 2); the form broken, g
    # times the first unit form, is not monic, so no outer table reads it
    ctx = field_of_order(q)
    masks = _root_masks(ctx, (0, 2))
    _check_scaling(ctx, masks)
    key = _packed_basis(ctx, [(ctx.generator,) + (0,) * d])[0]
    masks[d][key] ^= 1
    with pytest.raises(DP5Error, match=f"degree {d} .* not invariant under scaling"):
        count_fast(q, _cls("2,-2,0,0,0"))
    assert main(["count", "--q", str(q), "--class", "2,-2,0,0,0"]) == 1


def test_only_the_slot_degrees_of_a_and_b_get_mask_tables(monkeypatch):
    from dp5 import count

    # (5,-3,-1,-1,0) has slot degrees (4, 1, 1, 2, 3, 4) and outer degrees
    # (0, 1, 1, 3): A and B have degrees 1 and 4, and degree 2 is C's alone
    real, checked = count._check_scaling, []

    def check(ctx, masks):
        checked.append(sorted(masks))
        return real(ctx, masks)

    monkeypatch.setattr(count, "_check_scaling", check)
    assert count_fast(3, _cls("5,-3,-1,-1,0")).hom == 77880
    assert checked == [[1, 4]]
    # tables of degrees 0, 1, 3 (outer) and 4: none of degree 2 is built
    assert count._mask_table.cache_info().misses == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_projective_walk_visits_one_vector_per_line(q):
    from dp5.count import _packed_basis, _projective_walk, _walk

    # four linear forms are never coprime at q = 2
    for text in ("1,-1,0,0,0", "2,-2,0,0,0",
                 "8,-2,-2,-2,-2" if q == 2 else "3,-1,-1,-1,-1"):
        ctx, degs6, basis = _first_kernel(q, _cls(text))
        dim = len(basis) // ctx.e
        lines = list(_projective_walk(ctx.p, ctx.e, basis))
        assert len(lines) == len(set(lines)) == (q**dim - 1) // (q - 1), (q, text)
        multiples = set()
        for x in lines:
            coeffs = [c for f in _unpack(ctx, x, degs6) for c in f]
            for a in range(1, q):
                multiples.add(_packed_basis(ctx, [[ctx.mul(a, c) for c in coeffs]])[0])
        assert multiples == set(_walk(ctx.p, basis)), (q, text)


def test_walked_counts_the_vectors_the_walk_yields(monkeypatch):
    from dp5 import count

    real, yields = count._projective_walk, []

    def walk(p, e, basis):
        for x in real(p, e, basis):
            yields[-1] += 1
            yield x

    monkeypatch.setattr(count, "_projective_walk", walk)
    cases = [(2, scale(ANTICANONICAL, 3), 378), (3, _cls("2,-2,0,0,0"), 363),
             (4, ANTICANONICAL, 85), (5, ANTICANONICAL, 156), (9, ANTICANONICAL, 1640)]
    for q, alpha, walked in cases:
        yields.append(0)
        res = count_fast(q, alpha)
        assert res.walked == yields[-1] == walked, (q, alpha)
        assert res.walked == res.kernels * (res.work // res.kernels - 1) // (q - 1)
    assert count_naive(2, _cls("1,0,0,0,0")).walked == 0


def test_walked_is_in_the_count_record(tmp_path):
    from dp5.cli import main

    out = tmp_path / "r.json"
    for workers in ("1", "2"):
        assert main(["count", "--q", "4", "--class", "2,-2,0,0,0",
                     "--workers", workers, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["payload"]["walked"] == 3 * 341


def test_outer_tables_stay_within_their_entry_bound():
    from dp5 import count

    # outer degrees (0, 0, 0, 3) at q = 13 and 11 hold 2380 * 2184 and
    # 1464 * 1320 image entries, (0, 0, 0, 2) at q = 19 381 * 6840; each
    # count is refused at the kernel gate after its tables were built
    cases = [(13, "3,-3,0,0,0", 10**7), (11, "3,-3,0,0,0", 6 * 10**6),
             (19, "2,-2,0,0,0", 6 * 10**6)]
    held = []
    for q, text, budget in cases:
        with pytest.raises(BudgetExceeded, match="kernel enumeration"):
            count_fast(q, _cls(text), budget=budget)
        held.append(count._outer_tables.cache_info().entries)
    assert 2380 * 2184 > count._OUTER_TABLE_ENTRIES
    # the q = 13 table is never kept, and q = 19's drops every older one
    assert held == [1, 1464 * 1320 + 2, 381 * 6840 + 1]
    info = count._outer_tables.cache_info()
    assert (info.misses, info.currsize) == (6, 2)
    assert info.entries <= count._OUTER_TABLE_ENTRIES
