"""The kernel stage of count_fast: prefix-reused elimination, the Gray walk
and the acceptance test, each against a plain reference."""

import pytest

from dp5 import count
from dp5.count import CountResult, count_fast
from dp5.gf import field_of_order
from dp5.p1 import BinaryForm
from dp5.picard import ANTICANONICAL, LINES, CurveClass, chamber_normalize, scale


def _cls(text):
    return CurveClass(*(int(x) for x in text.split(",")))


def _setup(q, alpha):
    """(ctx, degs6, reps, afixed per rep) as count_fast's one shard sees them."""
    ctx = field_of_order(q)
    dd = chamber_normalize(alpha)[2]
    reps = count._orbit_reps(q, tuple(dd[name] for name in LINES))
    degs = [dd[f"E{i}"] for i in (1, 2, 3, 4)]
    afixed = [tuple(BinaryForm(ctx, d, c) for d, c in zip(degs, coeffs))
              for coeffs, _, _ in reps]
    return ctx, tuple(dd[name] for name in count._SLOTS), reps, afixed


@pytest.mark.parametrize("q,alpha", [(2, scale(ANTICANONICAL, 4)),
                                     (5, scale(ANTICANONICAL, 2)),
                                     (4, _cls("2,-2,0,0,0")), (9, _cls("2,-2,0,0,0"))])
def test_prefix_reused_bases_equal_fresh_ones(monkeypatch, q, alpha):
    ctx, degs6, reps, afixed = _setup(q, alpha)
    dd = chamber_normalize(alpha)[2]
    walked, eliminations = [], []
    real_inner, real_eliminate = count._count_inner, count._eliminate

    def count_inner(ctx, degs6, vectors, masks):
        walked.append(vectors)
        return real_inner(ctx, degs6, vectors, masks)

    def eliminate(*args):
        eliminations.append(1)
        return real_eliminate(*args)

    monkeypatch.setattr(count, "_count_inner", count_inner)
    monkeypatch.setattr(count, "_eliminate", eliminate)
    count._fast_worker((q, dd.as_tuple(), reps))
    monkeypatch.undo()
    fresh = [count._kernel_coords(a, degs6, {})[1] for a in afixed]
    assert walked == fresh
    # one elimination per kernel, and one more per run of equal (a1, a2, a3)
    runs = sum(1 for i, a in enumerate(afixed) if i == 0 or afixed[i - 1][:3] != a[:3])
    assert len(eliminations) == len(reps) + runs
    if q == 2:
        assert (len(reps), runs) == (115, 42)


def _accepted_by_reference(ctx, degs6, basis, masks):
    """Accepted vectors of the full F_p-walk by the six-slot test, and how
    many of the vectors walked have a zero slot."""
    width = count._lane_width(ctx.p) * ctx.e
    shifts, shift = [], 0
    for d in degs6:
        shifts.append((shift, (1 << width * (d + 1)) - 1))
        shift += width * (d + 1)
    accepted = zero = 0
    for x in count._walk(ctx.p, basis):
        keys = [x >> s & m for s, m in shifts]
        if not all(keys):
            zero += 1
            continue
        got = [masks[d][k] for d, k in zip(degs6, keys)]
        groups = [got[a] | got[b] for a, b in count._SLOT_GROUPS]
        accepted += not any(groups[i] & groups[j] for i, j in ((0, 1), (0, 2), (1, 2)))
    return accepted, zero


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_count_inner_matches_the_six_slot_test_on_every_vector(q):
    # (2,-2,0,0,0) and (1,-1,0,0,0) have degree-0 slots; every class here
    # has vectors with a zero slot
    texts = ["1,-1,0,0,0", "2,-2,0,0,0", "2,-1,-1,-1,0"]
    texts.append("8,-2,-2,-2,-2" if q == 2 else "3,-1,-1,-1,-1")
    seen_degree_0 = zero_total = accepted_total = 0
    for text in texts:
        ctx, degs6, reps, afixed = _setup(q, _cls(text))
        masks = count._root_masks(ctx, degs6)
        seen_degree_0 += 0 in degs6
        for a in afixed[:3]:
            dim, basis = count._kernel_coords(a, degs6, {})
            accepted, zero = _accepted_by_reference(ctx, degs6, basis, masks)
            assert count._count_inner(ctx, degs6, basis, masks) == (accepted, q**dim)
            zero_total += zero
            accepted_total += accepted
    assert seen_degree_0 and zero_total and accepted_total


def test_a_missing_table_entry_is_not_taken_for_a_zero_slot():
    ctx, degs6, _, afixed = _setup(2, _cls("8,-2,-2,-2,-2"))
    masks = dict(count._root_masks(ctx, degs6))
    _, basis = count._kernel_coords(afixed[0], degs6, {})
    masks[degs6[0]] = {}  # slot 0 has no nonzero form left
    with pytest.raises(KeyError):
        count._count_inner(ctx, degs6, basis, masks)


@pytest.mark.parametrize("q,alpha", [(2, scale(ANTICANONICAL, 4)),
                                     (5, scale(ANTICANONICAL, 2))])
def test_strided_shards_give_equal_results(monkeypatch, q, alpha):
    # reps[i::shards] breaks the runs of equal (a1, a2, a3) differently for
    # each worker count, so each shard rebuilds its own prefixes
    monkeypatch.setattr(count, "_POOL_MIN_WORK", 0)
    results = [count_fast(q, alpha, workers=w) for w in (1, 2, 3)]
    assert isinstance(results[0], CountResult)
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("steps", [1, 2, 4, 8])
def test_capped_ruler_walks_every_combination_once(monkeypatch, steps):
    full = {n: list(count._ruler(2, n)) for n in range(9)}
    monkeypatch.setattr(count, "_RULER_STEPS", steps)
    for n in range(9):
        assert list(count._ruler(2, n)) == full[n], n
    if steps < 2**8 - 1:
        assert not isinstance(count._ruler(2, 8), bytes)  # chained, not built
    basis = [1 << i for i in range(8)]  # every combination is a distinct int
    assert sorted(count._walk(2, basis)) == list(range(1, 1 << 8))
    # q = 4, blocks of two: basis[j] plus the combinations of basis[:j]
    lines = list(count._projective_walk(2, 2, basis))
    assert sorted(lines) == sorted(x for j in (0, 2, 4, 6) for x in range(1 << j, 2 << j))
    assert len(lines) == (4**4 - 1) // 3


def test_odd_rulers_chain_past_the_cap(monkeypatch):
    full = {(p, n): list(count._ruler(p, n)) for p in (3, 5) for n in range(5)}
    monkeypatch.setattr(count, "_RULER_STEPS", 10)
    for (p, n), want in full.items():
        assert list(count._ruler(p, n)) == want, (p, n)
        assert len(want) == p**n - 1


def test_pool_gate_reads_the_vectors_walked(monkeypatch):
    import concurrent.futures

    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    # q = 5, -2K: work 406 250 is over the gate, 101 530 vectors walked are not
    res = count_fast(5, scale(ANTICANONICAL, 2), workers=2)
    assert res.work >= count._POOL_MIN_WORK > res.walked == 101530
    assert started == []


def test_mask_table_cache_counts_its_entries():
    count_fast(3, _cls("2,-2,0,0,0"))
    info = count._mask_table.cache_info()
    dd = chamber_normalize(_cls("2,-2,0,0,0"))[2]
    degrees = {dd[name] for name in count._SLOTS} | {dd[f"E{i}"] for i in (1, 2, 3, 4)}
    assert info.currsize == len(degrees)
    assert info.entries == sum(3 ** (d + 1) - 1 for d in degrees)
    assert info.entries <= count._MASK_TABLE_ENTRIES


# the vectors walked per kernel and the kernels per class in the lemma test
_LEMMA_VECTORS = 4000
_LEMMA_KERNELS = 3


def _coprime_quadruples(ctx, degs, rng):
    """Pairwise coprime (a1, a2, a3, a4) of degrees degs with their root
    masks, drawn at random with nonzero coefficient vectors."""
    while True:
        forms, masks = [], []
        for d in degs:
            coeffs = [0] * (d + 1)
            while not any(coeffs):
                coeffs = [rng.randrange(ctx.q) for _ in range(d + 1)]
            forms.append(BinaryForm(ctx, d, tuple(coeffs)))
            masks.append(count._mask_table(ctx.q, d)[count._packed_basis(ctx, [coeffs])[0]])
        if not any(masks[i] & masks[j] for i in range(4) for j in range(i)):
            yield tuple(forms), masks


@pytest.mark.parametrize("q", [7, 8, 16])
def test_groups_a_and_b_decide_coprimality_of_every_disjoint_pair(q):
    # the lemma of _count_inner, vector by vector on real kernels: with six
    # nonzero slots, A = (L13, L24) misses B = (L34, L12) exactly when the
    # twelve disjoint slot pairs, and the twelve outer-slot pairs, are coprime
    import random
    from itertools import accumulate, islice

    from dp5.picard import meets

    slots = count._SLOTS
    slot_pairs = [(i, j) for i in range(6) for j in range(i) if not meets(slots[i], slots[j])]
    outer_pairs = [(k, s) for k in range(4) for s in range(6)
                   if not meets(f"E{k + 1}", slots[s])]
    assert len(slot_pairs) == len(outer_pairs) == 12
    a_slots = [slots.index(n) for n in ("L13", "L24")]
    b_slots = [slots.index(n) for n in ("L34", "L12")]
    ctx, rng = field_of_order(q), random.Random(q)
    width = count._lane_width(ctx.p) * ctx.e
    sides = {True: 0, False: 0}
    for text in ("3,-1,-1,-1,-1", "1,-1,0,0,0", "2,0,0,0,0", "4,-2,-1,-1,-1"):
        dd = chamber_normalize(_cls(text))[2]
        degs6 = tuple(dd[name] for name in slots)
        tables = [count._mask_table(q, d) for d in degs6]
        ends = [0, *accumulate(width * (d + 1) for d in degs6)]
        quads = _coprime_quadruples(ctx, [dd[f"E{i}"] for i in (1, 2, 3, 4)], rng)
        for afixed, outer in islice(quads, _LEMMA_KERNELS):
            dim, basis = count._kernel_coords(afixed, degs6, {})
            assert dim == count._kernel_dim(dd), (q, text)
            for x in islice(count._projective_walk(ctx.p, ctx.e, basis), _LEMMA_VECTORS):
                keys = [x >> a & (1 << b - a) - 1 for a, b in zip(ends, ends[1:])]
                if not all(keys):
                    continue
                m = [t[k] for t, k in zip(tables, keys)]
                a_misses_b = not any(m[i] & m[j] for i in a_slots for j in b_slots)
                slots_coprime = not any(m[i] & m[j] for i, j in slot_pairs)
                all_coprime = slots_coprime and not any(outer[k] & m[s] for k, s in outer_pairs)
                assert a_misses_b == slots_coprime == all_coprime, (q, text, x)
                sides[a_misses_b] += 1
    assert sides[True] and sides[False], sides
