"""Rank-5 intersection lattice: the ten line classes, their meeting graph,
the 120 configuration symmetries, and chamber normalization."""

import random

import pytest

from dp5.errors import InconsistentPairings, NotInEffDual
from dp5.picard import (
    ANTICANONICAL,
    LINES,
    CurveClass,
    add,
    apply_symmetry,
    boundary_distance,
    chamber_coords,
    chamber_normalize,
    degree_data,
    in_chamber,
    in_eff_dual,
    line_class,
    meets,
    pairing,
    pairings_to_class,
    scale,
    surface_point_count,
    symmetries,
    torsor_open_count,
)


def _rand_class(rng):
    return CurveClass(rng.randrange(-3, 7), *(rng.randrange(-4, 3) for _ in range(4)))


def test_lines_are_minus_one_classes():
    for name in LINES:
        l = line_class(name)
        assert pairing(l, l) == -1
        assert pairing(l, ANTICANONICAL) == 1


def test_meeting_graph_is_three_regular_with_15_edges():
    # each of the ten lines meets exactly three others, giving 15 meetings
    edges = 0
    for a in LINES:
        deg = sum(1 for b in LINES if b != a and meets(a, b))
        assert deg == 3
        edges += deg
    assert edges == 30  # 15 unordered pairs
    for a in LINES:
        for b in LINES:
            if a == b:
                continue
            la, lb = line_class(a), line_class(b)
            assert pairing(la, lb) == (1 if meets(a, b) else 0)


def test_anticanonical_degree_is_five():
    assert pairing(ANTICANONICAL, ANTICANONICAL) == 5
    assert degree_data(ANTICANONICAL).d == 5


def test_degree_is_anticanonical_pairing():
    rng = random.Random(2)
    for _ in range(100):
        alpha = _rand_class(rng)
        dd = degree_data(alpha)
        assert dd.d == pairing(alpha, ANTICANONICAL)
        assert sum(dd.pairings.values()) == 2 * dd.d


def test_pairings_to_class_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        alpha = _rand_class(rng)
        dd = degree_data(alpha)
        assert pairings_to_class(dd.pairings) == alpha
    bad = dict(degree_data(ANTICANONICAL).pairings)
    bad["L34"] += 1
    with pytest.raises(InconsistentPairings):
        pairings_to_class(bad)
    with pytest.raises(InconsistentPairings):
        pairings_to_class({"E1": 0})


def test_in_eff_dual():
    assert in_eff_dual(ANTICANONICAL)
    assert in_eff_dual(CurveClass(0, 0, 0, 0, 0))
    # a line class pairs to -1 with itself
    assert not in_eff_dual(line_class("L12"))
    with pytest.raises(NotInEffDual):
        boundary_distance(line_class("E1"))


def test_every_eff_dual_refusal_is_the_one_picard_raises():
    from dp5.bundles import sample_bundles
    from dp5.count import count_fast, count_naive
    from dp5.picard import eff_dual_data

    alpha = line_class("E1")
    calls = (
        eff_dual_data, chamber_normalize, boundary_distance,
        lambda a: count_naive(2, a), lambda a: count_fast(2, a),
        lambda a: next(sample_bundles(2, a, 1, 0)),
    )
    messages = set()
    for call in calls:
        with pytest.raises(NotInEffDual) as info:
            call(alpha)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_symmetries_form_a_group_of_order_120():
    syms = symmetries()
    assert len(syms) == 120
    as_tuples = {tuple(sorted(s.items())) for s in syms}
    assert len(as_tuples) == 120
    rng = random.Random(4)
    for _ in range(30):
        s1, s2 = rng.choice(syms), rng.choice(syms)
        comp = {k: s2[v] for k, v in s1.items()}
        assert tuple(sorted(comp.items())) in as_tuples
    # identity present; meeting relation preserved
    assert {k: k for k in LINES} in syms
    for s in rng.sample(syms, 10):
        for a in LINES:
            for b in LINES:
                if a != b:
                    assert meets(s[a], s[b]) == meets(a, b)


def test_apply_symmetry_preserves_pairings():
    syms = symmetries()
    rng = random.Random(5)
    for _ in range(40):
        alpha = _rand_class(rng)
        s = rng.choice(syms)
        beta = apply_symmetry(alpha, s)
        dda, ddb = degree_data(alpha), degree_data(beta)
        assert ddb.d == dda.d
        assert sorted(ddb.pairings.values()) == sorted(dda.pairings.values())
        assert all(ddb[name] == dda[s[name]] for name in LINES)
        assert pairing(beta, beta) == pairing(alpha, alpha)


def test_orbit_of_a_line_is_all_ten():
    syms = symmetries()
    orbit = {apply_symmetry(line_class("E1"), s) for s in syms}
    assert orbit == {line_class(n) for n in LINES}


def test_chamber_normalize():
    syms = symmetries()
    rng = random.Random(6)
    tested = 0
    while tested < 60:
        alpha = _rand_class(rng)
        if not in_eff_dual(alpha):
            continue
        tested += 1
        frame, perm, dd = chamber_normalize(alpha)
        assert in_chamber(dd)
        assert sorted(dd.pairings.values()) == sorted(
            degree_data(alpha).pairings.values()
        )
        assert perm in syms
        assert degree_data(apply_symmetry(alpha, perm)).pairings == dd.pairings
        d1, *rest = chamber_coords(dd)
        assert d1 == boundary_distance(alpha) == min(dd.pairings.values())
        assert all(x >= 0 for x in rest)
        # normalizing again is a no-op
        a2 = apply_symmetry(alpha, perm)
        _, perm2, dd2 = chamber_normalize(a2)
        assert dd2.pairings == dd.pairings


def test_scale_and_add():
    assert scale(ANTICANONICAL, 2) == CurveClass(6, -2, -2, -2, -2)
    assert add(ANTICANONICAL, ANTICANONICAL) == scale(ANTICANONICAL, 2)


def test_point_counts():
    for q in (2, 3, 4, 5, 7):
        assert surface_point_count(q) == q * q + 5 * q + 1
        # removing the ten lines (15 pairwise meeting points) leaves the
        # torsor image: q^2+5q+1 - 10(q+1) + 15 = (q-2)(q-3)
        assert torsor_open_count(q) == (q - 2) * (q - 3)
        assert (
            torsor_open_count(q)
            == surface_point_count(q) - 10 * (q + 1) + 15
        )


def test_degree_cross_check_is_not_an_assert(monkeypatch):
    from dp5 import picard
    from dp5.cli import main
    from dp5.errors import DP5Error

    monkeypatch.setattr(picard, "ANTICANONICAL", CurveClass(3, -1, -1, -1, 0))
    with pytest.raises(DP5Error, match="degree cross-check"):
        degree_data(CurveClass(0, 0, 0, 0, 1))
    assert main(["chamber", "--class", "0,0,0,0,1"]) == 1


def _reference_frames_and_role_maps():
    # the frames and role maps as they were built from meets on every call
    from itertools import combinations, permutations

    indep = [
        s
        for s in combinations(LINES, 4)
        if not any(meets(a, b) for a, b in combinations(s, 2))
    ]
    frames = sorted(
        (f for s in indep for f in permutations(s)),
        key=lambda f: tuple(LINES.index(n) for n in f),
    )
    perms = []
    for frame in frames:
        perm = {f"E{i}": frame[i - 1] for i in (1, 2, 3, 4)}
        for i, j in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
            (perm[f"L{i}{j}"],) = [
                m for m in LINES if meets(m, frame[i - 1]) and meets(m, frame[j - 1])
            ]
        perms.append(perm)
    return frames, perms


def test_frames_and_symmetries_match_a_reference_from_meets():
    from dp5 import picard

    frames, perms = _reference_frames_and_role_maps()
    assert len(frames) == 120
    assert picard._frames() == frames
    assert symmetries() == perms
    assert [picard._frame_perm(f) for f in frames] == perms
    # chamber_normalize reports the frame that goes with its role map
    rng = random.Random(9)
    for _ in range(40):
        alpha = _rand_class(rng)
        if in_eff_dual(alpha):
            frame, perm, _ = chamber_normalize(alpha)
            assert perms[frames.index(frame)] == perm


def test_frames_are_built_once_over_many_normalizations(monkeypatch):
    from dp5 import picard

    calls = []
    build = picard._frames
    monkeypatch.setattr(picard, "_frames", lambda: calls.append(1) or build())
    picard._framed.cache_clear()
    try:
        rng = random.Random(10)
        for _ in range(200):
            alpha = _rand_class(rng)
            if in_eff_dual(alpha):
                chamber_normalize(alpha)
        symmetries()
    finally:
        picard._framed.cache_clear()
    assert len(calls) == 1


def test_unreachable_branches_raise_dp5error_also_under_python_O(monkeypatch):
    import os
    import subprocess
    import sys

    from dp5 import gf, picard
    from dp5.cli import main
    from dp5.errors import DP5Error

    monkeypatch.setattr(picard, "in_chamber", lambda dd: False)
    monkeypatch.setattr(gf, "_irreducible", lambda f, p: False)
    with pytest.raises(DP5Error, match="missed all 120 chambers"):
        chamber_normalize(ANTICANONICAL)
    assert main(["chamber", "--class", "3,-1,-1,-1,-1"]) == 1
    with pytest.raises(DP5Error, match="no irreducible found"):
        gf._smallest_modulus(3, 2)

    code = (
        "from dp5 import gf, picard\n"
        "from dp5.errors import DP5Error\n"
        "picard.in_chamber = lambda dd: False\n"
        "gf._irreducible = lambda f, p: False\n"
        "calls = [lambda: picard.chamber_normalize(picard.ANTICANONICAL),\n"
        "         lambda: gf._smallest_modulus(3, 2)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except DP5Error:\n"
        "        continue\n"
        "    raise SystemExit('check vanished')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
