"""plan_count: every gate of a fast count and its orbit representatives,
before any kernel is solved, walked or dealt to a pool."""

import concurrent.futures
import json
from pathlib import Path

import pytest

from dp5 import count
from dp5.count import CountPlan, count_fast, plan_count
from dp5.errors import BudgetExceeded
from dp5.picard import ANTICANONICAL, CurveClass, chamber_normalize, scale

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "golden.json")
                    .read_text(encoding="utf-8"))


def _cls(text):
    return CurveClass(*(int(x) for x in text.split(",")))


ORACLE = [(row["q"], _cls(row["class"])) for row in GOLDEN["oracle_counts"]]
TOWER = [(2, scale(ANTICANONICAL, m)) for m in range(1, 5)]
SMALL = [(q, _cls(text)) for q in (7, 8, 9, 16)
         for text in ("0,0,0,0,0", "1,0,0,0,0", "1,-1,0,0,0", "2,-1,-1,-1,0")]


def test_plan_solves_walks_and_pools_nothing(monkeypatch):
    calls = {}

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    spy(count, "_kernel_coords")
    spy(count, "_projective_walk")
    spy(concurrent.futures, "ProcessPoolExecutor")
    spy(count, "_kernel_dim")
    monkeypatch.setattr(count, "_POOL_MIN_WORK", 0)
    for q, alpha in ORACLE + TOWER:
        assert isinstance(plan_count(q, alpha), CountPlan)
    # the plan reads the kernel dimension once per count and nothing more
    assert calls == {"_kernel_dim": len(ORACLE + TOWER)}


def test_plan_computes_the_degree_data_once(monkeypatch):
    from dp5 import picard

    real, calls = picard.degree_data, []

    def degree_data(alpha):
        calls.append(alpha)
        return real(alpha)

    monkeypatch.setattr(picard, "degree_data", degree_data)
    for q, alpha in ORACLE:
        calls.clear()
        plan_count(q, alpha)
        assert calls == [alpha], (q, alpha)


@pytest.mark.parametrize("q,alpha", ORACLE + TOWER + SMALL)
def test_plan_matches_the_count(q, alpha):
    plan = plan_count(q, alpha)
    res = count_fast(q, alpha)
    assert plan[:4] == res[:4] == (q, alpha, res.pairings, res.degree)
    assert plan.chamber_pairings == chamber_normalize(alpha)[2].as_tuple()
    assert plan.reps == count._orbit_reps(q, plan.chamber_pairings)
    assert (plan.work, plan.walked, len(plan.reps),
            sum(size for _, size, _ in plan.reps),
            sum(n for _, _, n in plan.reps)) == (
        res.work, res.walked, res.kernels, res.quadruples, res.orbits)
    # one vector per F_q-line of each kernel: (q^dim - 1)/(q - 1) of q^dim
    assert plan.walked * (q - 1) + len(plan.reps) == plan.work


# (q, class, budget, message): the budget is one below what the gate needs, and
# the gates before it fit
GATES = [
    (2, ANTICANONICAL, 14, "quadruple enumeration needs 15 > budget 14"),
    (4, ANTICANONICAL, 299, "orbit tables need 300 > budget 299"),
    (1024, CurveClass(0, 0, 0, 0, 0), 1023, "root-mask tables need 1024 > budget 1023"),
    (4, _cls("2,-2,0,0,0"), 3071, "kernel enumeration needs 3072 > budget 3071"),
    # slot degrees (5, 3, 3, 4, 4, 5): degree 4 is C's alone and gets no table
    (2, _cls("6,-2,-1,-1,0"), 79, "root-mask tables need 80 > budget 79"),
]


@pytest.mark.parametrize("q,alpha,budget,message", GATES)
def test_each_gate_fires_in_the_plan_as_in_the_count(monkeypatch, q, alpha, budget,
                                                     message):
    real, reps_calls = count._orbit_reps, []

    def orbit_reps(*args):
        reps_calls.append(args)
        return real(*args)

    monkeypatch.setattr(count, "_orbit_reps", orbit_reps)
    for run in (lambda: plan_count(q, alpha, budget),
                lambda: count_fast(q, alpha, budget=budget)):
        with pytest.raises(BudgetExceeded) as err:
            run()
        assert str(err.value) == message
    # the three gates up front fire before any orbit is marked
    kernel_gate = message.startswith("kernel")
    assert len(reps_calls) == (2 if kernel_gate else 0)
    # and each is tight: one more unit of budget passes it
    try:
        plan_count(q, alpha, budget + 1)
    except BudgetExceeded as err:
        assert str(err) != message


@pytest.mark.parametrize("budget,match", [(-1, "nonnegative"), (2.9, "an integer"),
                                          (True, "an integer"), ("10", "an integer")])
def test_invalid_budgets_are_refused_by_the_plan(budget, match):
    for run in (plan_count, count_fast):
        with pytest.raises(ValueError, match=f"budget must be {match}"):
            run(2, _cls("1,0,0,0,0"), budget=budget)
