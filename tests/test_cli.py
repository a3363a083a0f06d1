"""Command-line contract: exit codes, record payload determinism, and the
CSV schema."""

import csv
import json
from pathlib import Path

import pytest

from dp5 import __version__
from dp5.cli import SWEEP_COLUMNS, main


def test_count_writes_run_record(tmp_path):
    out = tmp_path / "rec.json"
    code = main(["count", "--q", "2", "--class", "3,-1,-1,-1,-1",
                 "--method", "naive", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["command"] == "count"
    assert rec["version"] == __version__
    assert rec["params"]["class"] == [3, -1, -1, -1, -1]
    assert rec["payload"]["hom_count"] == 0
    assert rec["payload"]["d"] == 5
    assert "timestamp" in rec and "wall_time" in rec


def test_record_payload_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["count", "--q", "3", "--class", "1,-1,0,0,0", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert json.dumps(ra["payload"], sort_keys=True) == json.dumps(
        rb["payload"], sort_keys=True
    )


def test_count_exit_codes():
    assert main(["count", "--q", "2", "--class", "1,2"]) == 2
    assert main(["count", "--q", "2"]) == 2  # neither selector
    assert main(["count", "--q", "2", "--class", "0,0,0,0,0",
                 "--pairings", ",".join(["1"] * 10)]) == 2  # both selectors
    assert main(["count", "--q", "2", "--class", "1,-1,-1,0,0"]) == 2
    assert main(["count", "--q", "6", "--class", "0,0,0,0,0"]) == 2
    assert main(["count", "--q", "2", "--class", "3,-1,-1,-1,-1",
                 "--method", "naive", "--budget", "10"]) == 3


def test_count_accepts_pairings_vector():
    # all-ones pairing vector is the anticanonical class
    assert main(["count", "--q", "2", "--pairings", ",".join(["1"] * 10)]) == 0
    assert main(["count", "--q", "2", "--pairings", "1,2,3"]) == 2
    assert main(["count", "--q", "2", "--pairings",
                 "1,1,1,1,1,1,1,1,1,2"]) == 2  # inconsistent with any class


def test_count_csv_format(capsys):
    assert main(["count", "--q", "2", "--class", "1,0,0,0,0",
                 "--format", "csv"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if "," in l and "=" not in l]
    head = lines[0].split(",")
    assert head == list(SWEEP_COLUMNS)
    row = next(csv.DictReader(lines))
    assert row["class"] == "1,0,0,0,0"
    assert row["hom_count"] == "6"


def test_constant_subcommand(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["constant", "--q", "5", "--method", "both",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "direct" in text and "zeta" in text and "overlap ok" in text
    rec = json.loads(out.read_text())
    assert set(rec["payload"]) == {"direct", "zeta"}
    assert main(["constant", "--q", "4", "--method", "zeta"]) == 2
    assert main(["constant", "--q", "5", "--prec", "1e-8",
                 "--method", "direct"]) == 0


@pytest.mark.parametrize("q", ["2", "3", "4"])
def test_constant_refuses_a_diverging_zeta_before_any_work(monkeypatch, capsys, q):
    # --method both is the default; zeta diverges below q = 5
    from dp5 import constants

    calls = []
    monkeypatch.setattr(constants, "leading_constant_direct",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["constant", "--q", q]) == 2
    assert capsys.readouterr().out == ""
    assert calls == []


def test_constant_disagreement_exits_4(monkeypatch, capsys):
    from fractions import Fraction

    from dp5 import constants
    from dp5.constants import CertifiedReal

    def fake_zeta(q, curve=None, K=None, target_radius=None):
        return CertifiedReal(Fraction(9, 10), Fraction(1, 10**14))

    monkeypatch.setattr(constants, "leading_constant_zeta", fake_zeta)
    assert main(["constant", "--q", "5", "--method", "both"]) == 4
    assert "DISAGREE" in capsys.readouterr().out


def test_constant_curve_file(tmp_path):
    f = tmp_path / "curve.json"
    f.write_text(json.dumps({"q": 7, "g": 1, "weil": [1, 0, 7]}))
    assert main(["constant", "--q", "7", "--curve", str(f),
                 "--method", "direct"]) == 0
    assert main(["constant", "--q", "5", "--curve", str(f),
                 "--method", "direct"]) == 2  # q mismatch
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"q": 7, "g": 1, "weil": [2, 0, 7]}))
    assert main(["constant", "--q", "7", "--curve", str(bad)]) == 2
    assert main(["constant", "--q", "7", "--curve",
                 str(tmp_path / "missing.json")]) == 2


def test_motivic_subcommand(capsys):
    assert main(["motivic", "--trunc", "7", "--specialize", "5"]) == 0
    text = capsys.readouterr().out
    assert "83285" in text
    assert "9648/3125" in text


def test_chamber_subcommand(capsys):
    assert main(["chamber", "--class", "3,-1,-1,-1,-1"]) == 0
    text = capsys.readouterr().out
    assert "1,1,1,1,1,1,1,1,1,1" in text
    assert "frame" in text
    assert main(["chamber", "--class", "0,-1,0,0,0"]) == 2


def test_verify_subcommand(capsys):
    assert main(["verify", "--suite", "identities"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert main(["verify", "--suite", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15 and all(line.startswith("PASS  ") for line in lines)


def test_verify_bundles_fails_on_a_wrong_degree(monkeypatch, capsys):
    from dp5.bundles import CongruenceBundle

    true_degree = CongruenceBundle.degree
    # one too low keeps splitting_type's search window wide enough, so the
    # suite reports a failure instead of raising
    monkeypatch.setattr(CongruenceBundle, "degree",
                        lambda self: true_degree(self) - 1)
    assert main(["verify", "--suite", "bundles"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL  bundles.riemann_roch_q2" in lines
    assert "FAIL  bundles.riemann_roch_q3" in lines


def test_sweep_deterministic_across_workers(tmp_path):
    classes = tmp_path / "classes.txt"
    classes.write_text("1,0,0,0,0\n2,-1,-1,-1,0\n3,-1,-1,-1,-1  # tower base\n")
    outs = []
    for w in (1, 2):
        out = tmp_path / f"s{w}.csv"
        assert main(["sweep", "--q", "2", "--classes", str(classes),
                     "--workers", str(w), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rows = list(csv.DictReader(outs[0].decode().splitlines()))
    assert [r["class"] for r in rows] == ["1,0,0,0,0", "2,-1,-1,-1,0",
                                          "3,-1,-1,-1,-1"]
    assert rows[0]["hom_count"] == "6"
    # LF line endings, no carriage returns anywhere
    assert b"\r" not in outs[0]


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_exit_2(tmp_path, capsys, workers):
    classes = tmp_path / "classes.txt"
    classes.write_text("1,0,0,0,0\n")
    assert main(["count", "--q", "2", "--class", "1,0,0,0,0",
                 "--workers", workers]) == 2
    assert main(["sweep", "--q", "2", "--classes", str(classes),
                 "--workers", workers]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_naive_count_refuses_workers_below_one(capsys, workers):
    assert main(["count", "--q", "3", "--class", "3,-1,-1,-1,-1",
                 "--method", "naive", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert "workers must be at least 1" in captured.err
    assert "hom_count" not in captured.out


def test_small_sweep_starts_no_pool(tmp_path, monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise RuntimeError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    golden = json.loads((Path(__file__).parent / "fixtures" / "golden.json")
                        .read_text(encoding="utf-8"))
    hom = {r["class"]: r["hom"] for r in golden["oracle_counts"] if r["q"] == 4}
    classes = tmp_path / "classes.txt"
    classes.write_text("".join(text + "\n" for text in hom))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--q", "4", "--classes", str(classes),
                 "--workers", "2", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {r["class"]: int(r["hom_count"]) for r in rows} == hom
    assert len(hom) == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["--version"])
    assert ex.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_count_payload_identical_across_workers(tmp_path):
    payloads = []
    for w in (1, 2):
        out = tmp_path / f"w{w}.json"
        assert main(["count", "--q", "2", "--class", "9,-3,-3,-3,-3",
                     "--workers", str(w), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        payloads.append(json.dumps(payload, sort_keys=True).encode())
    assert payloads[0] == payloads[1]
    payload = json.loads(payloads[0])
    assert (payload["quadruples"], payload["orbits"]) == (696, 116)


def test_motivic_record_times_the_computation(tmp_path):
    out = tmp_path / "m.json"
    assert main(["motivic", "--trunc", "60", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["wall_time"] > 0


def test_curve_file_missing_key_exits_2(tmp_path, capsys):
    f = tmp_path / "curve.json"
    f.write_text(json.dumps({"q": 7, "g": 1}))
    assert main(["constant", "--q", "7", "--curve", str(f)]) == 2
    assert "'weil'" in capsys.readouterr().err


def test_internal_key_error_is_not_invalid_input(monkeypatch):
    from dp5 import cli

    def broken(alpha):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "chamber_normalize", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["chamber", "--class", "1,0,0,0,0"])


@pytest.mark.parametrize("prec", ["1/0", "abc", "nan", "-1"])
def test_bad_prec_is_invalid_input(capsys, prec):
    assert main(["constant", "--q", "5", "--prec", prec]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_prec_accepts_exponent_notation(tmp_path):
    from fractions import Fraction

    out = tmp_path / "rec.json"
    assert main(["constant", "--q", "5", "--method", "direct",
                 "--prec", "1E-13", "--out", str(out)]) == 0
    rad = Fraction(json.loads(out.read_text())["payload"]["direct"]["rad"])
    assert 0 < rad <= Fraction(1, 10**13)


def test_budget_counts_the_tuples_the_walk_visits(capsys):
    # 46 376 run-sorted quadruple tuples, 14 720 kernel vectors; the old
    # estimate 31^4 = 923 521 refused this budget
    assert main(["count", "--q", "2", "--class", "12,-4,-4,-4,-4",
                 "--budget", "309760"]) == 0
    assert "hom_count = 34560" in capsys.readouterr().out
    assert main(["count", "--q", "2", "--class", "12,-4,-4,-4,-4",
                 "--budget", "46375"]) == 3


def test_q_above_the_cap_is_invalid_input(capsys):
    assert main(["count", "--q", "131072", "--class", "3,-1,-1,-1,-1"]) == 2
    assert main(["count", "--q", "131072", "--class", "3,-1,-1,-1,-1",
                 "--method", "naive"]) == 2
    assert main(["constant", "--q", "131072"]) == 2
    assert "TooLarge" in capsys.readouterr().err


def test_high_precision_constant_writes_exact_strings(tmp_path):
    import sys
    from fractions import Fraction

    from dp5.constants import leading_constant_zeta

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    out = tmp_path / "rec.json"
    assert main(["constant", "--q", "7", "--method", "zeta", "--prec", "1e-60",
                 "--out", str(out)]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    want = leading_constant_zeta(7, target_radius=Fraction("1e-60"))
    assert want.rad.numerator.bit_length() > 15000
    payload = json.loads(out.read_text())["payload"]["zeta"]
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        got = Fraction(payload["mid"]), Fraction(payload["rad"])
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert got == (want.mid, want.rad)


def test_motivic_specialize_rejects_q_below_two(capsys):
    for q in ("0", "-3"):
        assert main(["motivic", "--trunc", "5", "--specialize", q]) == 2
        assert "--specialize" in capsys.readouterr().err
    assert main(["motivic", "--trunc", "5", "--specialize", "2"]) == 0
    assert "at u = 1/2:" in capsys.readouterr().out


_BAD_CURVES = {
    "float-weil": ({"q": 7, "g": 1, "weil": [1.9, 0.5, "7"]}, "weil[0]"),
    "string-q": ({"q": "7", "g": 1, "weil": [1, 0, 7]}, "q must be an int"),
    "string-g": ({"q": 7, "g": "1", "weil": [1, 0, 7]}, "g must be an int"),
    "int-weil": ({"q": 7, "g": 1, "weil": 5}, "weil must be a list"),
    "top-level-list": ([7, 1, [1, 0, 7]], "JSON object"),
    "class-number": ({"q": 2, "g": 1, "weil": [1, -4, 2]}, "class number -1"),
    "closed-points": ({"q": 5, "g": 2, "weil": [1, 9, 30, 45, 25]},
                      "closed point count -10/2"),
}


@pytest.mark.parametrize(
    "data, field, method",
    [(*case, method) for method in ("direct", "zeta", "both")
     for case in _BAD_CURVES.values()],
    ids=[name if method == "direct" else f"{name}-{method}"
         for method in ("direct", "zeta", "both") for name in _BAD_CURVES])
def test_bad_curve_file_exits_2(tmp_path, capsys, data, field, method):
    f = tmp_path / "curve.json"
    f.write_text(json.dumps(data))
    q = str(data["q"]) if isinstance(data, dict) else "7"
    assert main(["constant", "--q", q, "--curve", str(f),
                 "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input" in captured.err and field in captured.err


def _exit_code_table():
    from dp5 import errors

    bad_input = (errors.NotPrime, errors.TooLarge, errors.NotInEffDual,
                 errors.InconsistentPairings, errors.NegativePointCount,
                 errors.TargetUnreachable, errors.Diverges, errors.DegenerateK,
                 errors.TruncationMismatch)
    internal = (errors.DP5Error, errors.DivisionByZero, errors.ZeroForm,
                errors.PreconditionViolated, errors.InconsistentH0,
                errors.NonExactDivision, errors.NonUnit)
    return ([(cls, 2) for cls in bad_input] + [(errors.BudgetExceeded, 3)]
            + [(cls, 1) for cls in internal])


_EXIT_CODES = _exit_code_table()


@pytest.mark.parametrize("exc, code", _EXIT_CODES,
                         ids=[cls.__name__ for cls, _ in _EXIT_CODES])
def test_exit_code_map(monkeypatch, capsys, exc, code):
    from dp5 import cli

    def fail(alpha):
        raise exc("planted")

    monkeypatch.setattr(cli, "chamber_normalize", fail)
    assert main(["chamber", "--class", "1,0,0,0,0"]) == code
    assert capsys.readouterr().err.endswith("planted\n")


def test_exit_code_map_names_every_error_class():
    from dp5 import errors

    declared = {v for v in vars(errors).values()
                if isinstance(v, type) and issubclass(v, Exception)}
    assert declared == {cls for cls, _ in _EXIT_CODES}


def test_missing_output_directory_exits_2_before_counting(tmp_path, monkeypatch,
                                                          capsys):
    from dp5 import cli

    def refuse(*args, **kwargs):
        raise RuntimeError("counted although the record cannot be written")

    monkeypatch.setattr(cli, "count_fast", refuse)
    missing = tmp_path / "missing" / "r.json"
    assert main(["count", "--q", "2", "--class", "3,-1,-1,-1,-1",
                 "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input: FileNotFoundError" in captured.err
    assert not missing.parent.exists()


@pytest.mark.parametrize("option", ["--out", "--record"])
def test_sweep_missing_output_directory_exits_2_before_counting(
        tmp_path, monkeypatch, capsys, option):
    from dp5 import cli

    def refuse(*args, **kwargs):
        raise RuntimeError("swept although an output cannot be written")

    monkeypatch.setattr(cli, "sweep", refuse)
    classes = tmp_path / "classes.txt"
    classes.write_text("1,0,0,0,0\n")
    assert main(["sweep", "--q", "2", "--classes", str(classes),
                 option, str(tmp_path / "missing" / "s.out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input: FileNotFoundError" in captured.err


@pytest.mark.parametrize("method", ["fast", "naive"])
def test_negative_budget_is_invalid_input(method, capsys):
    assert main(["count", "--q", "2", "--class", "1,-1,0,0,0",
                 "--method", method, "--budget", "-1"]) == 2
    assert "invalid input: ValueError" in capsys.readouterr().err


def test_sweep_refuses_a_negative_budget_before_the_constant(tmp_path,
                                                             monkeypatch):
    from dp5 import constants, count

    def refuse(*args, **kwargs):
        raise RuntimeError("computed the constant or a count for invalid input")

    monkeypatch.setattr(constants, "leading_constant_direct", refuse)
    monkeypatch.setattr(count, "count_fast", refuse)
    classes = tmp_path / "classes.txt"
    classes.write_text("1,-1,0,0,0\n")
    assert main(["sweep", "--q", "2", "--classes", str(classes),
                 "--budget", "-1"]) == 2
    # the last class is outside the effective dual
    classes.write_text("3,-1,-1,-1,-1\n6,-2,-2,-2,-2\n1,1,0,0,0\n")
    assert main(["sweep", "--q", "3", "--classes", str(classes)]) == 2


def test_dp5_budget_variable_is_checked(monkeypatch, capsys):
    argv = ["count", "--q", "2", "--class", "1,-1,0,0,0"]
    monkeypatch.setenv("DP5_BUDGET", "-3")
    assert main(argv) == 2
    monkeypatch.setenv("DP5_BUDGET", "abc")
    assert main(argv) == 2
    assert "DP5_BUDGET" in capsys.readouterr().err


def test_zero_budget_is_a_refusal_not_invalid_input():
    assert main(["count", "--q", "2", "--class", "1,-1,0,0,0",
                 "--budget", "0"]) == 3


def test_sweep_without_out_writes_the_csv_to_stdout(tmp_path, capsys):
    classes = tmp_path / "classes.txt"
    classes.write_text("1,0,0,0,0\n2,-1,-1,-1,0\n")
    assert main(["sweep", "--q", "2", "--classes", str(classes)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    rows = list(csv.DictReader(lines))
    assert [(r["class"], r["hom_count"]) for r in rows] == [("1,0,0,0,0", "6"),
                                                            ("2,-1,-1,-1,0", "6")]


def test_count_output_path_that_is_a_directory_exits_2_before_counting(
        tmp_path, monkeypatch, capsys):
    from dp5 import cli

    calls = []
    monkeypatch.setattr(cli, "count_fast", lambda *a, **k: calls.append(a))
    assert main(["count", "--q", "2", "--class", "15,-5,-5,-5,-5",
                 "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert calls == [] and captured.out == ""
    assert "invalid input: IsADirectoryError" in captured.err


@pytest.mark.parametrize("option", ["--out", "--record"])
def test_sweep_output_path_that_is_a_directory_exits_2_before_counting(
        tmp_path, monkeypatch, capsys, option):
    from dp5 import cli

    calls = []
    monkeypatch.setattr(cli, "sweep", lambda *a, **k: calls.append(a))
    classes = tmp_path / "classes.txt"
    classes.write_text("1,0,0,0,0\n")
    assert main(["sweep", "--q", "2", "--classes", str(classes),
                 option, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert calls == [] and captured.out == ""
    assert "invalid input: IsADirectoryError" in captured.err


@pytest.mark.parametrize("record", ["s.out", "./s.out"])
def test_sweep_out_equal_to_record_exits_2_before_counting(
        tmp_path, monkeypatch, capsys, record):
    from dp5 import cli

    calls = []
    monkeypatch.setattr(cli, "sweep", lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    Path("classes.txt").write_text("1,0,0,0,0\n")
    assert main(["sweep", "--q", "2", "--classes", "classes.txt",
                 "--out", "s.out", "--record", record]) == 2
    captured = capsys.readouterr()
    assert calls == [] and captured.out == ""
    assert "invalid input: ValueError" in captured.err
    assert not Path("s.out").exists()
