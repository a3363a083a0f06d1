"""Command-line front end.

Subcommands: count, constant, motivic, chamber, verify, sweep.  Each run can
persist a RunRecord: a JSON document with the command, the full parameter
echo, the tool version, and a results payload.  Payloads are deterministic
(identical flags give identical payload bytes, whatever the worker count);
timestamps and wall times live outside the payload.  Every cmd_* returns
(exit code, params, payload); main times it, writes its RunRecord and maps
exceptions to exit codes.

Exit codes: 0 success, 1 internal error, 2 invalid input (a bad class or
flag, a --prec that is not a positive rational or has a zero denominator, a
malformed or impossible curve file, an output file in a missing
directory, an output path that is a directory, a sweep --out equal to its
--record, a sweep classes file with a class outside the effective dual, or
a constant --method zeta or both at a q below 5, where the zeta expansion
diverges, each refused before any work), 3 budget exceeded, 4 certified
methods disagree.  A --prec above 1 is certified at 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .count import (SWEEP_COLUMNS, _check_workers, count_fast, count_naive,
                    sweep, sweep_row)
from .errors import BudgetExceeded, DP5Error
from .picard import (
    LINES,
    CurveClass,
    boundary_distance,
    chamber_coords,
    chamber_normalize,
    pairings_to_class,
)


def _parse_class(text: str) -> CurveClass:
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError(f"--class needs 5 integers a,c1,c2,c3,c4, got {len(parts)}")
    return CurveClass(*(int(p) for p in parts))


def _parse_pairings(text: str) -> CurveClass:
    parts = text.split(",")
    if len(parts) != 10:
        raise ValueError(
            f"--pairings needs 10 integers in the order {','.join(LINES)}"
        )
    dd = dict(zip(LINES, (int(p) for p in parts)))
    return pairings_to_class(dd)


def _exact(x: Fraction) -> str:
    """str(x), past the int-string limit (3.10.7+) for this call only."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _write_record(path: str, command: str, params: dict, payload: dict, t0: float):
    rec = {
        "command": command,
        "params": params,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_time": time.time() - t0,
        "payload": payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(fh, rows) -> None:
    w = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    w.writeheader()
    w.writerows(rows)


def _class_arg(args) -> CurveClass:
    if bool(args.cls) == bool(args.pairings):
        raise ValueError("give exactly one of --class or --pairings")
    return _parse_pairings(args.pairings) if args.pairings else _parse_class(args.cls)


def cmd_count(args) -> tuple[int, dict, dict]:
    alpha = _class_arg(args)
    _check_workers(args.workers)
    if args.method == "naive":
        res = count_naive(args.q, alpha, budget=args.budget)
    else:
        res = count_fast(args.q, alpha, workers=args.workers, budget=args.budget)
    ratio = res.ratio()
    print(f"hom_count = {res.hom}")
    print(f"m_count = {res.m_count}")
    print(f"ratio hom/q^(d+2) = {float(ratio)!r}  (d = {res.degree})")
    renamed = {"alpha": "class", "degree": "d", "hom": "hom_count"}
    payload = {renamed.get(k, k): v for k, v in res._asdict().items()}
    payload["ratio"] = float(ratio)
    if args.format == "csv":
        from .constants import leading_constant_direct

        _write_csv(sys.stdout, [sweep_row(res, leading_constant_direct(args.q))])
    params = {"q": args.q, "class": list(alpha), "method": args.method,
              "workers": args.workers, "budget": args.budget}
    return 0, params, payload


def _load_curve(source: str):
    from .constants import curve_from_weil

    if source == "p1":
        return None
    with open(source, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"curve file {source} must hold a JSON object, "
                         f"not a {type(data).__name__}")
    try:
        cq, g, weil = data["q"], data["g"], data["weil"]
    except KeyError as ex:
        raise ValueError(f"curve file {source} has no {ex} key") from None
    return curve_from_weil(cq, g, weil)


def cmd_constant(args) -> tuple[int, dict, dict]:
    from .constants import leading_constant_direct, leading_constant_zeta

    curve = _load_curve(args.curve)
    compute = {"direct": leading_constant_direct, "zeta": leading_constant_zeta}
    names = ("direct", "zeta") if args.method == "both" else (args.method,)
    # zeta runs first: it refuses q < 5 (Diverges), which direct takes, so
    # that refusal comes before any constant is computed or printed
    got = {name: compute[name](args.q, curve=curve, target_radius=args.prec)
           for name in reversed(names)}
    out = {name: got[name] for name in names}
    for name, c in out.items():
        print(f"{name + ':':<8}{c}")
    payload = {
        name: {"mid": _exact(c.mid), "rad": _exact(c.rad), "float": float(c.mid)}
        for name, c in out.items()
    }
    params = {"q": args.q, "curve": args.curve, "prec": args.prec,
              "method": args.method}
    if args.method == "both":
        direct, zeta = out["direct"], out["zeta"]
        gap = float(abs(direct.mid - zeta.mid))
        allowed = float(direct.rad + zeta.rad)
        if not direct.overlaps(zeta):
            print(f"DISAGREE: |direct - zeta| = {gap:.3e} exceeds "
                  f"summed radii {allowed:.3e}")
            return 4, params, payload
        print(f"overlap ok: |direct - zeta| = {gap:.3e} <= {allowed:.3e}")
    return 0, params, payload


def cmd_motivic(args) -> tuple[int, dict, dict]:
    from .motivic import motivic_constant

    q = args.specialize
    if q is not None and q < 2:
        raise ValueError(f"--specialize needs Q >= 2, got {q}")
    s = motivic_constant(args.trunc)
    print(s)
    payload = {"trunc": args.trunc, "coeffs": list(s.coeffs)}
    if q is not None:
        val = s.at(Fraction(1, q))
        payload["specialize_q"] = q
        payload["value"] = _exact(val)
        print(f"at u = 1/{q}: {payload['value']} ~ {float(val)!r}")
    return 0, {"trunc": args.trunc, "specialize": q}, payload


def cmd_chamber(args) -> tuple[int, dict, dict]:
    alpha = _class_arg(args)
    frame, perm, dd = chamber_normalize(alpha)
    print(f"class: {tuple(alpha)}")
    print(f"frame: {frame}")
    print(f"normalized pairings ({','.join(LINES)}): "
          f"{','.join(str(dd[name]) for name in LINES)}")
    print(f"chamber coords: {chamber_coords(dd)}")
    print(f"boundary distance d1 = {boundary_distance(alpha)}")
    return 0, {}, {}


def _suite_identities() -> dict:
    from .constants import local_factor
    from .motivic import (
        LOCAL_FACTOR_COEFFS,
        SeriesL,
        local_identity_checks,
        motivic_constant,
        witt_exponents,
    )

    checks = dict(local_identity_checks())
    checks.pop("all", None)
    x = Fraction(1, 7)
    checks["factor_eval"] = local_factor(x) == sum(
        c * x**j for j, c in enumerate(LOCAL_FACTOR_COEFFS)
    )
    e = witt_exponents(LOCAL_FACTOR_COEFFS, 12)
    n = 13
    s = SeriesL.one(n)
    for k in range(1, n):
        s = s * (SeriesL.one(n) - SeriesL.monomial(n, 1, k)).pow(e[k])
    checks["witt_round_trip"] = s == SeriesL(n, LOCAL_FACTOR_COEFFS)
    checks["motivic_prefix"] = motivic_constant(4).coeffs == (1, -9, 57, -364)
    return checks


def _suite_bundles() -> dict:
    from .bundles import sample_bundles
    from .picard import ANTICANONICAL, scale

    out = {}
    for q in (2, 3):
        bundles = list(sample_bundles(q, scale(ANTICANONICAL, 2), 25, seed=7))
        types = [b.splitting_type() for b in bundles]
        out[f"hn_q{q}"] = len(bundles) == 25 and all(
            st.e1 >= st.e2 >= st.e3 for st in types
        )
        # Riemann-Roch on P^1 for a rank-3 bundle: chi = deg + 3
        out[f"riemann_roch_q{q}"] = all(
            b.h0(0) - b.h1(0) == b.degree() + 3 for b in bundles
        )
    return out


def _suite_counts() -> dict:
    from .picard import apply_symmetry, symmetries, torsor_open_count

    out = {}
    zero = CurveClass(0, 0, 0, 0, 0)
    out["zero_class"] = all(
        count_fast(q, zero).hom == torsor_open_count(q) for q in (2, 3, 4, 5)
    )
    conic = CurveClass(1, -1, 0, 0, 0)
    out["oracle_small"] = all(
        count_naive(q, conic).m_count == count_fast(q, conic).m_count for q in (2, 3)
    )
    syms = symmetries()
    picks = [syms[i] for i in (1, 17, 63)]
    base = count_naive(2, conic).m_count
    out["symmetry_spot"] = all(
        count_naive(2, apply_symmetry(conic, s)).m_count == base for s in picks
    )
    return out


def cmd_verify(args) -> tuple[int, dict, dict]:
    suites = {
        "identities": _suite_identities,
        "bundles": _suite_bundles,
        "counts": _suite_counts,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        for check, passed in suites[name]().items():
            print(f"{'PASS' if passed else 'FAIL'}  {name}.{check}")
            ok = ok and passed
    return (0 if ok else 1), {}, {}


def _read_classes(path: str):
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                out.append(_parse_class(line))
    return out


def cmd_sweep(args) -> tuple[int, dict, dict]:
    classes = _read_classes(args.classes)
    rows = sweep(args.q, classes, workers=args.workers, budget=args.budget)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, rows)
    else:
        _write_csv(sys.stdout, rows)
    params = {"q": args.q, "classes": [",".join(map(str, c)) for c in classes],
              "workers": args.workers, "budget": args.budget}
    return 0, params, {"rows": rows}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dp5", description=__doc__)
    ap.add_argument("--version", action="version", version=f"dp5 {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    # option groups shared by several subcommands
    by_class = argparse.ArgumentParser(add_help=False)
    by_class.add_argument("--class", dest="cls", help="a,c1,c2,c3,c4")
    by_class.add_argument("--pairings", help=",".join(LINES))
    counting = argparse.ArgumentParser(add_help=False)
    counting.add_argument("--q", type=int, required=True)
    counting.add_argument("--workers", type=int, default=1)
    counting.add_argument("--budget", type=int, default=None)
    recorded = argparse.ArgumentParser(add_help=False)
    recorded.add_argument("--out", dest="record", metavar="OUT",
                          help="write a RunRecord JSON here")

    pc = sub.add_parser("count", parents=[counting, by_class, recorded],
                        help="count morphisms of one class")
    pc.add_argument("--method", choices=("naive", "fast"), default="fast")
    pc.add_argument("--format", choices=("json", "csv"), default="json")
    pc.set_defaults(func=cmd_count)

    pk = sub.add_parser("constant", parents=[recorded],
                        help="certified leading constant")
    pk.add_argument("--q", type=int, required=True)
    pk.add_argument("--curve", default="p1", help='"p1" or a curve JSON file')
    pk.add_argument("--prec", default="1e-13")
    pk.add_argument("--method", choices=("direct", "zeta", "both"), default="both")
    pk.set_defaults(func=cmd_constant)

    pm = sub.add_parser("motivic", parents=[recorded],
                        help="motivic constant as a series in u")
    pm.add_argument("--trunc", type=int, required=True)
    pm.add_argument("--specialize", type=int, default=None, metavar="Q")
    pm.set_defaults(func=cmd_motivic)

    ph = sub.add_parser("chamber", parents=[by_class],
                        help="normalize a class into the chamber")
    ph.set_defaults(func=cmd_chamber)

    pv = sub.add_parser("verify", help="run invariant suites")
    pv.add_argument("--suite", choices=("identities", "bundles", "counts", "all"),
                    default="all")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sweep", parents=[counting],
                        help="count many classes, compare to the constant")
    ps.add_argument("--classes", required=True, help="file, one a,c1..c4 per line")
    ps.add_argument("--out", help="CSV path (stdout if absent)")
    ps.add_argument("--record", help="write a RunRecord JSON here")
    ps.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        # refuse an output path that cannot be written before any work is done
        paths = [p for p in (getattr(args, "record", None), getattr(args, "out", None))
                 if p]
        for path in paths:
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(f"no directory for output file {path}")
            if os.path.isdir(path):
                raise IsADirectoryError(f"output file {path} is a directory")
        if len({os.path.realpath(p) for p in paths}) < len(paths):
            raise ValueError(f"--out and --record are the same file {paths[0]}")
        code, params, payload = args.func(args)
        if getattr(args, "record", None):
            _write_record(args.record, args.cmd, params, payload, t0)
        return code
    except BudgetExceeded as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as ex:
        print(f"invalid input: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2
    except DP5Error as ex:
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
