"""Command-line entry point.

Every subcommand returns its result and verdict; ``main`` wraps the result
in a run manifest (command, full parameter set, seed, code version, timing)
and emits it as JSON.  Exact rationals are serialized as "num/den" strings
with decimal annotations on the side.  Exit codes: 0 success, 1 failed
verdict, 2 usage errors (bad input raises ValueError or OSError; an
unwritable ``--out`` or ``--csv`` is found before the command runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from math import log10

from . import __version__, characters, gflinalg, grassmann, ipfamily, measures, sampler, symfun
from .partitions import conjugate, enumerate_partitions, format_partition, gaussian_binomial, parse_partition
from .symfun import MAX_RATIONAL_DIGITS, GroundParams, ThomaSpec, load_spec, parse_rational


def _frac(x: Fraction) -> str:
    """x as "num/den" text; ValueError if a side has more than
    MAX_RATIONAL_DIGITS digits."""
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        raise ValueError(f"output value of {_size(x)} is over the {MAX_RATIONAL_DIGITS}-digit limit "
                         "on printed rationals") from None


def _decimal(x: Fraction) -> float:
    """The float annotation of x; ValueError if x is beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"output value of {_size(x)} is beyond the float range of its decimal annotation") from None


def _size(x: Fraction) -> str:
    x = Fraction(x)
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    return f"about {round(bits * log10(2))} digits"


def _frac_pair(x: Fraction) -> dict:
    return {"value": _frac(x), "decimal": _decimal(x)}


def parse_class_type(text: str) -> dict:
    """Parse "11:2;111:1" into {poly-coeff-tuple: partition}; polynomial
    coefficient strings are low degree first."""
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        poly_text, sep, part_text = chunk.partition(":")
        poly = gflinalg.poly_from_text(poly_text)
        if not sep or poly in out:
            raise ValueError(f"class type needs poly:partition pairs with distinct polys, got {chunk!r}")
        out[poly] = parse_partition(part_text)
    return out


def _manifest(args, timing_s: float) -> dict:
    return {
        "command": args.command,
        "params": {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timing_s": timing_s,
    }


OUTPUT_SCHEMA = "hallq-output-v1"


def _emit(payload: dict, args) -> None:
    payload = {"schema": OUTPUT_SCHEMA, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_spec_arg(args) -> tuple[ThomaSpec, GroundParams]:
    spec, q_file = load_spec(args.spec)
    q = parse_rational(args.q) if args.q is not None else q_file
    if q is None:
        raise ValueError("missing q: pass --q or store it in the spec file")
    return spec, GroundParams(q)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_kostka_foulkes(args) -> tuple[dict, bool]:
    t = parse_rational(args.t)
    parts = enumerate_partitions(args.n)
    matrix = symfun.kostka_foulkes(args.n, t)
    return {
        "degree": args.n,
        "t": _frac(t),
        "order": [format_partition(p) for p in parts],
        "matrix": [[_frac(x) for x in row] for row in matrix],
    }, True


def cmd_cylinder(args) -> tuple[dict, bool]:
    spec, ground = _load_spec_arg(args)
    rho = parse_partition(args.rho)
    meas = measures.characteristic_measure(spec, ground)
    value = measures.cylinder_prob(meas, rho)
    # the route the measure did not take: the Q-route behind a fast r-route
    # value, the general r-route behind a Q-route value
    if meas.route == measures.FAST_R_ROUTE:
        other = measures.cylinder_via_q(meas, rho)
    else:
        other = measures.characteristic_cylinder_via_r(spec, rho, ground)
    ok = value == other
    return {
        "rho": format_partition(rho),
        "q": _frac(ground.q),
        "value_num": _frac(value.numerator),
        "value_den": _frac(value.denominator),
        "decimal": _decimal(value),
        "checks": {"two_route_equal": ok},
    }, ok


def cmd_coherence_check(args) -> tuple[dict, bool]:
    spec, ground = _load_spec_arg(args)
    meas = measures.characteristic_measure(spec, ground)
    report = measures.check_coherence(meas, args.nmax)
    norm = measures.check_normalization(meas, args.nmax)
    return {
        "q": _frac(ground.q),
        "nmax": args.nmax,
        "checked": report.checked,
        "violations": [
            {"rho": format_partition(v.rho), "lhs": _frac(v.lhs), "rhs": _frac(v.rhs)}
            for v in report.violations
        ],
        "normalization_level": norm.n,
        "normalization_total": _frac(norm.total),
        "checks": {"coherence": report.ok, "normalization": norm.ok},
    }, report.ok and norm.ok


def cmd_character(args) -> tuple[dict, bool]:
    q = parse_rational(args.q)
    if args.kind == "glb":
        if args.spec is None or (args.cls is None and not args.class_type):
            raise ValueError("--kind glb needs --spec and one of --class, --class-type")
        spec, _ = load_spec(args.spec)
        ground = GroundParams(q)
        if args.class_type:
            value = characters.glb_character_general(spec, parse_class_type(args.class_type), ground)
        else:
            value = characters.glb_character_unipotent(spec, parse_partition(args.cls), ground)
    else:
        if args.label is None or args.cls is None:
            raise ValueError(f"--kind {args.kind} needs --label and --class")
        value_at = characters.chi_unipotent if args.kind == "unipotent" else characters.psi_unipotent
        value = value_at(parse_partition(args.label), parse_partition(args.cls), q)
    return {"kind": args.kind, "q": _frac(q), "value": _frac_pair(value)}, True


def cmd_lln(args) -> tuple[dict, bool]:
    spec = None
    if args.mode == "measure":
        if not args.spec:
            raise ValueError("measure mode needs --spec")
        spec, q_file = load_spec(args.spec)
        if args.q is None and q_file is not None:
            if q_file.denominator != 1:
                raise ValueError(f"lln needs an integer q, the spec file stores {q_file}")
            args.q = int(q_file)
    if args.q is None:
        args.q = 2
    config = sampler.SamplerConfig(
        mode=args.mode,
        engine=args.engine,
        q=args.q,
        n_max=args.n,
        trials=args.trials,
        seed=args.seed,
        k_max=args.kmax,
        spec=spec,
        threads=args.threads,
    )
    report = sampler.run_lln(config)
    doc = report.to_dict()
    if args.mode == "haar":
        doc["gate"] = report.gate()
        _print_gate_table(args, doc["gate"])
    else:
        doc["gate"] = None
        _print_trend_table(args, doc)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.trajectories_csv())
    return doc, args.mode != "haar" or doc["gate"]["ok"]


def _print_gate_table(args, gate: dict) -> None:
    """The Haar gate table, on stderr."""
    lines = [f"Haar growth: q={args.q} n={args.n} trials={args.trials} seed={args.seed}",
             f"{'k':>3} {'mean':>10} {'se':>10} {'target':>10} {'3se':>5} {'abs.02':>7}"]
    for row in gate["rows"]:
        lines.append(f"{row['k']:>3} {row['mean']:>10.5f} {row['se']:>10.6f} "
                     f"{row['target']:>10.5f} {str(row['within_3se']):>5} {str(row['within_abs']):>7}")
    lines.append("gate: " + ("PASS" if gate["ok"] else "FAIL"))
    print("\n".join(lines), file=sys.stderr)


def _print_trend_table(args, doc: dict) -> None:
    """Measure-mode row and column means against their targets (a trend,
    not a gate), on stderr; a missing target reads 0."""
    rows, cols = doc["row_freq_means"], doc["col_freq_means"]
    k_max = len(rows)
    row_t = [float(Fraction(x)) for x in doc["targets"]["rows"]] + [0.0] * k_max
    col_t = [float(Fraction(x)) for x in doc["targets"]["cols"]] + [0.0] * k_max
    lines = [f"measure growth: {os.path.basename(args.spec)} q={args.q} n={args.n} trials={args.trials}",
             f"counts: {doc['counts_source']}",
             f"{'k':>3} {'row mean':>10} {'row target':>11} {'col mean':>10} {'col target':>11}"]
    for k in range(k_max):
        lines.append(f"{k + 1:>3} {rows[k]:>10.5f} {row_t[k]:>11.5f} {cols[k]:>10.5f} {col_t[k]:>11.5f}")
    head = min(4, k_max)
    lines.append(f"distance (rows, L1 over k<={head}): {sum(abs(rows[k] - row_t[k]) for k in range(head))}")
    print("\n".join(lines), file=sys.stderr)


def cmd_flag_count(args) -> tuple[dict, bool]:
    g = gflinalg.mat_from_text(args.matrix, args.q)
    mu = parse_partition(args.mu)
    count = gflinalg.count_fixed_flags(g, mu)
    return {"matrix": args.matrix, "mu": format_partition(mu), "count": count}, True


def cmd_grassmann(args) -> tuple[dict, bool]:
    cells = grassmann.enumerate_schubert_cells(args.n, args.k, args.q)
    syms = sorted(cells, key=lambda s: s.word)
    table = [[_frac(grassmann.cocycle(s1, s2, args.q)) for s2 in syms] for s1 in syms]
    total = sum(cells.values())
    ok = Fraction(total) == gaussian_binomial(args.n, args.k, args.q)
    return {
        "n": args.n,
        "k": args.k,
        "q": args.q,
        "cells": [
            {
                "symbol": "".join(str(x) for x in s.word),
                "size": cells[s],
                "dimension": grassmann.cell_dimension(s),
                "affine_dimension": grassmann.affine_dimension(s),
            }
            for s in syms
        ],
        "cocycle_table": table,
        "total_subspaces": total,
        "checks": {"total_equals_gaussian": ok},
    }, ok


def cmd_ipfamily_check(args) -> tuple[dict, bool]:
    if args.example == "wreath":
        coeff = ipfamily.cyclic_group(args.coeff)
        level = ipfamily.build_wreath_ip_level(args.m, coeff)
    else:
        build = ipfamily.build_gl_ip_level if args.example == "gl" else ipfamily.build_affine_ip_level
        level = build(args.m, args.q)
    verdicts = {
        "sizes": {"G": len(level.G), "P": len(level.P), "N": len(level.N)},
        "embed_multiplicative": ipfamily.embed_multiplicativity_check(level),
    }
    if args.example == "wreath":
        uniform = {i: Fraction(1, args.coeff) for i in range(args.coeff)}
        central = ipfamily.de_finetti_central_check(min(args.m + 1, 3), coeff, uniform)
        verdicts["de_finetti_uniform_central"] = central
    elif args.example == "gl":
        verdicts["flag_induction"] = ipfamily.flag_induction_check(args.m, args.q)
    else:
        verdicts["flag_induction"] = None
    ok = all(v is not False for v in verdicts.values())
    return {"example": args.example, "m": args.m, "verdicts": verdicts}, ok


def cmd_selftest(args) -> tuple[dict, bool]:
    t = Fraction(1, 2)
    checks: dict[str, bool] = {}

    checks["conjugate_involution"] = all(
        conjugate(conjugate(lam)) == lam for n in range(7) for lam in enumerate_partitions(n)
    )
    checks["gaussian_symmetry"] = all(
        gaussian_binomial(n, m, 3) == gaussian_binomial(n, n - m, 3)
        for n in range(8)
        for m in range(n + 1)
    )
    checks["kostka_foulkes_at_1"] = symfun.kostka_foulkes(4, Fraction(1)) == tuple(
        tuple(Fraction(x) for x in row) for row in symfun.kostka_numbers(4)
    )
    kf = symfun.kostka_foulkes(5, t)
    checks["kostka_foulkes_triangular"] = all(
        kf[i][j] == (1 if i == j else kf[i][j]) and (i <= j or kf[i][j] == 0)
        for i in range(len(kf))
        for j in range(len(kf))
    )
    haar = ThomaSpec(alphas=(symfun.SpecEntry(Fraction(1)),))
    depth = 4 if args.level == "quick" else 6
    ok = True
    for q in (2, 3):
        g = GroundParams(q)
        meas = measures.characteristic_measure(haar, g)
        for n in range(depth + 1):
            for rho in enumerate_partitions(n):
                ok = ok and measures.cylinder_via_q(meas, rho) == Fraction(1, q ** (n * (n - 1) // 2))
    checks["haar_recovery"] = ok
    spec2 = ThomaSpec(alphas=(symfun.SpecEntry(Fraction(2, 3)), symfun.SpecEntry(Fraction(1, 3))))
    g2 = GroundParams(2)
    m2 = measures.characteristic_measure(spec2, g2)
    checks["coherence"] = measures.check_coherence(m2, depth).ok
    checks["two_route"] = all(
        measures.cylinder_via_q(m2, rho) == measures.characteristic_cylinder_via_r(spec2, rho, g2)
        for n in range(depth + 1)
        for rho in enumerate_partitions(n)
    )
    checks["frobenius"] = all(characters.frobenius_transition_check(n, 2) for n in range(1, depth))
    checks["oracle_chain"] = characters.chi_via_flag_oracle(3, 2) == characters.chi_matrix(3, 2)
    checks["pascal_gaussian"] = all(
        grassmann.pascal_q_paths(n, k, 2) == gaussian_binomial(n, k, 2)
        for n in range(7)
        for k in range(n + 1)
    )
    level = ipfamily.build_gl_ip_level(1, 2)
    checks["embed_multiplicative"] = ipfamily.embed_multiplicativity_check(level)
    checks["flag_induction"] = ipfamily.flag_induction_check(1, 2)
    ok = all(checks.values())
    return {"level": args.level, "checks": checks, "ok": ok}, ok


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hallq", description=__doc__)
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker bound for parallel trials: at most min(threads, trials, usable CPUs) workers start; "
             "results do not depend on it",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this file instead of stdout")

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], help=summary)

    p = add("kostka-foulkes", "degree-n Kostka-Foulkes matrix at rational t")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=str, required=True)
    p.set_defaults(func=cmd_kostka_foulkes)

    p = add("cylinder", "exact cylinder probability of a central measure")
    p.add_argument("--spec", required=True)
    p.add_argument("--q", type=str)
    p.add_argument("--rho", required=True)
    p.set_defaults(func=cmd_cylinder)

    p = add("coherence-check", "exact coherence of cylinder probabilities")
    p.add_argument("--spec", required=True)
    p.add_argument("--q", type=str)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=cmd_coherence_check)

    p = add("character", "character values")
    p.add_argument("--kind", required=True, choices=("unipotent", "induced", "glb"))
    p.add_argument("--label")
    p.add_argument("--class", dest="cls")
    p.add_argument("--class-type", dest="class_type")
    p.add_argument("--spec")
    p.add_argument("--q", type=str, required=True)
    p.set_defaults(func=cmd_character)

    p = add("lln", "Monte Carlo growth of Jordan types")
    p.add_argument("--mode", default="haar", choices=("haar", "measure"))
    p.add_argument("--engine", default="chain", choices=("chain", "matrix", "markov"))
    p.add_argument("--q", type=int, help="field size (default: the spec file's q in measure mode, else 2)")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--spec")
    p.add_argument("--csv", help="write per-trial trajectories as CSV")
    p.set_defaults(func=cmd_lln)

    p = add("flag-count", "fixed flags of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_flag_count)

    p = add("grassmann", "Schubert cells, sizes, dimensions, cocycles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_grassmann)

    p = add("ipfamily-check", "tower-level verdicts")
    p.add_argument("--example", required=True, choices=("gl", "affine", "wreath"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--coeff", type=int, default=2, help="cyclic coefficient order (wreath)")
    p.set_defaults(func=cmd_ipfamily_check)

    p = add("selftest", "exact identity suites")
    p.add_argument("--level", default="quick", choices=("quick", "full"))
    p.set_defaults(func=cmd_selftest)

    return parser


def _check_output_paths(args) -> None:
    """Open --out and --csv for append before the command runs, so that an
    unwritable path is a usage error before any computation.  A file the
    check made is removed at once; the report replaces an existing one."""
    for flag, path in (("--out", args.out), ("--csv", getattr(args, "csv", None))):
        if not path:
            continue
        existed = os.path.lexists(path)
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ValueError(f"cannot write {flag} {path}: {exc.strerror or exc}") from None
        if not existed:
            os.remove(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.time()
    try:
        _check_output_paths(args)
        result, ok = args.func(args)
        _emit({"manifest": _manifest(args, round(time.time() - start, 3)), "result": result}, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
