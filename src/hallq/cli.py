"""Command-line entry point.

Every subcommand emits JSON with an embedded run manifest (command, full
parameter set, seed, code version, timing); exact rationals are serialized
as "num/den" strings with decimal annotations on the side.  Exit codes:
0 success, 1 failed verdict, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__, characters, gflinalg, grassmann, ipfamily, measures, sampler, symfun
from .partitions import enumerate_partitions, format_partition, gaussian_binomial, parse_partition
from .symfun import GroundParams, ThomaSpec, load_spec


def _frac(x: Fraction) -> str:
    return str(Fraction(x))


def _frac_pair(x: Fraction) -> dict:
    x = Fraction(x)
    return {"value": str(x), "decimal": float(x)}


def parse_class_type(text: str) -> dict:
    """Parse "11:2;111:1" into {poly-coeff-tuple: partition}; polynomial
    coefficient strings are low degree first."""
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        poly_text, part_text = chunk.split(":")
        out[gflinalg.poly_from_text(poly_text)] = parse_partition(part_text)
    return out


def _manifest(args, start: float, seed=None) -> dict:
    params = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    params = {k: (str(v) if isinstance(v, Fraction) else v) for k, v in params.items()}
    return {
        "command": args.command,
        "params": params,
        "seed": seed,
        "version": __version__,
        "timing_s": round(time.time() - start, 3),
    }


OUTPUT_SCHEMA = "hallq-output-v1"


def _emit(payload: dict, args) -> None:
    payload = {"schema": OUTPUT_SCHEMA, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_spec_arg(args) -> tuple[ThomaSpec, GroundParams]:
    spec, q_file = load_spec(args.spec)
    q = Fraction(args.q) if args.q is not None else q_file
    if q is None:
        raise SystemExit("missing q: pass --q or store it in the spec file")
    return spec, GroundParams(q)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_kostka_foulkes(args) -> int:
    start = time.time()
    t = Fraction(args.t)
    parts = enumerate_partitions(args.n)
    matrix = symfun.kostka_foulkes(args.n, t)
    result = {
        "degree": args.n,
        "t": _frac(t),
        "order": [format_partition(p) for p in parts],
        "matrix": [[_frac(x) for x in row] for row in matrix],
    }
    _emit({"manifest": _manifest(args, start), "result": result}, args)
    return 0


def cmd_cylinder(args) -> int:
    start = time.time()
    spec, ground = _load_spec_arg(args)
    rho = parse_partition(args.rho)
    meas = measures.characteristic_measure(spec, ground, args.convention)
    value = measures.cylinder_prob(meas, rho)
    # the route the measure did not take: the Q-route behind a fast r-route
    # value, the general r-route behind a Q-route value
    if meas.route == measures.FAST_R_ROUTE:
        other = measures.cylinder_via_q(meas, rho)
    else:
        other = measures.characteristic_cylinder_via_r(spec, rho, ground)
    result = {
        "rho": format_partition(rho),
        "q": _frac(ground.q),
        "convention": args.convention,
        "value_num": str(value.numerator),
        "value_den": str(value.denominator),
        "decimal": float(value),
        "checks": {"two_route_equal": value == other},
    }
    _emit({"manifest": _manifest(args, start), "result": result}, args)
    return 0 if value == other else 1


def cmd_coherence_check(args) -> int:
    start = time.time()
    spec, ground = _load_spec_arg(args)
    meas = measures.characteristic_measure(spec, ground, args.convention)
    report = measures.check_coherence(meas, args.nmax, counts=args.counts)
    norm = measures.check_normalization(meas, min(args.nmax, 5))
    result = {
        "q": _frac(ground.q),
        "nmax": args.nmax,
        "counts": report.counts_source,
        "checked": report.checked,
        "violations": [
            {"rho": format_partition(v.rho), "lhs": _frac(v.lhs), "rhs": _frac(v.rhs)}
            for v in report.violations
        ],
        "normalization_level": norm.n,
        "normalization_total": _frac(norm.total),
        "checks": {"coherence": report.ok, "normalization": norm.ok},
    }
    _emit({"manifest": _manifest(args, start), "result": result}, args)
    return 0 if report.ok and norm.ok else 1


def cmd_character(args) -> int:
    start = time.time()
    q = Fraction(args.q)
    if args.kind == "unipotent":
        lam = parse_partition(args.label)
        rho = parse_partition(args.cls)
        value = characters.chi_unipotent(lam, rho, q)
    elif args.kind == "induced":
        mu = parse_partition(args.label)
        rho = parse_partition(args.cls)
        value = characters.psi_unipotent(mu, rho, q)
    elif args.kind == "glb":
        spec, ground = _load_spec_arg(args)
        if args.class_type:
            phi = parse_class_type(args.class_type)
            value = characters.glb_character_general(spec, phi, ground)
        else:
            rho = parse_partition(args.cls)
            value = characters.glb_character_unipotent(spec, rho, ground)
    else:
        raise SystemExit(f"unknown kind {args.kind}")
    result = {"kind": args.kind, "q": _frac(q), "value": _frac_pair(value)}
    _emit({"manifest": _manifest(args, start), "result": result}, args)
    return 0


def cmd_lln(args) -> int:
    start = time.time()
    spec = None
    if args.mode == "measure":
        if not args.spec:
            raise SystemExit("measure mode needs --spec")
        spec, _ = load_spec(args.spec)
    config = sampler.SamplerConfig(
        mode=args.mode,
        engine=args.engine,
        q=args.q,
        n_max=args.n,
        trials=args.trials,
        seed=args.seed,
        k_max=args.kmax,
        spec=spec,
        store_trajectories=bool(args.csv),
        threads=args.threads,
    )
    report = sampler.run_lln(config)
    doc = report.to_dict()
    doc["gate"] = report.gate() if args.mode == "haar" else None
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.trajectories_csv())
        doc.pop("trajectories", None)
    _emit({"manifest": _manifest(args, start, seed=args.seed), "result": doc}, args)
    if args.mode == "haar" and not doc["gate"]["ok"]:
        return 1
    return 0


def cmd_flag_count(args) -> int:
    start = time.time()
    g = gflinalg.mat_from_text(args.matrix, args.q)
    mu = parse_partition(args.mu)
    value = gflinalg.count_fixed_flags(g, mu)
    result = {"matrix": args.matrix, "mu": format_partition(mu), "count": value}
    _emit({"manifest": _manifest(args, start), "result": result}, args)
    return 0


def cmd_grassmann(args) -> int:
    start = time.time()
    cells = grassmann.enumerate_schubert_cells(args.n, args.k, args.q)
    syms = sorted(cells, key=lambda s: s.word)
    table = []
    for s1 in syms:
        table.append([_frac(grassmann.cocycle(s1, s2, args.q)) for s2 in syms])
    total = sum(cells.values())
    expected = gaussian_binomial(args.n, args.k, args.q)
    result = {
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
        "checks": {"total_equals_gaussian": Fraction(total) == expected},
    }
    _emit({"manifest": _manifest(args, start), "result": result}, args)
    return 0 if Fraction(total) == expected else 1


def cmd_ipfamily_check(args) -> int:
    start = time.time()
    if args.example in ("gl", "affine"):
        build = ipfamily.build_gl_ip_level if args.example == "gl" else ipfamily.build_affine_ip_level
        level = build(args.m, args.q)
        verdicts = {
            "sizes": {"G": len(level.G), "P": len(level.P), "N": len(level.N)},
            "embed_multiplicative": ipfamily.embed_multiplicativity_check(level),
            "flag_induction": ipfamily.flag_induction_check(args.m, args.q)
            if args.example == "gl"
            else None,
        }
        ok = verdicts["embed_multiplicative"] and verdicts["flag_induction"] is not False
    else:
        coeff = ipfamily.cyclic_group(args.coeff)
        level = ipfamily.build_wreath_ip_level(args.m, coeff)
        uniform = {i: Fraction(1, args.coeff) for i in range(args.coeff)}
        verdicts = {
            "sizes": {"G": len(level.G), "P": len(level.P), "N": len(level.N)},
            "embed_multiplicative": ipfamily.embed_multiplicativity_check(level),
            "de_finetti_uniform_central": ipfamily.de_finetti_central_check(
                min(args.m + 1, 3), coeff, uniform
            ),
        }
        ok = all(v for v in verdicts.values() if isinstance(v, bool))
    result = {"example": args.example, "m": args.m, "verdicts": verdicts}
    _emit({"manifest": _manifest(args, start), "result": result}, args)
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    start = time.time()
    t = Fraction(1, 2)
    checks: dict[str, bool] = {}

    from .partitions import conjugate

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
    result = {"level": args.level, "checks": checks, "ok": all(checks.values())}
    _emit({"manifest": _manifest(args, start), "result": result}, args)
    return 0 if result["ok"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hallq", description=__doc__)
    parser.add_argument("--threads", type=int, default=1, help="worker bound for parallel trials")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kostka-foulkes", help="degree-n Kostka-Foulkes matrix at rational t")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=str, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kostka_foulkes)

    p = sub.add_parser("cylinder", help="exact cylinder probability of a central measure")
    p.add_argument("--spec", required=True)
    p.add_argument("--q", type=str)
    p.add_argument("--rho", required=True)
    p.add_argument("--convention", default=measures.DEFAULT_CONVENTION, choices=measures.CONVENTIONS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cylinder)

    p = sub.add_parser("coherence-check", help="exact coherence of cylinder probabilities")
    p.add_argument("--spec", required=True)
    p.add_argument("--q", type=str)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--counts", default="brute", choices=gflinalg.COUNT_SOURCES)
    p.add_argument("--convention", default=measures.DEFAULT_CONVENTION, choices=measures.CONVENTIONS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_coherence_check)

    p = sub.add_parser("character", help="character values")
    p.add_argument("--kind", required=True, choices=("unipotent", "induced", "glb"))
    p.add_argument("--label")
    p.add_argument("--class", dest="cls")
    p.add_argument("--class-type", dest="class_type")
    p.add_argument("--spec")
    p.add_argument("--q", type=str, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("lln", help="Monte Carlo growth of Jordan types")
    p.add_argument("--mode", default="haar", choices=("haar", "measure"))
    p.add_argument("--engine", default="chain", choices=("chain", "matrix", "markov"))
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--spec")
    p.add_argument("--csv", help="write per-trial trajectories as CSV")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lln)

    p = sub.add_parser("flag-count", help="fixed flags of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_flag_count)

    p = sub.add_parser("grassmann", help="Schubert cells, sizes, dimensions, cocycles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_grassmann)

    p = sub.add_parser("ipfamily-check", help="tower-level verdicts")
    p.add_argument("--example", required=True, choices=("gl", "affine", "wreath"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--coeff", type=int, default=2, help="cyclic coefficient order (wreath)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ipfamily_check)

    p = sub.add_parser("selftest", help="exact identity suites")
    p.add_argument("--level", default="quick", choices=("quick", "full"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
