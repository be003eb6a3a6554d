"""Command-line interface: solve, exact, gen, check-cert, reduce.

Exit codes follow the solve contract (0 cut found, 2 no cut, 1 input
error); check-cert exits 3 on the first failing certificate bullet.
Randomized commands require --seed (or the HYPERSPARS_SEED environment
variable) so every run is reproducible.

Every probe of solve runs both sides of vertex 0.  ``solve --json`` writes
a version-4 report that holds only what check-cert re-derives from the
instance file: the instance block, the config, every cut and the bound,
and per run its numbers and averaged certificate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np

from . import reference
from .driver import SolveResult, SolverConfig, binary_search, run_both_sides
from .hypergraph import (
    DhgParseError,
    DirectedHypergraph,
    degree_scaled,
    parse_dhg,
    reduce_to_digraph,
    serialize_dhg,
)
from .oracle import OracleConfig, OracleInvariantError
from .report import dumps_report, expansion_estimate, solve_report, verify_report

__all__ = ["main"]


def _read_input(path: str) -> str:
    """The text of ``path`` ('-' for stdin); ValueError where it cannot be decoded."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not {exc.encoding} text (byte {exc.start})") from None


def _load_hypergraph(path: str) -> DirectedHypergraph:
    return parse_dhg(_read_input(path))


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("HYPERSPARS_SEED")
        if env is None:
            raise SystemExit("error: --seed (or HYPERSPARS_SEED) is required")
        try:
            seed = int(env)
        except ValueError:
            raise SystemExit(f"error: HYPERSPARS_SEED must be an integer, not {env!r}") from None
    if seed < 0:
        raise SystemExit(f"error: the seed must be a non-negative integer, not {seed}")
    return seed


def _solver_config(args) -> SolverConfig:
    constants = {}
    if args.constants:
        with open(args.constants, "r", encoding="utf-8") as fh:
            constants = json.load(fh)
        if not isinstance(constants, dict):
            raise ValueError(f"{args.constants}: constants must be a JSON object")
        # unlike a report's config, a typo here would silently keep a default
        unknown = sorted(set(constants) - {f.name for f in fields(OracleConfig)})
        if unknown:
            raise ValueError(f"{args.constants}: unknown constant {', '.join(unknown)}")
    kwargs = {"oracle": OracleConfig(**constants)}
    if args.t_cap is not None:
        kwargs["t_cap"] = args.t_cap
    return SolverConfig(**kwargs)


def cmd_solve(args) -> int:
    if args.no_search and args.alpha is None:
        # exit 1, an input error: exit 2 is "no cut"
        print("error: --no-search needs --alpha", file=sys.stderr)
        return 1
    try:
        h = _load_hypergraph(args.input)
        cfg = _solver_config(args)
    except (DhgParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)

    mode = args.mode
    h_solve = h
    extra: dict = {"mode": mode}
    if mode == "expansion":
        try:
            h_solve = degree_scaled(h)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        if args.no_search:
            probe = run_both_sides(h_solve, args.alpha, cfg, rng)
            bound = probe.lower_bound
            result = SolveResult(probe.best_cut, bound, [probe], args.alpha, args.alpha)
        else:
            if args.alpha is not None:
                cfg = replace(cfg, alpha_lo=args.alpha / 4.0, alpha_hi=args.alpha * 4.0)
            result = binary_search(h_solve, cfg, rng)
    except (ValueError, OracleInvariantError) as exc:
        # instances and options the solver rejects, e.g. a single vertex,
        # and oracle outcomes that break their own guarantee
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if mode == "expansion" and result.best_cut is not None:
        extra["expansion"] = expansion_estimate(h, result.best_cut.subset)

    doc = solve_report(h_solve, cfg, result, seed, mode=mode, extra=extra)
    out = dumps_report(doc) if args.json else _format_solve_text(h_solve, result, extra)
    _write_output(args.output, out)
    return 0 if result.best_cut is not None else 2


def _format_solve_text(h, result, extra) -> str:
    lines = []
    if result.best_cut is None:
        lines.append("no cut found")
    else:
        names = sorted(h.names[v] for v in result.best_cut.subset)
        lines.append(f"cut: {{{', '.join(names)}}}")
        lines.append(f"sparsity: {result.best_cut.sparsity}"
                     f" ({float(result.best_cut.sparsity):.6g})")
    if result.lower_bound:
        lines.append(f"lower bound: {result.lower_bound:.6g}")
        if result.ratio is not None:
            lines.append(f"approximation ratio: {result.ratio:.6g}")
    else:
        lines.append("lower bound: none")
    for p_idx, probe in enumerate(result.probes):
        summary = ", ".join(
            f"{side}:{run.outcome}({run.iterations} it)"
            for side, run in probe.runs.items()
        )
        lines.append(f"probe {p_idx}: alpha={probe.alpha:.6g} {summary}")
    if "expansion" in extra and extra["expansion"]:
        e = extra["expansion"]
        lines.append(f"expansion estimate: phi={e['phi']} on {{{', '.join(e['vertices'])}}}")
    return "\n".join(lines) + "\n"


def _write_output(path: str | None, content: str) -> None:
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _reported_sparsity(path: str) -> float | None:
    """The ``sparsity`` of the solve report at ``path``; None if it has none."""
    with open(path, "r", encoding="utf-8") as fh:
        solved = json.load(fh)
    if not isinstance(solved, dict):
        raise ValueError(f"{path}: a solve report must be a JSON object")
    value = solved.get("sparsity")
    try:
        return None if value is None else float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: sparsity {value!r} is not a number") from None


def cmd_exact(args) -> int:
    try:
        h = _load_hypergraph(args.input)
        reported = _reported_sparsity(args.compare) if args.compare else None
    except (DhgParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        s_star, theta = reference.brute_force_sparsest(h)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = {
        "sparsity": str(theta),
        "sparsity_float": float(theta),
        "sparsest_subset": sorted(h.names[v] for v in s_star),
    }
    try:
        e_star, phi = reference.brute_force_expansion(h)
        doc["expansion"] = str(phi)
        doc["expansion_float"] = float(phi)
        doc["expansion_subset"] = sorted(h.names[v] for v in e_star)
    except ValueError as exc:
        doc["expansion_error"] = str(exc)
    if reported is not None:
        doc["solve_ratio"] = reported / float(theta) if theta > 0 else (None if reported else 1.0)
    if args.json:
        _write_output(args.output, json.dumps(doc, sort_keys=True) + "\n")
    else:
        lines = [f"sparsest: {doc['sparsity']} on {{{', '.join(doc['sparsest_subset'])}}}"]
        if "expansion" in doc:
            lines.append(
                f"expansion: {doc['expansion']} on {{{', '.join(doc['expansion_subset'])}}}"
            )
        if "solve_ratio" in doc:
            lines.append(f"solve ratio: {doc['solve_ratio']}")
        _write_output(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    try:
        spec = reference.GeneratorSpec(
            n=args.n,
            m=args.m,
            r_max=args.r_max,
            kappa=args.kappa,
            weight_range=(args.weight_lo, args.weight_hi),
            model=args.model,
            balance=args.balance,
            inside_w=Fraction(args.inside_w),
            crossing_w=Fraction(args.crossing_w),
            seed=seed,
        )
        h = reference.generate(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_output(args.output, serialize_dhg(h))
    return 0


def cmd_check_cert(args) -> int:
    try:
        h = _load_hypergraph(args.input)
        doc = json.loads(_read_input(args.report))
    except (DhgParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ok, failing = verify_report(doc, h)
    if ok:
        print("certificates verified")
        return 0
    print(f"certificate check failed: {failing}", file=sys.stderr)
    return 3


def cmd_reduce(args) -> int:
    try:
        h = _load_hypergraph(args.input)
    except (DhgParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rd = reduce_to_digraph(h)
    names = list(h.names) + [
        name
        for k in range(h.m)
        for name in (f"__e{k}_tail", f"__e{k}_head")
    ]
    doc = {
        "vertices": [
            {"name": names[v], "omega": rd.vertex_weight(v)}
            for v in range(rd.num_vertices)
        ],
        "arcs": [
            {"from": names[u], "to": names[v], "w": str(w)}
            for u, v, w in rd.arcs
        ],
        "big_weight": str(rd.big_weight),
    }
    _write_output(args.output, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspars",
        description="Directed sparsest cut / hyperedge expansion solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="approximate sparsest cut with certificates")
    solve.add_argument("input", help="DHG file or '-' for stdin")
    solve.add_argument("--mode", choices=["sparsity", "expansion"], default="sparsity")
    solve.add_argument("--alpha", type=float, default=None)
    solve.add_argument("--no-search", action="store_true",
                       help="single run at --alpha instead of binary search")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--t-cap", type=int, default=None)
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--constants", default=None,
                       help="JSON file overriding oracle constants")
    solve.add_argument("-o", "--output", default=None)
    solve.set_defaults(func=cmd_solve)

    exact = sub.add_parser("exact", help="brute-force optimum (n <= 24)")
    exact.add_argument("input")
    exact.add_argument("--compare", default=None, help="solve report JSON to compare")
    exact.add_argument("--json", action="store_true")
    exact.add_argument("-o", "--output", default=None)
    exact.set_defaults(func=cmd_exact)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--model", choices=["uniform-random", "planted-cut", "expander-like"],
                     default="uniform-random")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--r-max", type=int, default=4)
    gen.add_argument("--kappa", type=int, default=1)
    gen.add_argument("--weight-lo", type=int, default=1)
    gen.add_argument("--weight-hi", type=int, default=4)
    gen.add_argument("--balance", type=float, default=0.5)
    gen.add_argument("--inside-w", default="4")
    gen.add_argument("--crossing-w", default="1/20")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=cmd_gen)

    check = sub.add_parser("check-cert", help="re-verify a solve report")
    check.add_argument("report", help="solve report JSON")
    check.add_argument("input", help="the DHG instance the report was produced from")
    check.set_defaults(func=cmd_check_cert)

    red = sub.add_parser("reduce", help="emit the directed-normal-graph reduction")
    red.add_argument("input")
    red.add_argument("-o", "--output", default=None)
    red.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
