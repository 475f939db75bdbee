"""Command-line surface.

Exit codes: 0 success, 2 input/validation/usage, 3 numerical trouble
(non-convergence, overflow, underflow), 4 resource cap hit or memory exhausted (the
message then names the subcommand and the sizes of the automata it
loaded).  Text output renders numbers with 6 decimals; --json renders
full reports with 17 significant digits.  Solver defaults can be
overridden by the TOLERANCE and MAX_ITERS environment variables, read once
at startup.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import linlen as linlen_mod
from . import nondet as nondet_mod
from . import oracle as oracle_mod
from .automata import CostAutomaton
from .documents import (
    automaton_to_document,
    dump_json,
    load_automaton,
    load_linlen_spec,
    load_pair_cost,
    save_document,
)
from .energy import EnergyReport, free_energy
from .errors import (
    BlockAlphabetTooLarge,
    DocumentError,
    NotConverged,
    NotDeterministic,
    Overflow,
    StateCapExceeded,
    Underflow,
)
from .langcost import PairCostFunction, implement_construction
from .similarity import similarity
from .spectral import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CAP = 4


@dataclass(frozen=True)
class _Solver:
    tolerance: float
    max_iterations: int


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _energy_report_doc(r: EnergyReport) -> dict:
    return {
        "energy": r.energy,
        "per_component": [
            {"states": sorted(states), "energy": e} for states, e in r.per_component
        ],
        "solver": [
            None
            if s is None
            else {
                "radius": s.radius,
                "iterations": s.iterations,
                "residual": s.residual,
                "converged": s.converged,
            }
            for s in r.solver
        ],
        "form_used": r.form_used,
        "max_component": r.max_component,
        "trim_changed": r.trim_changed,
    }


def _series_doc(series: oracle_mod.PartitionSeries, estimate: float, spread: float) -> dict:
    return {
        "kind": series.kind,
        "values": [[n, s] for n, s in series.values],
        "rates": [[n, r] for n, r in series.rates],
        "estimate": estimate,
        "spread": spread,
    }


def _emit(doc: dict) -> None:
    print(dump_json(doc))


def _load(args, path: str) -> CostAutomaton:
    """load_automaton, noting the input on ``args`` for error messages."""
    a = load_automaton(path)
    args.inputs.append((path, a))
    return a


def _out_of_memory(args) -> str:
    inputs = ", ".join(
        f"{path} ({len(a.state_names)} states, {len(a.src)} transitions)"
        for path, a in args.inputs
    )
    return f"out of memory in {args.command}" + (f" on {inputs}" if inputs else "")


def cmd_energy(args, solver: _Solver) -> int:
    a = _load(args, args.path)
    if args.branching_costs:
        a = nondet_mod.branching_costs(a)
    tolerance = args.tolerance if args.tolerance is not None else solver.tolerance
    report = free_energy(
        a, form=args.form, tolerance=tolerance, max_iterations=solver.max_iterations
    )
    if args.json:
        _emit(_energy_report_doc(report))
    else:
        print(f"energy {_fmt(report.energy)}")
    return EXIT_OK


def _nondet_doc(r: nondet_mod.NondetReport) -> dict:
    return {
        "lambda_plus": r.lambda_plus,
        "energy_v": r.energy_v,
        "energy_zero": r.energy_zero,
        "lambda_exact": r.lambda_exact,
        "dfa_states": r.dfa_states,
        "lambda_plus_raw": r.lambda_plus_raw,
        "lambda_exact_raw": r.lambda_exact_raw,
    }


def _print_nondet(r: nondet_mod.NondetReport, as_json: bool) -> None:
    if as_json:
        _emit(_nondet_doc(r))
        return
    print(f"lambda_plus {_fmt(r.lambda_plus)}")
    print(f"energy_v {_fmt(r.energy_v)}")
    print(f"energy_zero {_fmt(r.energy_zero)}")
    if r.lambda_exact is not None:
        print(f"lambda_exact {_fmt(r.lambda_exact)}")
        print(f"dfa_states {r.dfa_states}")


def cmd_nondet(args, solver: _Solver) -> int:
    a = _load(args, args.path)
    if not args.exact:
        report = nondet_mod.lambda_plus(a, solver.tolerance, solver.max_iterations)
        _print_nondet(report, args.json)
        return EXIT_OK
    try:
        report = nondet_mod.lambda_exact(
            a,
            state_cap=args.state_cap,
            tolerance=solver.tolerance,
            max_iterations=solver.max_iterations,
        )
    except StateCapExceeded as e:
        # cap hit during determinization: the upper estimate still stands
        fallback = nondet_mod.lambda_plus(a, solver.tolerance, solver.max_iterations)
        _print_nondet(fallback, args.json)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    _print_nondet(report, args.json)
    return EXIT_OK


def cmd_similarity(args, solver: _Solver) -> int:
    a1 = _load(args, args.path1)
    a2 = _load(args, args.path2)
    report = similarity(a1, a2, solver.tolerance, solver.max_iterations)
    if args.json:
        _emit(
            {
                "delta": report.delta,
                "energy_1": report.energy_1,
                "energy_2": report.energy_2,
                "product_states": report.product_states,
                "normalized": report.normalized,
            }
        )
        return EXIT_OK
    print(f"delta {_fmt(report.delta)}")
    print(f"energy_1 {_fmt(report.energy_1)}")
    print(f"energy_2 {_fmt(report.energy_2)}")
    print(f"product_states {report.product_states}")
    if args.normalized:
        if report.normalized is None:
            print("normalized n/a")
        else:
            print(f"normalized {_fmt(report.normalized)}")
    return EXIT_OK


def cmd_implement(args, solver: _Solver) -> int:
    dfa = _load(args, args.dfa_path)
    u = load_pair_cost(args.paircost_path, alphabet=dfa.alphabet)
    try:
        machine = implement_construction(dfa, u)
    except NotDeterministic:
        print("error: input must be deterministic", file=sys.stderr)
        return EXIT_INPUT
    save_document(args.out_path, automaton_to_document(machine))
    print(f"states {len(machine.state_names)} transitions {len(machine.src)}")
    return EXIT_OK


def cmd_oracle(args, solver: _Solver) -> int:
    a = _load(args, args.path)
    if args.kind == "words":
        u = (
            load_pair_cost(args.pair_costs, alphabet=a.alphabet)
            if args.pair_costs
            else PairCostFunction.create({}, default=0.0)
        )
        series = oracle_mod.word_partition_series(a, u, args.max_n)
    else:
        kind = {"runs": "runs_all", "accepting-runs": "runs_accepting"}[args.kind]
        series = oracle_mod.run_partition_series(a, kind, args.max_n)
    window = min(args.window, len(series.rates))
    estimate, spread = oracle_mod.estimate_limit(series, window)
    if args.json:
        _emit(_series_doc(series, estimate, spread))
        return EXIT_OK
    print(f"estimate {_fmt(estimate)}")
    print(f"spread {_fmt(spread)}")
    return EXIT_OK


def cmd_linlen(args, solver: _Solver) -> int:
    spec = load_linlen_spec(args.spec_path)
    report = linlen_mod.linlen_energy(
        spec, tolerance=solver.tolerance, max_iterations=solver.max_iterations
    )
    oracle_doc = None
    oracle_lines: list[str] = []
    if args.oracle_check is not None:
        series = linlen_mod.linlen_word_oracle(spec, args.oracle_check)
        window = min(12, len(series.rates))
        estimate, spread = oracle_mod.estimate_limit(series, window)
        oracle_doc = _series_doc(series, estimate, spread)
        oracle_lines = [f"oracle_estimate {_fmt(estimate)}", f"oracle_spread {_fmt(spread)}"]
    if args.json:
        doc = _energy_report_doc(report)
        if oracle_doc is not None:
            doc["oracle"] = oracle_doc
        _emit(doc)
        return EXIT_OK
    print(f"energy {_fmt(report.energy)}")
    for line in oracle_lines:
        print(line)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gurevich",
        description="Free energy of cost-weighted automata and regular languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="free energy of an automaton document")
    p.add_argument("path")
    p.add_argument("--form", choices=["bipartite", "compact"], default="compact")
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--branching-costs",
        action="store_true",
        help="replace costs with ln k(state, symbol) before solving",
    )
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("nondet", help="nondeterminism estimates")
    p.add_argument("path")
    p.add_argument("--exact", action="store_true", help="determinize for lambda_M")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--state-cap",
        type=int,
        default=nondet_mod.DEFAULT_STATE_CAP,
        help="abort determinization beyond this many subset states",
    )
    p.set_defaults(func=cmd_nondet)

    p = sub.add_parser("similarity", help="free-energy similarity of two automata")
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--json", action="store_true")
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("implement", help="compile pair costs onto a DFA")
    p.add_argument("dfa_path")
    p.add_argument("paircost_path")
    p.add_argument("out_path")
    p.set_defaults(func=cmd_implement)

    p = sub.add_parser("oracle", help="brute-force partition sums and limit estimate")
    p.add_argument("path")
    p.add_argument("--kind", choices=["runs", "accepting-runs", "words"], default="runs")
    p.add_argument("--pair-costs", default=None, help="pair cost document (words kind)")
    p.add_argument("--max-n", type=int, default=60)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("linlen", help="free energy of a linear-length language")
    p.add_argument("spec_path")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--oracle-check",
        type=int,
        default=None,
        metavar="N",
        help="compare against the split-enumeration oracle up to length N",
    )
    p.set_defaults(func=cmd_linlen)

    return parser


def _solver_from_env() -> _Solver:
    tolerance = DEFAULT_TOLERANCE
    max_iterations = DEFAULT_MAX_ITERATIONS
    raw = os.environ.get("TOLERANCE")
    if raw is not None:
        tolerance = float(raw)
        if not tolerance > 0:
            raise ValueError(f"TOLERANCE must be positive, got {raw}")
    raw = os.environ.get("MAX_ITERS")
    if raw is not None:
        max_iterations = int(raw)
        if max_iterations < 1:
            raise ValueError(f"MAX_ITERS must be positive, got {raw}")
    return _Solver(tolerance=tolerance, max_iterations=max_iterations)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        solver = _solver_from_env()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    args.inputs = []
    try:
        return args.func(args, solver)
    except (DocumentError, NotDeterministic, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (NotConverged, Overflow, Underflow) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (StateCapExceeded, BlockAlphabetTooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print(f"error: {_out_of_memory(args)}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
