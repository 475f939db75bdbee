"""Command-line surface.

Exit codes: 0 success, 2 input/validation/usage, 3 numerical trouble
(non-convergence, overflow, underflow), 4 resource cap hit or memory exhausted (the
message then names the subcommand and the sizes of the automata it
loaded).  Text output renders numbers with 6 decimals; --json renders
full reports with 17 significant digits, and text lines are fields of
that same report.  Solver defaults can be overridden by the TOLERANCE
and MAX_ITERS environment variables, read on every ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import linlen as linlen_mod
from . import nondet as nondet_mod
from . import oracle as oracle_mod
from .automata import DEFAULT_STATE_CAP, CostAutomaton
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


def _series_doc(series: oracle_mod.PartitionSeries, window: int) -> dict:
    """The series with its limit estimate over the last ``window`` rates,
    or over all of them when the series is shorter."""
    estimate, spread = oracle_mod.estimate_limit(series, min(window, len(series.rates)))
    return {
        "kind": series.kind,
        "values": [[n, s] for n, s in series.values],
        "rates": [[n, r] for n, r in series.rates],
        "estimate": estimate,
        "spread": spread,
    }


def _lines(doc: dict, keys, prefix: str = "") -> None:
    """One ``key value`` line per key: floats with 6 decimals, None as n/a."""
    for key in keys:
        value = doc[key]
        text = "n/a" if value is None else _fmt(value) if isinstance(value, float) else value
        print(f"{prefix}{key} {text}")


def _show(args, doc: dict, keys) -> int:
    """Print a handler's document: whole as JSON with --json, else the
    text lines of ``keys``."""
    if args.json:
        print(dump_json(doc))
    else:
        _lines(doc, keys)
    return EXIT_OK


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


def cmd_energy(args) -> int:
    a = _load(args, args.path)
    if args.branching_costs:
        a = nondet_mod.branching_costs(a)
    report = free_energy(
        a, form=args.form, tolerance=args.tolerance, max_iterations=args.max_iterations
    )
    return _show(args, _energy_report_doc(report), ["energy"])


def cmd_nondet(args) -> int:
    a = _load(args, args.path)
    solver = (args.tolerance, args.max_iterations)
    cap_hit = None
    try:
        if args.exact:
            report = nondet_mod.lambda_exact(a, args.state_cap, *solver)
        else:
            report = nondet_mod.lambda_plus(a, *solver)
    except StateCapExceeded as e:
        # cap hit during determinization: the upper estimate still stands
        report, cap_hit = nondet_mod.lambda_plus(a, *solver), e
    keys = ["lambda_plus", "energy_v", "energy_zero"]
    if report.lambda_exact is not None:
        keys += ["lambda_exact", "dfa_states"]
    _show(args, dict(vars(report)), keys)
    if cap_hit is None:
        return EXIT_OK
    print(f"error: {cap_hit}", file=sys.stderr)
    return EXIT_CAP


def cmd_similarity(args) -> int:
    a1 = _load(args, args.path1)
    a2 = _load(args, args.path2)
    report = similarity(a1, a2, args.tolerance, args.max_iterations)
    keys = ["delta", "energy_1", "energy_2", "product_states"]
    if args.normalized:
        keys.append("normalized")
    return _show(args, dict(vars(report)), keys)


def cmd_implement(args) -> int:
    dfa = _load(args, args.dfa_path)
    u = load_pair_cost(args.paircost_path, alphabet=dfa.alphabet)
    machine = implement_construction(dfa, u)
    save_document(args.out_path, automaton_to_document(machine))
    print(f"states {len(machine.state_names)} transitions {len(machine.src)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    a = _load(args, args.path)
    if args.kind == "words":
        u = (
            load_pair_cost(args.pair_costs, alphabet=a.alphabet)
            if args.pair_costs
            else PairCostFunction.create()
        )
        series = oracle_mod.word_partition_series(a, u, args.max_n)
    else:
        kind = {"runs": "runs_all", "accepting-runs": "runs_accepting"}[args.kind]
        series = oracle_mod.run_partition_series(a, kind, args.max_n)
    return _show(args, _series_doc(series, args.window), ["estimate", "spread"])


def cmd_linlen(args) -> int:
    spec = load_linlen_spec(args.spec_path)
    report = linlen_mod.linlen_energy(
        spec, tolerance=args.tolerance, max_iterations=args.max_iterations
    )
    doc = _energy_report_doc(report)
    if args.oracle_check is not None:
        doc["oracle"] = _series_doc(linlen_mod.linlen_word_oracle(spec, args.oracle_check), 12)
    _show(args, doc, ["energy"])
    if "oracle" in doc and not args.json:
        _lines(doc["oracle"], ["estimate", "spread"], prefix="oracle_")
    return EXIT_OK


@functools.cache
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

    p = sub.add_parser("nondet", help="nondeterminism estimates")
    p.add_argument("path")
    p.add_argument("--exact", action="store_true", help="determinize for lambda_M")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--state-cap",
        type=int,
        default=DEFAULT_STATE_CAP,
        help="abort determinization beyond this many subset states",
    )

    p = sub.add_parser("similarity", help="free-energy similarity of two automata")
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--json", action="store_true")
    p.add_argument("--normalized", action="store_true")

    p = sub.add_parser("implement", help="compile pair costs onto a DFA")
    p.add_argument("dfa_path")
    p.add_argument("paircost_path")
    p.add_argument("out_path")

    p = sub.add_parser("oracle", help="brute-force partition sums and limit estimate")
    p.add_argument("path")
    p.add_argument("--kind", choices=["runs", "accepting-runs", "words"], default="runs")
    p.add_argument("--pair-costs", default=None, help="pair cost document (words kind)")
    p.add_argument("--max-n", type=int, default=60)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--json", action="store_true")

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

    return parser


def _tolerance(raw, source: str) -> float:
    """A solver tolerance read from ``source``: a number strictly between 0
    and 1.  Above that the certificate accepts a wrong radius; at 0 or
    below, or NaN, it can never be met."""
    try:
        tolerance = float(raw)
    except ValueError:
        tolerance = math.nan
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"{source} must be positive and below 1, got {raw}")
    return tolerance


def _settings(args) -> None:
    """Solver settings onto ``args``: ``tolerance`` from --tolerance, else
    TOLERANCE, else the default; ``max_iterations`` from MAX_ITERS, else
    the default.  The environment is checked first, even when the flag is
    given."""
    raw = os.environ.get("TOLERANCE")
    tolerance = DEFAULT_TOLERANCE if raw is None else _tolerance(raw, "TOLERANCE")
    raw = os.environ.get("MAX_ITERS")
    try:
        args.max_iterations = DEFAULT_MAX_ITERATIONS if raw is None else int(raw)
    except ValueError:
        args.max_iterations = 0  # not an integer: rejected with the others below
    if args.max_iterations < 1:
        raise ValueError(f"MAX_ITERS must be positive, got {raw}")
    flag = getattr(args, "tolerance", None)
    args.tolerance = tolerance if flag is None else _tolerance(flag, "--tolerance")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    args.inputs = []
    try:
        _settings(args)
        # looked up per call, so a handler replaced on the module takes effect
        return globals()["cmd_" + args.command](args)
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
