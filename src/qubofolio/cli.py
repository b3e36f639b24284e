"""Command-line entry point: build, solve, quantum, sweep, report.

Exit codes are a stable contract:
  0 success, 2 spec validation error, 3 size-cap violation,
  4 unparseable input, 5 sweep with zero successful rows,
  6 layout mismatch between a solution and its config.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .evaluation import DEFAULT_Q_GRID, SOLVERS, EvaluationError, economic_metrics, sweep_q
from .market_data import MarketDataError
from .model import ModelError, ProblemSpec, spec_from_json
from .quantum import (AnnealSchedule, QuantumSimError, _check_cap, anneal_run,
                      normalize_ising, qaoa_optimize, qaoa_run, vqe_run)
from .qubo import (
    IsingModel,
    QuboError,
    QuboParseError,
    build_qubo,
    objective_breakdown,
    read_qubo_text,
    to_ising,
    write_bqp_json,
    write_ising_text,
    write_qubo_text,
)
from .solvers import SolveBudget, SolveReport, _rle_runs
from .toy import toy_spec

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_CAP = 3
EXIT_PARSE = 4
EXIT_SWEEP = 5
EXIT_MISMATCH = 6


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_spec(args) -> ProblemSpec:
    if getattr(args, "toy", False):
        return toy_spec(n=args.toy_n, T=args.toy_t, seed=args.seed)
    if not args.config:
        raise CliError(EXIT_SPEC, "either --config or --toy is required")
    return _read_input(args.config, spec_from_json)


def _read_input(path, read):
    """read(path), every CLI input file's one read: a file that cannot be opened,
    decoded or parsed as JSON exits 4 as "<path>: <reason>"; read keeps its content checks."""
    try:
        return read(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}")


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path, doc) -> None:
    """doc as indented JSON and a newline: every JSON document the CLI writes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _checked(kind, ok, what):
    """argparse type: a `kind` value for which ok(value) holds; anything else exits 2."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _positive(kind):
    return _checked(kind, lambda v: v > 0, "positive")


_positive_finite = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")


def _non_negative(kind):
    return _checked(kind, lambda v: v >= 0, "non-negative")


def _add_toy_flags(parser):
    parser.add_argument("--toy", action="store_true",
                        help="generate a small built-in portfolio instead of reading --config")
    parser.add_argument("--toy-n", type=int, default=2, help="toy asset count (<= 3)")
    parser.add_argument("--toy-t", type=int, default=2, help="toy horizon (<= 2)")


def _add_budget_flags(parser):
    parser.add_argument("--time-limit", type=_positive(float), default=60.0)
    parser.add_argument("--max-iterations", type=_positive(int), default=None)


def _budget(args) -> SolveBudget:
    return SolveBudget(time_limit=args.time_limit, seed=args.seed,
                       max_iterations=args.max_iterations)


def cmd_build(args) -> int:
    spec = _load_spec(args)
    qubo = build_qubo(spec)
    num_terms = write_qubo_text(qubo, args.out)
    print(f"wrote {args.out}: {qubo.num_vars} variables, {num_terms} terms")
    if args.ising:
        path = args.out + ".ising"
        write_ising_text(to_ising(qubo), path)
        print(f"wrote {path}")
    if args.bqp:
        path = args.out + ".bqp.json"
        write_bqp_json(spec, path)
        print(f"wrote {path}")
    return EXIT_OK


def _load_problem(args):
    """Instance for solve/quantum: a parsed QUBO file or a built spec."""
    if getattr(args, "qubo", None):
        return _read_input(args.qubo, read_qubo_text)
    spec = _load_spec(args)
    return build_qubo(spec)


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    if isinstance(problem, IsingModel):
        raise CliError(EXIT_PARSE, "solve expects a QUBO file, got an Ising export")
    report = SOLVERS[args.solver](problem, _budget(args))
    _write_json(args.out, report.to_json())
    print(f"{args.solver}: best energy {report.best_energy!r} "
          f"(lower bound {report.lower_bound!r}), wrote {args.out}")
    return EXIT_OK


def cmd_quantum(args) -> int:
    if args.algo == "anneal" and args.dt >= args.tau:
        raise CliError(EXIT_SPEC, f"--dt {args.dt!r} must be smaller than --tau {args.tau!r}")
    problem = _load_problem(args)
    # before any model-sized array: a file header can declare ~1e12 variables
    is_ising = isinstance(problem, IsingModel)
    _check_cap(problem.num_spins if is_ising else problem.num_vars)
    ising = problem if is_ising else to_ising(problem)
    # currency-scale coefficients would swamp the unit-strength driver
    ising, scale = normalize_ising(ising)
    if args.algo == "qaoa":
        params, _ = qaoa_optimize(ising, layers=args.layers, seed=args.seed)
        doc = qaoa_run(ising, params, shots=args.shots, seed=args.seed)
    elif args.algo == "vqe":
        doc = vqe_run(ising, layers=args.layers, seed=args.seed)
    else:
        schedule = AnnealSchedule(total_time=args.tau, dt=args.dt)
        doc = anneal_run(ising, schedule, shots=args.shots, seed=args.seed)
    doc["ground_energy"] *= scale
    doc["expectation"] *= scale
    if "restart_trace" in doc:
        doc["restart_trace"] = [value * scale for value in doc["restart_trace"]]
    _write_json(args.out, doc)
    print(f"{args.algo}: expectation {doc['expectation']!r}, "
          f"ground probability {doc['ground_probability']!r}, wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = _load_spec(args)
    if args.q:
        try:
            q_list = [float(tok) for tok in args.q.split(",") if tok.strip()]
        except ValueError as exc:
            raise CliError(EXIT_PARSE, f"bad --q list: {exc}")
    else:
        q_list = list(DEFAULT_Q_GRID)
    try:
        table = sweep_q(spec, q_list, args.solver, _budget(args))
    except EvaluationError as exc:  # raised on its arguments, before any solve
        raise CliError(EXIT_PARSE, f"bad --q list: {exc}")
    table.write_csv(args.out)
    failed = [row for row in table.rows if row.failed]
    for row in failed:
        print(f"q={row.q}: failed: {row.error}", file=sys.stderr)
    print(f"wrote {args.out}: {table.succeeded}/{len(table.rows)} rows succeeded")
    if table.succeeded == 0:
        raise CliError(EXIT_SWEEP, "all sweep rows failed")
    return EXIT_OK


def cmd_report(args) -> int:
    spec = _load_spec(args)
    doc = _read_input(args.solution, _read_json)
    try:
        # before decoding: the run lengths may add up to far more than memory holds
        size = sum(_rle_runs(doc["bits"])[1])
        if size != spec.layout.total:
            raise CliError(EXIT_MISMATCH, f"solution has {size} bits but the config layout "
                                          f"expects {spec.layout.total}")
        bits = SolveReport.from_json(doc).best
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"{args.solution}: {exc}")
    breakdown = objective_breakdown(spec, bits)
    metrics = economic_metrics(spec, bits)
    width = max(len(k) for k in breakdown)
    print("objective breakdown:")
    for key, value in breakdown.items():
        print(f"  {key:<{width}}  {value: .6f}")
    print(f"  {'total':<{width}}  {sum(breakdown.values()): .6f}")
    print(f"feasible: {metrics.feasible}")
    sharpe = metrics.sharpe_annualized
    print(f"net profit: {metrics.net_profit:.6f}  "
          f"sharpe: {'no-risk' if sharpe is None else f'{sharpe:.4f}'}")
    if args.out:
        doc = metrics.to_json()
        doc["objective_breakdown"] = breakdown
        _write_json(args.out, doc)
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubofolio",
        description="Multi-period portfolio optimization compiled to QUBO/BQP/Ising",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="compile a problem spec to QUBO text")
    p_build.add_argument("--config", help="ProblemSpec JSON path")
    p_build.add_argument("--out", required=True, help="output QUBO text path")
    p_build.add_argument("--ising", action="store_true", help="also write the Ising export")
    p_build.add_argument("--bqp", action="store_true", help="also write the BQP JSON export")
    p_build.add_argument("--seed", type=int, default=0)
    _add_toy_flags(p_build)
    p_build.set_defaults(func=cmd_build)

    p_solve = sub.add_parser("solve", help="run a classical solver")
    p_solve.add_argument("--qubo", help="QUBO text file")
    p_solve.add_argument("--config", help="ProblemSpec JSON (built on the fly)")
    p_solve.add_argument("--solver", choices=sorted(SOLVERS), default="abs")
    _add_budget_flags(p_solve)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", required=True, help="SolveReport JSON path")
    _add_toy_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_quantum = sub.add_parser("quantum", help="run the statevector simulator")
    p_quantum.add_argument("--qubo", help="QUBO or Ising text file")
    p_quantum.add_argument("--config", help="ProblemSpec JSON (built on the fly)")
    p_quantum.add_argument("--algo", choices=["qaoa", "vqe", "anneal"], required=True)
    p_quantum.add_argument("--layers", type=_non_negative(int), default=2,
                           help="qaoa/vqe circuit depth; 0 runs the start state "
                                "(qaoa: the uniform superposition, vqe: |0...0>)")
    p_quantum.add_argument("--tau", type=_positive_finite, default=50.0,
                           help="anneal total time")
    p_quantum.add_argument("--dt", type=_positive_finite, default=0.01,
                           help="anneal Trotter step")
    p_quantum.add_argument("--shots", type=_non_negative(int), default=1024)
    p_quantum.add_argument("--seed", type=int, default=0)
    p_quantum.add_argument("--out", required=True, help="run output JSON path")
    _add_toy_flags(p_quantum)
    p_quantum.set_defaults(func=cmd_quantum)

    p_sweep = sub.add_parser("sweep", help="Pareto sweep over risk-aversion values")
    p_sweep.add_argument("--config", help="ProblemSpec JSON path")
    p_sweep.add_argument("--q", help="comma-separated q values (default: the standard grid)")
    p_sweep.add_argument("--solver", choices=sorted(SOLVERS), default="exact")
    _add_budget_flags(p_sweep)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", required=True, help="Pareto CSV path")
    _add_toy_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="economic metrics for a solved run")
    p_report.add_argument("--solution", required=True, help="SolveReport JSON path")
    p_report.add_argument("--config", help="ProblemSpec JSON path")
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--out", help="metrics JSON path")
    _add_toy_flags(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ModelError, MarketDataError, QuboError, QuantumSimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        if isinstance(exc, (ModelError, MarketDataError)):
            return EXIT_SPEC
        return EXIT_PARSE if isinstance(exc, QuboParseError) else EXIT_CAP  # else a size cap


if __name__ == "__main__":
    sys.exit(main())
