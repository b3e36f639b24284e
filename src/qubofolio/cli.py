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
from .quantum import (LAYER_CAP, AnnealSchedule, QuantumSimError, _check_cap, _check_shots,
                      anneal_run, normalize_ising, qaoa_optimize, qaoa_run)
from .qubo import (
    IsingModel,
    QuboError,
    QuboParseError,
    _check_dense,
    _read_header,
    build_qubo,
    objective_breakdown,
    read_qubo_text,
    to_ising,
    write_bqp_json,
    write_ising_text,
    write_qubo_text,
)
from .solvers import SolveBudget, SolveReport, _check_exact, _rle_runs
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
    if args.toy:
        return toy_spec(n=args.toy_n, T=args.toy_t, seed=args.seed)
    if not args.config:
        sources = "--qubo, --config" if "qubo" in args else "--config"
        raise CliError(EXIT_SPEC, f"either {sources} or --toy is required")
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
    if args.qubo:
        return _read_input(args.qubo, read_qubo_text)
    spec = _load_spec(args)
    return build_qubo(spec)


def _check_header(path, caps, qubo_only=False) -> None:
    """Text file path's header, checked before any term is read: an Ising header exits 4 if
    qubo_only, then each of caps raises on the variable or spin count what it raises on the
    parsed problem."""
    def read(path):
        with open(path, encoding="utf-8") as fh:
            return _read_header(fh, path)[:2]
    kind, count = _read_input(path, read)
    if qubo_only and kind != "qubo":
        raise CliError(EXIT_PARSE, "solve expects a QUBO file, got an Ising export")
    for cap in caps:
        cap(count)


def cmd_solve(args) -> int:
    if args.qubo:
        # Every solver densifies a file, exact after its own cap.  Once banded files are read
        # back as a BlockQubo, sa and abs densify none, and their header check gives way to
        # that reader's byte limit; exact and bnb keep theirs.
        caps = (_check_exact, _check_dense) if args.solver == "exact" else (_check_dense,)
        _check_header(args.qubo, caps, qubo_only=True)
    problem = _load_problem(args)
    report = SOLVERS[args.solver](problem, _budget(args))
    _write_json(args.out, report.to_json())
    print(f"{args.solver}: best energy {report.best_energy!r} "
          f"(lower bound {report.lower_bound!r}), wrote {args.out}")
    return EXIT_OK


def cmd_quantum(args) -> int:
    if args.algo == "anneal" and args.dt >= args.tau:
        raise CliError(EXIT_SPEC, f"--dt {args.dt!r} must be smaller than --tau {args.tau!r}")
    _check_shots(args.shots)  # qaoa_run checks it too, but only after qaoa_optimize's work
    if args.qubo:
        _check_header(args.qubo, (_check_cap,))
    problem = _load_problem(args)
    is_ising = isinstance(problem, IsingModel)
    _check_cap(problem.num_spins if is_ising else problem.num_vars)
    ising = problem if is_ising else to_ising(problem)
    # currency-scale coefficients would swamp the unit-strength driver
    ising, scale = normalize_ising(ising)
    if args.algo == "qaoa":
        params, _ = qaoa_optimize(ising, layers=args.layers, seed=args.seed)
        doc = qaoa_run(ising, params, shots=args.shots, seed=args.seed)
    else:
        schedule = AnnealSchedule(total_time=args.tau, dt=args.dt)
        doc = anneal_run(ising, schedule, shots=args.shots, seed=args.seed)
    doc["ground_energy"] *= scale
    doc["expectation"] *= scale
    _write_json(args.out, doc)
    print(f"{args.algo}: expectation {doc['expectation']!r}, "
          f"ground probability {doc['ground_probability']!r}, wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = _load_spec(args)
    if args.q is not None:
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

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--config", help="ProblemSpec JSON path")
    source.add_argument("--toy", action="store_true",
                        help="generate a small built-in portfolio instead of reading --config")
    source.add_argument("--toy-n", type=int, default=2, help="toy asset count (<= 3)")
    source.add_argument("--toy-t", type=int, default=2, help="toy horizon (<= 2)")
    source.add_argument("--seed", type=_non_negative(int), default=0)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--time-limit", type=_positive(float), default=60.0)
    budget.add_argument("--max-iterations", type=_positive(int), default=None)

    p_build = sub.add_parser("build", parents=[source],
                             help="compile a problem spec to QUBO text")
    p_build.add_argument("--out", required=True, help="output QUBO text path")
    p_build.add_argument("--ising", action="store_true", help="also write the Ising export")
    p_build.add_argument("--bqp", action="store_true", help="also write the BQP JSON export")
    p_build.set_defaults(func=cmd_build)

    p_solve = sub.add_parser("solve", parents=[source, budget], help="run a classical solver")
    p_solve.add_argument("--qubo", help="QUBO text file")
    p_solve.add_argument("--solver", choices=sorted(SOLVERS), default="abs")
    p_solve.add_argument("--out", required=True, help="SolveReport JSON path")
    p_solve.set_defaults(func=cmd_solve)

    p_quantum = sub.add_parser("quantum", parents=[source],
                               help="run the statevector simulator")
    p_quantum.add_argument("--qubo", help="QUBO or Ising text file")
    p_quantum.add_argument("--algo", choices=["qaoa", "anneal"], required=True)
    p_quantum.add_argument("--layers", type=_non_negative(int), default=2,
                           help=f"qaoa circuit depth, at most {LAYER_CAP} (more exits 3); "
                                "0 runs the uniform superposition")
    p_quantum.add_argument("--tau", type=_positive_finite, default=50.0,
                           help="anneal total time")
    p_quantum.add_argument("--dt", type=_positive_finite, default=0.01,
                           help="anneal Trotter step: the run takes round(tau / dt) "
                                "equal steps of tau / steps")
    p_quantum.add_argument("--shots", type=_non_negative(int), default=1024,
                           help="samples of the final state, below 2^63 (more exits 3); "
                                "0 reports the most probable state")
    p_quantum.add_argument("--out", required=True, help="run output JSON path")
    p_quantum.set_defaults(func=cmd_quantum)

    p_sweep = sub.add_parser("sweep", parents=[source, budget],
                             help="Pareto sweep over risk-aversion values")
    p_sweep.add_argument("--q", help="comma-separated q values (default: the standard grid)")
    p_sweep.add_argument("--solver", choices=sorted(SOLVERS), default="exact")
    p_sweep.add_argument("--out", required=True, help="Pareto CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", parents=[source],
                              help="economic metrics for a solved run")
    p_report.add_argument("--solution", required=True, help="SolveReport JSON path")
    p_report.add_argument("--out", help="metrics JSON path")
    p_report.set_defaults(func=cmd_report)

    return parser


def _one_source(args) -> None:
    """More than one of --qubo, --config and --toy exits 2, naming the flags given."""
    given = [flag for flag, value in (("--qubo", getattr(args, "qubo", None)),
                                      ("--config", args.config), ("--toy", args.toy)) if value]
    if len(given) > 1:
        raise CliError(EXIT_SPEC, f"give one problem source, not {' and '.join(given)}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _one_source(args)
        return args.func(args)
    except (CliError, ModelError, MarketDataError, QuboError, QuantumSimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        if isinstance(exc, (ModelError, MarketDataError)):
            return EXIT_SPEC
        return EXIT_PARSE if isinstance(exc, QuboParseError) else EXIT_CAP  # else a size cap
    except OSError as exc:  # an output path that cannot be written; inputs exit 4 as they are read
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
