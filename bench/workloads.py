"""The four benchmark workloads and the loop that measures them.

Each workload puts most of its time into a different module of
qubofolio, so a change to one layer shows on one workload and should
leave the others unchanged:

  exp1-search   paper exp1 (12,100 variables): solvers and the flip kernel
  exp2-compile  paper exp2 (45,060 variables): block assembly, memory, evaluation
  exp1-cli      exp1 through the command line: text export/parse, CSV ingestion
  toy-quantum   16/18-qubit toys of the real model: the statevector simulator

Load is a closed loop: one caller, sequential calls, one child command at
a time.  Every solver call is bounded by ``max_iterations`` with a time
limit far above what it needs, so quality metrics repeat exactly for a
seed and only timings vary.  The number of set-ups and rounds follows
from ``--seconds`` and the workload's nominal round time, never from the
clock, so the operations attempted and failed repeat exactly as well.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from qubofolio import cli, evaluation, market_data, model, qubo, quantum, solvers, toy

import checks
from checks import Ledger
from spans import Tracer

# layer name -> module whose public functions the tracer wraps
MODULES = {
    "toy": toy,
    "model": model,
    "market_data": market_data,
    "qubo": qubo,
    "solvers": solvers,
    "quantum": quantum,
    "evaluation": evaluation,
    "cli": cli,
}

TIME_LIMIT = 600.0  # far above any single solve here; a solve must stop on its budget
CHILD_TIMEOUT = 170.0
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

EXP1 = dict(n=200, T=10, k=3, B=60, C=10, q=0.01)
EXP2 = dict(n=499, T=15, k=3, B=60, C=10, q=0.01)


@dataclass
class Context:
    seed: int
    tracer: Tracer
    ledger: Ledger
    workdir: str
    notes: dict[str, list[float]] = field(default_factory=dict)

    def note(self, key: str, value: float) -> None:
        """Record a work count for per-layer rates; kept only while tracing."""
        if self.tracer.active:
            self.notes.setdefault(key, []).append(float(value))


def _budget(seed: int, iterations: int):
    return solvers.SolveBudget(time_limit=TIME_LIMIT, max_iterations=iterations, seed=seed)


def _cash_energy(spec) -> float:
    """All-cash objective: only cash interest, -rho_c * u * C * T."""
    return -spec.params.rho_c * spec.params.u * spec.C * spec.T


def _check_report(op, qb, report, iterations: int) -> None:
    op.check(checks.stopped_on_budget(report, iterations))
    op.check(checks.reported_energy(report, qubo.energy(qb, report.best)))
    op.check(checks.report_round_trip(report, solvers.SolveReport))


def _metrics_op(ctx: Context, spec, bits, label: str) -> None:
    with ctx.ledger.op(f"economic_metrics({label})") as op:
        m = evaluation.economic_metrics(spec, bits)
        op.check(checks.metrics_consistent(m, model.is_feasible(spec, bits)))


class Workload:
    name = ""
    ROUND_S = 10.0  # nominal CPU seconds of one round; sets the round count
    SETUP_REPEATS = 1  # builds per set-up window, each one a set-up sample
    SETUP_AFTER_LAST = True  # one more set-up window after the last round

    def prepare(self, ctx: Context) -> None:
        """Untimed input generation before the first set-up."""

    def setup(self, ctx: Context):
        raise NotImplementedError

    def round(self, ctx: Context, state) -> dict:
        """One fixed unit of work; returns the quality metrics it produced.

        A ratio is returned as (count, base), e.g. feasible results out of all.
        """
        raise NotImplementedError

    def probe(self, ctx: Context, state) -> dict[str, float]:
        """Traced runs only: extra layer measurements; returns counts by metric name."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- exp1-search ------------------------------------------------------------------


class Exp1Search(Workload):
    name = "exp1-search"
    ROUND_S = 5.0
    SETUP_REPEATS = 6  # ~0.3 s builds
    SA_ITERS = 200_000
    ABS_ITERS = 5
    BNB_NODES = 16
    FLIP_PROBE = 20_000

    def setup(self, ctx):
        spec = toy.synthetic_spec(seed=ctx.seed, **EXP1)
        return spec, qubo.build_qubo(spec)

    def round(self, ctx, state):
        spec, qb = state
        results = []
        quality = {}
        with ctx.ledger.op("solve_sa") as op:
            rep = solvers.solve_sa(qb, _budget(ctx.seed, self.SA_ITERS))
            _check_report(op, qb, rep, self.SA_ITERS)
            quality["sa_energy"] = float(rep.best_energy)
            results.append(("sa", rep.best))
            ctx.note("sa_iterations", rep.iterations)
        with ctx.ledger.op("solve_abs") as op:
            rep = solvers.solve_abs(qb, _budget(ctx.seed, self.ABS_ITERS))
            _check_report(op, qb, rep, self.ABS_ITERS)
            quality["abs_energy"] = float(rep.best_energy)
            results.append(("abs", rep.best))
            ctx.note("abs_iterations", rep.iterations)
            ctx.note("abs_improvements", len(rep.trace))
        with ctx.ledger.op("local_descent") as op:
            cash = toy.cash_only_bits(spec)
            op.check(checks.cash_energy(qubo.energy(qb, cash), _cash_energy(spec)))
            x = solvers.local_descent(qb, cash)
            op.check(checks.local_minimum(qubo.delta_energies(qb, x), qb.penalty_weight))
            results.append(("descent", x))
            ctx.note("descent_flips", int(np.count_nonzero(x != cash)))
        for label, bits in results:
            _metrics_op(ctx, spec, bits, label)
        ctx.note("bnb_attempts", 1)
        with ctx.ledger.op("solve_bnb", expected=(qubo.QuboError,)) as op:
            rep = solvers.solve_bnb(qb, _budget(ctx.seed, self.BNB_NODES))
            exhausted = rep.lower_bound == rep.best_energy
            if rep.iterations != self.BNB_NODES and not exhausted:
                op.check(checks.stopped_on_budget(rep, self.BNB_NODES))
            op.check(checks.reported_energy(rep, qubo.energy(qb, rep.best)))
            ctx.note("bnb_ok", 1)
            ctx.note("bnb_nodes", rep.iterations)
        feasible = [model.is_feasible(spec, bits) for _, bits in results]
        quality["feasible_frac"] = (sum(feasible), len(feasible))
        return quality

    def probe(self, ctx, state):
        """apply_flip rate on a fixed seeded index sequence from the all-cash point."""
        spec, qb = state
        x = toy.cash_only_bits(spec)
        deltas = qubo.delta_energies(qb, x)
        idx = np.random.default_rng(ctx.seed).integers(0, qb.num_vars, size=self.FLIP_PROBE)
        with ctx.ledger.op("apply_flip sequence") as op:
            for i in idx:
                qubo.apply_flip(qb, x, int(i), deltas)
            fresh = qubo.delta_energies(qb, x)
            scale = float(np.abs(fresh).max())
            err = float(np.abs(fresh - deltas).max())
            if err > 1e-9 * scale:
                op.check(f"incremental deltas drifted by {err!r} after {len(idx)} flips")
        return {}


# --- exp2-compile ------------------------------------------------------------------


class Exp2Compile(Workload):
    name = "exp2-compile"

    def setup(self, ctx):
        spec = toy.synthetic_spec(seed=ctx.seed, **EXP2)
        return spec, qubo.build_qubo(spec)

    def round(self, ctx, state):
        spec, qb = state
        cash = toy.cash_only_bits(spec)
        energies = {}
        with ctx.ledger.op("energy(cash)") as op:
            energies["cash"] = qubo.energy(qb, cash)
            op.check(checks.cash_energy(energies["cash"], _cash_energy(spec)))
        with ctx.ledger.op("delta_energies(cash)") as op:
            deltas = qubo.delta_energies(qb, cash)
            i = int(np.argmin(deltas))
            flipped = cash.copy()
            flipped[i] ^= 1
            op.check(checks.close(f"delta of bit {i} vs energy difference", float(deltas[i]),
                                  qubo.energy(qb, flipped) - energies["cash"],
                                  rel=1e-6, abs_tol=1e-6 * qb.penalty_weight))
        x = cash
        with ctx.ledger.op("local_descent") as op:
            x = solvers.local_descent(qb, cash)
            op.check(checks.local_minimum(qubo.delta_energies(qb, x), qb.penalty_weight))
            energies["descent"] = qubo.energy(qb, x)
            ctx.note("descent_flips", int(np.count_nonzero(x != cash)))
        for label, bits in (("cash", cash), ("descent", x)):
            with ctx.ledger.op(f"objective_breakdown({label})") as op:
                breakdown = qubo.objective_breakdown(spec, bits)
                op.check(checks.breakdown_total(breakdown, energies[label]))
        for label, bits in (("cash", cash), ("descent", x)):
            _metrics_op(ctx, spec, bits, label)
        return {"feasible_frac": (int(model.is_feasible(spec, x)), 1)}


# --- exp1-cli ------------------------------------------------------------------------


class Exp1Cli(Workload):
    name = "exp1-cli"
    ROUND_S = 18.0
    SETUP_AFTER_LAST = False  # one build takes longer than the whole 10 s budget
    ABS_ITERS = 5
    COV_WINDOW = 60

    def __init__(self):
        self.paths = {}
        self.spec = None
        self.qubo = None

    def _path(self, ctx, name):
        return os.path.join(ctx.workdir, name)

    def _cli(self, ctx, span: str, args: list[str]) -> tuple[int, str]:
        """Run one CLI command as a child process; returns (exit code, stderr tail)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        err_path = self._path(ctx, "stderr.txt")
        with ctx.tracer.span(span), open(err_path, "w+", encoding="utf-8") as err:
            proc = subprocess.run([sys.executable, "-m", "qubofolio.cli", *args], env=env,
                                  stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=CHILD_TIMEOUT, check=False)
            err.seek(0)
            lines = err.read().strip().splitlines()
        return proc.returncode, (lines[-1] if lines else "")

    def prepare(self, ctx):
        """Price CSV and exp1-sized config from the seed; the in-process reference build."""
        n, T = EXP1["n"], EXP1["T"]
        dates_count = self.COV_WINDOW + T + 1
        rng = np.random.default_rng(ctx.seed)
        rets = rng.normal(loc=0.0002, scale=0.01, size=(n, dates_count - 1))
        close = 100.0 * np.cumprod(np.hstack([np.ones((n, 1)), 1.0 + rets]), axis=1)
        first = np.datetime64("2024-01-01")
        dates = [(first + np.timedelta64(i, "D")).astype(object) for i in range(dates_count)]
        tickers = [f"A{i:03d}" for i in range(n)]
        self.paths = {name: self._path(ctx, name) for name in
                      ("prices.csv", "spec.json", "exp1.qubo", "file.json", "config.json",
                       "metrics.json")}
        toy.write_price_csv(self.paths["prices.csv"], tickers, dates, close)
        doc = {**EXP1, "delta": 0.001, "rho_c": 0.0001, "rho_s": 0.000025, "u": 100_000.0,
               "price_csv": self.paths["prices.csv"], "cov_window": self.COV_WINDOW}
        with open(self.paths["spec.json"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with ctx.ledger.op("reference build") as op:
            self.spec = model.spec_from_json(self.paths["spec.json"])
            self.qubo = qubo.build_qubo(self.spec)
            op.check(checks.cash_energy(qubo.energy(self.qubo, toy.cash_only_bits(self.spec)),
                                        _cash_energy(self.spec)))

    def setup(self, ctx):
        with ctx.ledger.op("cli build") as op:
            code, err = self._cli(ctx, "cli.build", ["build", "--config", self.paths["spec.json"],
                                                     "--out", self.paths["exp1.qubo"]])
            op.check(checks.exit_code("build", code, (cli.EXIT_OK,)))
            if code == cli.EXIT_OK:
                with open(self.paths["exp1.qubo"], encoding="utf-8") as fh:
                    header = fh.readline().split()
                if header[:3] != ["p", "qubo", str(self.qubo.num_vars)]:
                    op.check(f"build wrote header {header!r}")
        return None

    def _check_solution(self, op, path: str) -> float:
        with open(path, encoding="utf-8") as fh:
            rep = solvers.SolveReport.from_json(json.load(fh))
        _check_report(op, self.qubo, rep, self.ABS_ITERS)
        return float(rep.best_energy)

    def round(self, ctx, state):
        quality = {}
        solve = ["solve", "--solver", "abs", "--max-iterations", str(self.ABS_ITERS),
                 "--time-limit", str(TIME_LIMIT), "--seed", str(ctx.seed)]
        with ctx.ledger.op("cli solve --qubo") as op:
            code, err = self._cli(ctx, "cli.solve_file", [*solve, "--qubo", self.paths["exp1.qubo"],
                                                          "--out", self.paths["file.json"]])
            ctx.note("solve_file_exit", code)
            op.check(checks.exit_code("solve --qubo", code, (cli.EXIT_OK, cli.EXIT_CAP)))
            if code == cli.EXIT_OK:
                self._check_solution(op, self.paths["file.json"])
            elif code == cli.EXIT_CAP:
                op.fail(f"exit {code}: {err}")
        with ctx.ledger.op("cli solve --config") as op:
            code, err = self._cli(ctx, "cli.solve_config",
                                  [*solve, "--config", self.paths["spec.json"],
                                   "--out", self.paths["config.json"]])
            op.check(checks.exit_code("solve --config", code, (cli.EXIT_OK,)))
            if code == cli.EXIT_OK:
                quality["abs_energy"] = self._check_solution(op, self.paths["config.json"])
        with ctx.ledger.op("cli report") as op:
            code, err = self._cli(ctx, "cli.report",
                                  ["report", "--solution", self.paths["config.json"],
                                   "--config", self.paths["spec.json"],
                                   "--out", self.paths["metrics.json"]])
            op.check(checks.exit_code("report", code, (cli.EXIT_OK,)))
            if code == cli.EXIT_OK:
                with open(self.paths["config.json"], encoding="utf-8") as fh:
                    rep = solvers.SolveReport.from_json(json.load(fh))
                with open(self.paths["metrics.json"], encoding="utf-8") as fh:
                    doc = json.load(fh)
                feasible = model.is_feasible(self.spec, rep.best)
                quality["feasible_frac"] = (int(feasible), 1)
                if doc["feasible"] != feasible:
                    op.check(f"report says feasible={doc['feasible']}, is_feasible={feasible}")
                op.check(checks.breakdown_total(doc["objective_breakdown"], rep.best_energy))
        return quality

    def probe(self, ctx, state):
        """CLI start-up, and the export layer the build and file solve run in the child."""
        for _ in range(3):
            with ctx.ledger.op("cli --help") as op:
                code, _tail = self._cli(ctx, "cli.startup", ["--help"])
                op.check(checks.exit_code("--help", code, (cli.EXIT_OK,)))
        out = {}
        path = self._path(ctx, "probe.qubo")
        with ctx.ledger.op("export round trip") as op:
            sparse = qubo.to_sparse(self.qubo)
            qubo.write_qubo_text(sparse, path)
            out["qubo.sparse_terms"] = float(sparse.num_terms)
            out["qubo.text_bytes"] = float(os.path.getsize(path))
            del sparse
            parsed = qubo.read_qubo_text(path)
            os.remove(path)
            if parsed.num_terms != out["qubo.sparse_terms"]:
                op.check(f"read {parsed.num_terms} terms, wrote {out['qubo.sparse_terms']:.0f}")
            ising = qubo.to_ising(parsed)
            if ising.num_spins != self.qubo.num_vars:
                op.check(f"to_ising gave {ising.num_spins} spins")
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --- toy-quantum ---------------------------------------------------------------------


class ToyQuantum(Workload):
    name = "toy-quantum"
    SETUP_REPEATS = 1000  # ~1.5 ms builds
    SCHEDULE = dict(total_time=5.0, dt=0.05)
    STEPS = quantum.AnnealSchedule(**SCHEDULE).steps
    QAOA = dict(layers=2, restarts=2, maxiter=20)
    BNB_NODES = 100_000

    def setup(self, ctx):
        out = {}
        for size, B in ((16, 1), (18, 2)):
            spec = toy.toy_spec(n=3, T=2, B=B, seed=ctx.seed)
            qb = qubo.build_qubo(spec)
            ising, scale = quantum.normalize_ising(qubo.to_ising(qb))
            out[size] = (spec, qb, ising, scale)
        return out

    def round(self, ctx, state):
        quality = {}
        exact = {}
        for size in (16, 18):
            spec, qb, _, _ = state[size]
            with ctx.ledger.op(f"solve_exact({size})") as op:
                rep = solvers.solve_exact(qb)
                op.check(checks.reported_energy(rep, qubo.energy(qb, rep.best)))
                exact[size] = float(rep.best_energy)
                ctx.note("exact_states", rep.iterations)
            ctx.note("bnb_attempts", 1)
            with ctx.ledger.op(f"solve_bnb({size})") as op:
                bnb = solvers.solve_bnb(qb, _budget(ctx.seed, self.BNB_NODES))
                op.check(checks.exact_matches_bnb(rep, bnb))
                ctx.note("bnb_ok", 1)
                ctx.note("bnb_nodes", bnb.iterations)
        _, _, ising18, scale18 = state[18]
        with ctx.ledger.op("diagonalize_cost(18)") as op:
            cost = quantum.diagonalize_cost(ising18)
            op.check(checks.ground_matches_exact(cost.ground_energy, scale18, exact[18]))
        with ctx.ledger.op("anneal_run(18)") as op:
            doc = quantum.anneal_run(ising18, quantum.AnnealSchedule(**self.SCHEDULE),
                                     seed=ctx.seed)
            op.check(checks.quantum_doc(doc, cost.ground_energy))
            quality["anneal_ground_prob"] = doc["ground_probability"]
        spec16, _, ising16, scale16 = state[16]
        with ctx.ledger.op("qaoa_optimize(16)") as op:
            params, rep = quantum.qaoa_optimize(ising16, seed=ctx.seed, **self.QAOA)
            op.check(checks.ground_matches_exact(rep["ground_energy"], scale16, exact[16]))
            quality["qaoa_expectation"] = rep["expectation"]
        with ctx.ledger.op("qaoa_run(16)") as op:
            doc = quantum.qaoa_run(ising16, params, seed=ctx.seed)
            op.check(checks.quantum_doc(doc, rep["ground_energy"]))
            op.check(checks.close("qaoa_run vs qaoa_optimize expectation", doc["expectation"],
                                  rep["expectation"], rel=1e-9, abs_tol=1e-12))
        with ctx.ledger.op("sweep_q(16)") as op:
            table = evaluation.sweep_q(spec16, list(evaluation.DEFAULT_Q_GRID), "exact")
            ctx.note("sweep_rows_ok", table.succeeded)
            for row in table.rows:
                if row.failed:
                    op.check(f"sweep row q={row.q} failed: {row.error}")
                elif row.gap_pct is not None and row.gap_pct > 1e-7:
                    op.check(f"exact sweep row q={row.q} has gap {row.gap_pct!r} %")
        return quality


WORKLOADS = {w.name: w for w in (Exp1Search, Exp2Compile, Exp1Cli, ToyQuantum)}


# --- measurement loop ---------------------------------------------------------------


@dataclass
class Result:
    workload: str
    seed: int
    setup_s: list[float]  # CPU seconds of each set-up
    work_s: list[float]  # CPU seconds of each untraced round
    traced_work_s: list[float]
    setup_wall_s: list[float]  # wall-clock seconds of the same set-ups and rounds
    work_wall_s: list[float]
    peak_rss_mb: float
    quality: dict[str, float]
    ledger: Ledger
    tracer: Tracer
    notes: dict[str, list[float]]
    probe: dict[str, float]


def cpu_seconds() -> float:
    """CPU seconds (user + system) of this process and its waited-for children.

    On a shared virtual machine this leaves out the time the hypervisor
    runs other guests instead (steal), which varies from run to run and
    which no change to the program can move.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _timed(fn, *args):
    """(result, CPU seconds, wall-clock seconds) of one call."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    out = fn(*args)
    return out, cpu_seconds() - c0, time.perf_counter() - t0


def rounds_for(name: str, seconds: float) -> int:
    """Untraced rounds in a run of ``seconds``: a count, not a clock reading."""
    return max(1, round(seconds / WORKLOADS[name].ROUND_S))


def run(name: str, seed: int, seconds: float, traced: bool, workdir: str) -> Result:
    """Set-up windows and rounds, their counts fixed by ``seconds``.

    A set-up window builds the instance SETUP_REPEATS times, releasing
    each one before building the next.  One window runs before the first
    round and one after every round (after the last only when
    SETUP_AFTER_LAST), so set-up and round samples both spread over the
    whole run.  Traced: one set-up, then untraced and traced rounds
    alternate so the tracing overhead is measured in one process, and the
    workload's probe runs at the end.
    """
    wl = WORKLOADS[name]()
    tracer = Tracer(f"{name}-seed{seed}-pid{os.getpid()}-{time.time_ns()}")
    ledger = Ledger()
    ctx = Context(seed, tracer, ledger, workdir)
    setup_s, setup_wall, works, work_wall, traced_works, rounds_quality = [], [], [], [], [], []
    rounds = rounds_for(name, seconds)

    def traced_block(fn, span, *args):
        if not traced:
            return fn(*args)
        with tracer.installed(MODULES), tracer.span(span):
            return fn(*args)

    def set_up():
        state = None
        for _ in range(1 if traced else wl.SETUP_REPEATS):
            state = None  # release each instance before building the next
            state, cpu, wall = traced_block(_timed, "bench.setup", wl.setup, ctx)
            setup_s.append(cpu)
            setup_wall.append(wall)
        return state

    traced_block(wl.prepare, "bench.prepare", ctx)
    state = set_up()
    for r in range(max(1, rounds // 2) if traced else rounds):
        quality, cpu, wall = _timed(wl.round, ctx, state)
        works.append(cpu)
        work_wall.append(wall)
        rounds_quality.append(quality)
        if traced:
            quality, cpu, _ = traced_block(_timed, "bench.round", wl.round, ctx, state)
            traced_works.append(cpu)
            rounds_quality.append(quality)
        elif r < rounds - 1 or wl.SETUP_AFTER_LAST:
            state = None
            state = set_up()
    probe = traced_block(wl.probe, "bench.probe", ctx, state) if traced else {}

    with ledger.op("quality repeats across rounds") as op:
        for other in rounds_quality[1:]:
            if other != rounds_quality[0]:
                op.check(f"round quality {other} != first round {rounds_quality[0]}")
                break
    return Result(name, seed, setup_s, works, traced_works, setup_wall, work_wall,
                  wl.peak_rss_mb(), rounds_quality[0], ledger, tracer, ctx.notes, probe)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
