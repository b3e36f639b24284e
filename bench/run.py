"""Benchmark entry point.

    python3 bench/run.py --workload exp1-search --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all            # every workload, tracing off

One workload runs in this process (a fresh process per run, because peak
RSS never falls).  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics from spans recorded around every call the
benchmark makes into qubofolio, plus each layer's self time and the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it hold the environment record and the quality metrics.
The exit code is 0 only when every correctness check passed.  With
``--workload all`` each workload runs in its own child process, and a
status line follows the output of each.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, "work")

DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # not used while the benchmark was tuned
WORKLOAD_NAMES = ("exp1-search", "exp2-compile", "exp1-cli", "toy-quantum")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="run rounds until they add up to this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def single_blas_thread() -> None:
    """One BLAS thread in this process and its children.

    The load is one sequential caller.  With a second BLAS thread on a
    2-core shared VM, a BLAS call can wait for a sibling thread the
    hypervisor has descheduled, and the spread of the round time
    doubled (exp2-compile 0.16 against 0.07, toy-quantum 0.08 against
    0.04 over five seeds).
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def fmt(value: float) -> str:
    return f"{value:.6g}"


def base_text(name: str, bases: dict) -> str:
    """The count and base of a ratio metric, e.g. '  (1 failed / 8 attempted)'."""
    if name not in bases:
        return ""
    k, n = bases[name]
    what = ("failed", "attempted") if name == "fail_rate" else ("feasible", "results")
    return f"  ({k} {what[0]} / {n} {what[1]})"


# --- one workload -------------------------------------------------------------------


def per_layer_metrics(res) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run; 0 where a layer did no work."""
    from metrics import LAYERS, PER_LAYER
    from spans import layer_self_times
    from workloads import ToyQuantum, median

    spans = res.tracer.spans
    by_id = {s.id: s for s in spans}

    def direct(name):
        """Spans of calls the benchmark made itself (parent is a bench span)."""
        return [s for s in spans if s.name == name and s.parent is not None
                and by_id[s.parent].name.startswith("bench.")]

    def dur(name, only_direct=True):
        chosen = direct(name) if only_direct else [s for s in spans if s.name == name]
        return [s.duration for s in chosen]

    def rate(count_key, name):
        total = sum(dur(name))
        return sum(res.notes.get(count_key, [])) / total if total > 0 else 0.0

    notes = res.notes
    traced_rounds = max(len(res.traced_work_s), 1)
    m = {
        "toy.synthetic_spec_s": median(dur("toy.synthetic_spec")),
        "model.spec_from_json_s": median(dur("model.spec_from_json")),
        "market_data.load_prices_s": median(dur("market_data.load_prices", False)),
        "market_data.estimate_covariance_s": median(dur("market_data.estimate_covariance", False)),
        "qubo.build_qubo_s": median(dur("qubo.build_qubo")),
        "qubo.build_qubo_rss_mb": median([s.attrs["rss_growth_mb"]
                                          for s in direct("qubo.build_qubo")]),
        "qubo.apply_flip_per_s": (len(dur("qubo.apply_flip")) / sum(dur("qubo.apply_flip"))
                                  if dur("qubo.apply_flip") else 0.0),
        "qubo.delta_energies_s": median(dur("qubo.delta_energies")),
        "qubo.energy_s": median(dur("qubo.energy")),
        "qubo.step_components_s": median(dur("qubo.step_components", False)),
        "qubo.to_sparse_s": median(dur("qubo.to_sparse")),
        "qubo.sparse_terms": res.probe.get("qubo.sparse_terms", 0.0),
        "qubo.write_qubo_text_s": median(dur("qubo.write_qubo_text")),
        "qubo.text_bytes": res.probe.get("qubo.text_bytes", 0.0),
        "qubo.read_qubo_text_s": median(dur("qubo.read_qubo_text")),
        "qubo.to_ising_s": median(dur("qubo.to_ising")),
        "solvers.sa_s": median(dur("solvers.solve_sa")),
        "solvers.sa_iters_per_s": rate("sa_iterations", "solvers.solve_sa"),
        "solvers.abs_s": median(dur("solvers.solve_abs")),
        "solvers.abs_iters_per_s": rate("abs_iterations", "solvers.solve_abs"),
        "solvers.abs_improve_ratio": (sum(notes.get("abs_improvements", []))
                                      / sum(notes["abs_iterations"])
                                      if notes.get("abs_iterations") else 0.0),
        "solvers.descent_s": median(dur("solvers.local_descent")),
        "solvers.descent_flips": median(notes.get("descent_flips", [])),
        "solvers.exact_states_per_s": rate("exact_states", "solvers.solve_exact"),
        "solvers.bnb_nodes_per_s": rate("bnb_nodes", "solvers.solve_bnb"),
        "solvers.bnb_failed": (sum(notes.get("bnb_attempts", [])) - sum(notes.get("bnb_ok", [])))
                              / traced_rounds,
        "quantum.diagonalize_cost_s": median(dur("quantum.diagonalize_cost")),
        "quantum.anneal_ms_per_step": median(dur("quantum.anneal_run")) * 1000.0
                                      / ToyQuantum.STEPS,
        "quantum.qaoa_optimize_s": median(dur("quantum.qaoa_optimize")),
        "evaluation.economic_metrics_s": median(dur("evaluation.economic_metrics")),
        "evaluation.sweep_q_s": median(dur("evaluation.sweep_q")),
        "evaluation.sweep_rows_ok": median(notes.get("sweep_rows_ok", [])),
        "cli.startup_s": median(dur("cli.startup")),
        "cli.build_s": median(dur("cli.build")),
        "cli.solve_file_s": median(dur("cli.solve_file")),
        "cli.solve_file_exit": median(notes.get("solve_file_exit", [])),
        "cli.solve_config_s": median(dur("cli.solve_config")),
        "cli.report_s": median(dur("cli.report")),
    }
    round_ids = {s.id for s in spans if s.name == "bench.round"}

    def in_round(s):
        while s.parent is not None:
            if s.parent in round_ids:
                return True
            s = by_id[s.parent]
        return s.id in round_ids

    per_round = layer_self_times([s for s in spans if in_round(s)])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_round.get(layer, (0, 0.0))[1] / traced_rounds
    m["trace.overhead_s"] = median(res.traced_work_s) - median(res.work_s)
    missing = set(PER_LAYER) ^ set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics out of sync with the registry: {sorted(missing)}")
    return m


def print_trace_tables(res) -> None:
    from spans import layer_self_times

    spans = res.tracer.spans
    print("self time by layer over the whole traced run (set-up, traced rounds, probe):")
    print(f"  {'layer':<12} {'spans':>7} {'self_s':>10}")
    for layer, (calls, total) in sorted(layer_self_times(spans).items()):
        print(f"  {layer:<12} {calls:>7} {total:>10.4f}")


def run_one(args) -> int:
    from metrics import DETAIL, END_TO_END, PER_LAYER, environment
    from workloads import median, run

    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = res.ledger
    print(f"workload {res.workload}  seed {res.seed}  trace {args.trace}  "
          f"rounds {len(res.work_s)}  set-ups {len(res.setup_s)}")
    for op, reason in ledger.failures:
        print(f"failed op: {op}: {reason}")
    for op, problem in ledger.check_failures:
        print(f"CHECK FAILED: {op}: {problem}")
    bases = {name: v for name, v in res.quality.items() if isinstance(v, tuple)}
    bases["fail_rate"] = (ledger.failed, ledger.attempted)
    detail = {name: v for name, v in res.quality.items() if name not in bases}
    detail.update({name: k / n for name, (k, n) in bases.items()})
    detail["setup_wall_s"] = median(res.setup_wall_s)
    detail["work_wall_s"] = median(res.work_wall_s)
    print("detail metrics:")
    for name, value in detail.items():
        print(f"  {name:<20} {fmt(value):>14} {DETAIL[name][0]}{base_text(name, bases)}")

    if args.trace:
        metrics = per_layer_metrics(res)
        registry = PER_LAYER
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{res.tracer.run_id}.json")
        res.tracer.dump(path)
        print_trace_tables(res)
        print(f"tracing overhead: traced work_cpu_s {fmt(median(res.traced_work_s))} s - "
              f"untraced work_cpu_s {fmt(median(res.work_s))} s = "
              f"{fmt(metrics['trace.overhead_s'])} s")
        print(f"spans written to {os.path.relpath(path, ROOT)} ({len(res.tracer.spans)} spans)")
    else:
        metrics = {"setup_s": median(res.setup_s), "work_cpu_s": median(res.work_s),
                   "peak_rss_mb": res.peak_rss_mb}
        registry = END_TO_END
    print("metrics:")
    for name, value in metrics.items():
        print(f"  {name:<36} {fmt(value):>14} {registry[name][0]}")
    if args.trace:
        zero = [name for name, value in metrics.items() if value == 0]
        print(f"reading 0 (layer not called by this workload, or no work counted): "
              f"{', '.join(zero)}")
    print(json.dumps({"env": environment()}))
    print(json.dumps({"detail": detail, "bases": bases, "workload": res.workload, "seed": res.seed,
                      "setup_samples": res.setup_s, "work_samples": res.work_s,
                      "failures": ledger.failures, "check_failures": ledger.check_failures}))
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": registry[k][0]} for k, v in metrics.items()},
    }))
    return 0 if ledger.correct else 1


# --- every workload -----------------------------------------------------------------


def parse_output(stdout: str) -> tuple[dict | None, dict | None]:
    """(final result, detail) JSON objects from one run's standard output."""
    final = detail = None
    for line in stdout.splitlines():
        if line.startswith("{"):
            doc = json.loads(line)
            if "detail" in doc:
                detail = doc
            elif "correct" in doc:
                final = doc
    return final, detail


def run_all(args) -> int:
    """Each workload in its own child process; its output, then one status line."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        final, _ = parse_output(proc.stdout)
        if proc.returncode != 0 or final is None or not final["correct"]:
            status = 1
        results[name] = final
        print(f"== {name}: exit {proc.returncode}, "
              + (f"correct={final['correct']}" if final else "no result") + "\n")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qubofolio", "__init__.py")):
        print(f"error: qubofolio sources not found under {SRC}", file=sys.stderr)
        return 2
    single_blas_thread()  # before numpy is imported anywhere in this process
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
