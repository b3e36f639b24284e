"""Metric names and units, and the environment record of a run.

END_TO_END and PER_LAYER are the metrics ``run.py`` prints as its last
line (tracing off and on respectively); they are the ones BENCHMARK.json
declares.  DETAIL holds the end-to-end quality metrics that apply to only
some workloads; they are printed on the line before, by name and unit.
"""
from __future__ import annotations

import os
import platform
import re
import sys

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# name -> (unit, better)
# Times are CPU seconds of the benchmark process and its child commands.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "work_cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

DETAIL = {
    "abs_energy": ("energy", "lower"),
    "sa_energy": ("energy", "lower"),
    "feasible_frac": ("ratio", "higher"),
    "anneal_ground_prob": ("probability", "higher"),
    "qaoa_expectation": ("energy", "lower"),
    "fail_rate": ("ratio", "lower"),
    "setup_wall_s": ("s", "lower"),  # wall-clock medians, for reference only
    "work_wall_s": ("s", "lower"),
}

# The five quality metrics: exact repeats for a fixed seed.
QUALITY = ("abs_energy", "sa_energy", "feasible_frac", "anneal_ground_prob", "qaoa_expectation")

PER_LAYER = {
    "toy.synthetic_spec_s": ("s", "lower"),
    "model.spec_from_json_s": ("s", "lower"),
    "market_data.load_prices_s": ("s", "lower"),
    "market_data.estimate_covariance_s": ("s", "lower"),
    "qubo.build_qubo_s": ("s", "lower"),
    "qubo.build_qubo_rss_mb": ("MB", "lower"),
    "qubo.apply_flip_per_s": ("1/s", "higher"),
    "qubo.delta_energies_s": ("s", "lower"),
    "qubo.energy_s": ("s", "lower"),
    "qubo.step_components_s": ("s", "lower"),
    "qubo.to_sparse_s": ("s", "lower"),
    "qubo.sparse_terms": ("count", "lower"),
    "qubo.write_qubo_text_s": ("s", "lower"),
    "qubo.text_bytes": ("bytes", "lower"),
    "qubo.read_qubo_text_s": ("s", "lower"),
    "qubo.to_ising_s": ("s", "lower"),
    "solvers.sa_s": ("s", "lower"),
    "solvers.sa_iters_per_s": ("1/s", "higher"),
    "solvers.abs_s": ("s", "lower"),
    "solvers.abs_iters_per_s": ("1/s", "higher"),
    "solvers.abs_improve_ratio": ("ratio", "higher"),
    "solvers.descent_s": ("s", "lower"),
    "solvers.descent_flips": ("count", "higher"),
    "solvers.exact_states_per_s": ("1/s", "higher"),
    "solvers.bnb_nodes_per_s": ("1/s", "higher"),
    "solvers.bnb_failed": ("count", "lower"),
    "quantum.diagonalize_cost_s": ("s", "lower"),
    "quantum.anneal_ms_per_step": ("ms", "lower"),
    "quantum.qaoa_optimize_s": ("s", "lower"),
    "evaluation.economic_metrics_s": ("s", "lower"),
    "evaluation.sweep_q_s": ("s", "lower"),
    "evaluation.sweep_rows_ok": ("count", "higher"),
    "cli.startup_s": ("s", "lower"),
    "cli.build_s": ("s", "lower"),
    "cli.solve_file_s": ("s", "lower"),
    "cli.solve_file_exit": ("code", "lower"),
    "cli.solve_config_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
}

# Self time per layer (span duration minus child spans) per traced round.
LAYERS = ("toy", "model", "market_data", "qubo", "solvers", "quantum", "evaluation",
          "cli", "bench")
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
PER_LAYER["trace.overhead_s"] = ("s", "lower")


def _cache_size(index: int) -> str | None:
    path = f"/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Hardware and software the run measured on; read-only probes."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "machine_settings": "unchanged: the benchmark only sets BLAS thread "
                            "variables for its own processes",
    }
