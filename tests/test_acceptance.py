"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints ``[criterion N] <name>: PASS`` (or FAIL) and asserts the
stated tolerance.  Ground truths come from independent oracles: exhaustive
enumeration, exact diagonalization, and closed-form arithmetic.
"""
import resource
import time

import numpy as np
import pytest

from qubofolio.evaluation import DEFAULT_Q_GRID, gap, sweep_q
from qubofolio.model import VariableLayout
from qubofolio.qubo import (
    apply_flip,
    build_qubo,
    delta_energies,
    dense_energies,
    energy,
    objective_breakdown,
    to_dense,
    to_ising,
    to_sparse,
)
from qubofolio.quantum import AnnealSchedule, anneal_run, diagonalize_cost, qaoa_optimize, qaoa_run
from qubofolio.solvers import SolveBudget, solve_abs, solve_bnb, solve_exact
from qubofolio.toy import cash_only_bits, random_sparse_qubo, synthetic_spec, toy_spec


def _verdict(number, name, ok):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def exp1_spec():
    return synthetic_spec(n=200, T=10, k=3, B=60, C=10, q=0.01, seed=0)


@pytest.fixture(scope="module")
def exp2_spec():
    return synthetic_spec(n=499, T=15, k=3, B=60, C=10, q=0.01, seed=0)


def test_criterion_01_variable_counts_and_build_budget(exp2_spec):
    counts_ok = (VariableLayout(n=200, T=10, k=3, B=60, C=10).total == 12_100
                 and VariableLayout(n=499, T=15, k=3, B=60, C=10).total == 45_060)
    start = time.monotonic()
    qubo = build_qubo(exp2_spec)
    elapsed = time.monotonic() - start
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 / 1024
    ok = (counts_ok and qubo.num_vars == 45_060
          and elapsed < 60.0 and peak_gb < 4.0)
    _verdict(1, f"variable counts 12100/45060, build {elapsed:.1f}s < 60s, "
                f"peak {peak_gb:.2f}GB < 4GB", ok)


def test_criterion_02_cash_only_objective(exp1_spec, exp2_spec):
    # tolerance: 1e-6 relative against the closed form -rho_c * u * C * T
    ok = True
    for spec, expected in ((exp1_spec, -1_000.0), (exp2_spec, -1_500.0)):
        value = energy(build_qubo(spec), cash_only_bits(spec))
        ok = ok and abs(value - expected) <= 1e-6 * abs(expected)
    _verdict(2, "all-cash objective -1000 (T=10) and -1500 (T=15), rel 1e-6", ok)


def test_criterion_03_gap_formula():
    # tolerances: +/-0.001 percentage points and +/-1 percentage point
    ok = (abs(gap(-953_432, -988_003) - 3.626) <= 0.001
          and abs(gap(-1_000, -108_821) - 10_782) <= 1.0)
    _verdict(3, "gap(-953432,-988003)=3.626%+/-0.001, "
                "gap(-1000,-108821)=10782%+/-1", ok)


def test_criterion_04_qubo_ising_equivalence():
    # tolerance: 1e-12 absolute on every bitstring of 100 seeded instances
    worst = 0.0
    for i in range(100):
        nv = 3 + (i % 10)  # 3..12 variables
        sq = random_sparse_qubo(nv, seed=4000 + i)
        A, off = to_dense(sq)
        ising = to_ising(sq)
        idx = np.arange(1 << nv, dtype=np.uint64)
        X = ((idx[:, None] >> np.arange(nv, dtype=np.uint64)) & 1).astype(float)
        qubo_vals = dense_energies(A, off, X)
        spins = 2.0 * X - 1.0
        ising_vals = spins @ ising.h + ising.offset
        for r, c, v in zip(ising.j_rows, ising.j_cols, ising.j_vals):
            ising_vals += v * spins[:, r] * spins[:, c]
        worst = max(worst, float(np.abs(ising_vals - qubo_vals).max()))
    _verdict(4, f"Ising(2x-1) == QUBO(x) on all bitstrings, "
                f"max |diff| {worst:.2e} <= 1e-12", worst <= 1e-12)


def test_criterion_05_solver_oracle_agreement():
    # bnb must equal exact on all 100; abs on >= 95; bounds always valid
    bnb_hits = abs_hits = 0
    bounds_ok = True
    for i in range(100):
        nv = 8 + (i % 11)  # 8..18 variables
        sq = random_sparse_qubo(nv, seed=5000 + i)
        exact = solve_exact(sq)
        bnb = solve_bnb(sq, SolveBudget(time_limit=30))
        bnb_hits += bnb.best_energy == exact.best_energy
        bounds_ok = bounds_ok and bnb.lower_bound <= exact.best_energy
        approx = solve_abs(sq, SolveBudget(time_limit=5, max_iterations=2000,
                                           seed=i, target_energy=exact.best_energy))
        abs_hits += approx.best_energy == exact.best_energy
    ok = bnb_hits == 100 and abs_hits >= 95 and bounds_ok
    _verdict(5, f"bnb exact on {bnb_hits}/100, abs exact on {abs_hits}/100 "
                f"(need >=95), bounds valid={bounds_ok}", ok)


def test_criterion_06_penalty_correctness():
    # QUBO optimum with derived P equals constrained optimum (rel 1e-9),
    # penalty component exactly zero at the optimum
    from qubofolio.model import is_feasible

    ok = True
    for i in range(50):
        n = 1 + (i % 2)
        T = 1 + ((i // 2) % 2)
        q = (0.0, 1e-5, 1e-4, 1e-3)[i % 4]
        spec = toy_spec(n=n, T=T, q=q, seed=i)
        nv = spec.layout.total
        A, off = to_dense(to_sparse(build_qubo(spec)))
        An, offn = to_dense(to_sparse(build_qubo(spec, include_penalty=False)))
        idx = np.arange(1 << nv, dtype=np.uint64)
        X = ((idx[:, None] >> np.arange(nv, dtype=np.uint64)) & 1).astype(np.int8)
        penalized = dense_energies(A, off, X)
        plain = dense_energies(An, offn, X)
        j_qubo = int(np.argmin(penalized))
        feasible = np.array([is_feasible(spec, row) for row in X])
        j_bqp = int(np.flatnonzero(feasible)[np.argmin(plain[feasible])])
        close = abs(plain[j_qubo] - plain[j_bqp]) <= 1e-9 * max(1.0, abs(plain[j_bqp]))
        zero_pen = objective_breakdown(spec, X[j_qubo])["penalty"] == 0.0
        ok = ok and close and zero_pen
    _verdict(6, "QUBO optimum = constrained BQP optimum (rel 1e-9), "
                "penalty component 0, on 50 toy instances", ok)


def test_criterion_07_high_q_is_all_cash():
    ok = True
    for seed in range(10):
        for n in (2, 3):
            spec = toy_spec(n=n, T=2, q=1e-2, seed=seed)
            report = solve_exact(to_sparse(build_qubo(spec)))
            ok = ok and np.array_equal(report.best, cash_only_bits(spec))
    _verdict(7, "exact optimum at q=1e-2 is the all-cash assignment "
                "on 20 toy instances", ok)


def test_criterion_08_scalarization_monotonicity():
    # risk and profit columns non-increasing in q, slack 1e-9
    ok = True
    for seed in (1, 3, 5):
        spec = toy_spec(n=2, T=2, seed=seed)
        table = sweep_q(spec, DEFAULT_Q_GRID, "exact", SolveBudget(time_limit=60))
        risks = [row.risk_term for row in table.rows]
        profits = [row.profit for row in table.rows]
        ok = ok and all(a >= b - 1e-9 for a, b in zip(risks, risks[1:]))
        ok = ok and all(a >= b - 1e-9 for a, b in zip(profits, profits[1:]))
    _verdict(8, "exact sweep over the eight q values: risk and profit "
                "columns non-increasing", ok)


def test_criterion_09_quantum_simulator():
    # thresholds: 2-qubit anneal >= 0.99, 8-qubit anneal >= 0.5,
    # qaoa p=3 within 5% of ground in >= 80% of 25 trials, norm drift <= 1e-9
    two = to_ising(random_sparse_qubo(2, seed=3))
    gp2 = anneal_run(two, AnnealSchedule(total_time=50, dt=0.01),
                     shots=0)["ground_probability"]

    eight = to_ising(random_sparse_qubo(8, seed=2))
    doc8 = anneal_run(eight, AnnealSchedule(total_time=100, dt=0.02), shots=0)
    gp8 = doc8["ground_probability"]

    cost8 = diagonalize_cost(eight)
    ground = cost8.ground_energy
    hits = 0
    norm_ok = True
    for trial in range(25):
        params, _ = qaoa_optimize(eight, layers=3, restarts=2,
                                  seed=trial, maxiter=150)
        doc = qaoa_run(eight, params, shots=1024, seed=trial)
        best = min(cost8.energies[int(b[::-1], 2)] for b in doc["samples_hist"])
        hits += abs(best - ground) <= 0.05 * abs(ground)
        # every probability mass must still sum to one
        from qubofolio.quantum import _qaoa_state

        state, _ = _qaoa_state(cost8, zip(params.gammas, params.betas))
        probs = np.abs(state) ** 2
        norm_ok = norm_ok and abs(float(probs.sum()) - 1.0) <= 1e-9
    ok = gp2 >= 0.99 and gp8 >= 0.5 and hits >= 20 and norm_ok
    _verdict(9, f"anneal gp2={gp2:.3f}>=0.99, gp8={gp8:.3f}>=0.5, "
                f"qaoa hits {hits}/25>=20, norm preserved", ok)


def test_criterion_10_delta_evaluation_exactness(exp1_spec):
    # tolerance: 1e-9 relative to the delta-vector scale over 10^4 flips
    qubo = build_qubo(exp1_spec)
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, qubo.num_vars).astype(np.int8)
    deltas = delta_energies(qubo, bits)
    worst = 0.0
    for flip in range(10_000):
        i = int(rng.integers(qubo.num_vars))
        apply_flip(qubo, bits, i, deltas)
        if (flip + 1) % 250 == 0:
            fresh = delta_energies(qubo, bits)
            scale = max(1.0, float(np.abs(fresh).max()))
            worst = max(worst, float(np.abs(deltas - fresh).max()) / scale)
    ok = worst <= 1e-9
    _verdict(10, f"maintained deltas match recomputation over 1e4 flips, "
                 f"worst rel err {worst:.2e} <= 1e-9", ok)
