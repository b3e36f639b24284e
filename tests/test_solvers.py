"""Classical solvers against enumeration oracles, plus determinism and
report serialization.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofolio.qubo import (
    QuboError,
    _as_block,
    apply_flip,
    build_qubo,
    delta_energies,
    dense_energies,
    energy,
    to_dense,
)
from qubofolio.solvers import (
    EXACT_CAP,
    PoolConfig,
    SolveBudget,
    SolveReport,
    local_descent,
    rle_decode,
    rle_encode,
    solve_abs,
    solve_bnb,
    solve_exact,
    solve_sa,
)
from qubofolio.toy import random_sparse_qubo, toy_spec


def brute_force_minimum(sq):
    """Independent enumeration oracle over all bitstrings."""
    A, off = to_dense(sq)
    n = sq.num_vars
    best_e, best_x = np.inf, None
    for z in range(1 << n):
        x = np.array([(z >> i) & 1 for i in range(n)], dtype=float)
        e = float(x @ A @ x) + off
        if e < best_e:
            best_e, best_x = e, x.astype(np.int8)
    return best_e, best_x


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
def test_rle_roundtrip(bits):
    arr = np.array(bits, dtype=np.int8)
    assert np.array_equal(rle_decode(rle_encode(arr)), arr)


def test_rle_encoding_format():
    assert rle_encode([0, 0, 0, 1, 1, 0]) == "0x3 1x2 0x1"
    assert rle_encode([]) == ""


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_solve_exact_matches_brute_force(seed):
    sq = random_sparse_qubo(8, seed=seed)
    oracle_e, _ = brute_force_minimum(sq)
    report = solve_exact(sq)
    assert report.best_energy == pytest.approx(oracle_e, rel=1e-12)
    assert report.lower_bound == report.best_energy
    A, off = to_dense(sq)
    assert float(dense_energies(A, off, report.best[None, :])[0]) == report.best_energy


def test_solve_exact_enforces_cap():
    sq = random_sparse_qubo(EXACT_CAP + 1, seed=0)
    with pytest.raises(QuboError, match="at most"):
        solve_exact(sq)


@pytest.mark.parametrize("seed", [5, 6, 7, 8, 9])
def test_bnb_exhausted_equals_exact(seed):
    sq = random_sparse_qubo(14, seed=seed)
    exact = solve_exact(sq)
    bnb = solve_bnb(sq, SolveBudget(time_limit=60))
    assert bnb.best_energy == exact.best_energy
    assert bnb.lower_bound == bnb.best_energy


def test_bnb_lower_bound_is_valid_under_budget():
    sq = random_sparse_qubo(20, seed=4)
    exact_e = solve_exact(sq).best_energy
    # one node only: bound must still sit at or below the optimum
    bnb = solve_bnb(sq, SolveBudget(time_limit=60, max_iterations=1))
    assert bnb.lower_bound <= exact_e
    assert bnb.best_energy >= exact_e


def test_bnb_trace_is_strictly_improving():
    sq = random_sparse_qubo(16, seed=11)
    report = solve_bnb(sq)
    energies = [e for _, e in report.trace]
    assert all(a > b for a, b in zip(energies, energies[1:])) or len(energies) == 1
    assert report.tts == report.trace[-1][0]


def test_sa_reaches_optimum_with_target_stop():
    sq = random_sparse_qubo(12, seed=13)
    exact_e = solve_exact(sq).best_energy
    report = solve_sa(sq, SolveBudget(seed=5, max_iterations=50_000,
                                      target_energy=exact_e))
    assert report.best_energy == exact_e


def test_abs_reaches_optimum():
    sq = random_sparse_qubo(14, seed=14)
    exact_e = solve_exact(sq).best_energy
    report = solve_abs(sq, SolveBudget(seed=3, max_iterations=500,
                                       target_energy=exact_e))
    assert report.best_energy == exact_e


def test_abs_respects_iteration_budget():
    sq = random_sparse_qubo(10, seed=15)
    report = solve_abs(sq, SolveBudget(seed=0, max_iterations=7))
    assert report.iterations <= 7


@pytest.mark.parametrize("solver,kwargs", [
    (solve_sa, {"max_iterations": 5_000}),
    (solve_abs, {"max_iterations": 60}),
])
def test_seeded_runs_are_identical(solver, kwargs):
    sq = random_sparse_qubo(13, seed=16)
    a = solver(sq, SolveBudget(seed=42, **kwargs))
    b = solver(sq, SolveBudget(seed=42, **kwargs))
    assert a.best_energy == b.best_energy
    assert np.array_equal(a.best, b.best)
    assert a.iterations == b.iterations


def test_different_seeds_can_differ():
    sq = random_sparse_qubo(13, seed=16)
    a = solve_sa(sq, SolveBudget(seed=1, max_iterations=200))
    b = solve_sa(sq, SolveBudget(seed=2, max_iterations=200))
    # allowed to coincide by luck on the energy, never on the trajectory
    assert a.iterations == b.iterations
    assert not np.array_equal(a.best, b.best) or a.best_energy == b.best_energy


def test_local_descent_terminates_at_one_flip_minimum():
    spec = toy_spec(n=2, T=2, q=1e-4, seed=20)
    qubo = build_qubo(spec)
    rng = np.random.default_rng(21)
    x = rng.integers(0, 2, qubo.num_vars).astype(np.int8)
    start_e = energy(qubo, x)
    out = local_descent(qubo, x)
    assert energy(qubo, out) <= start_e
    assert np.all(delta_energies(qubo, out) >= 0.0)


def test_solvers_accept_block_qubo_directly():
    spec = toy_spec(n=2, T=2, q=1e-5, seed=22)
    qubo = build_qubo(spec)
    exact = solve_exact(qubo)
    sa = solve_sa(qubo, SolveBudget(seed=1, max_iterations=30_000,
                                    target_energy=exact.best_energy))
    assert sa.best_energy == pytest.approx(exact.best_energy, rel=1e-12)


def test_report_json_roundtrip(tmp_path):
    sq = random_sparse_qubo(10, seed=23)
    report = solve_exact(sq)
    path = tmp_path / "report.json"
    report.save(path)
    doc = json.loads(path.read_text())
    for key in ("solver", "seed", "best_energy", "lower_bound",
                "tts_seconds", "iterations", "trace", "bits"):
        assert key in doc
    again = SolveReport.from_json(doc)
    assert again.best_energy == report.best_energy
    assert np.array_equal(again.best, report.best)
    assert again.trace == report.trace


def test_budget_validation():
    with pytest.raises(ValueError):
        SolveBudget(time_limit=0.0)
    with pytest.raises(ValueError):
        PoolConfig(pool_size=1)


def test_pool_without_crossover_allows_tiny_pool():
    cfg = PoolConfig(pool_size=1, operators=("descent-restart",))
    sq = random_sparse_qubo(8, seed=24)
    report = solve_abs(sq, SolveBudget(seed=0, max_iterations=20), pool=cfg)
    assert report.best is not None


@pytest.mark.parametrize("seed", range(10))
def test_sparse_input_runs_the_block_flip_kernel(seed):
    sq = random_sparse_qubo(12, seed=seed)
    block = _as_block(sq)
    A, off = to_dense(sq)
    rng = np.random.default_rng(100 + seed)
    x = rng.integers(0, 2, 12).astype(np.int8)
    deltas = delta_energies(block, x)
    for i in rng.integers(0, 12, size=500):
        apply_flip(block, x, int(i), deltas)
    fresh = delta_energies(block, x)
    assert np.abs(deltas - fresh).max() <= 1e-12 * np.abs(fresh).max()
    flipped = np.repeat(x[None, :], 12, axis=0)
    flipped[np.arange(12), np.arange(12)] ^= 1
    by_enumeration = dense_energies(A, off, flipped) - dense_energies(A, off, x[None, :])[0]
    assert np.allclose(deltas, by_enumeration, rtol=0.0, atol=1e-9)


def test_one_block_energy_equals_dense_energies_exactly():
    sq = random_sparse_qubo(12, seed=0)
    block = _as_block(sq)
    A, off = to_dense(sq)
    X = ((np.arange(1 << 12)[:, None] >> np.arange(12)) & 1).astype(np.int8)
    for x in X:
        assert energy(block, x) == dense_energies(A, off, x[None, :])[0]
    qubo = build_qubo(toy_spec(n=2, T=2, seed=0))
    assert _as_block(qubo) is qubo


@pytest.mark.parametrize("signed_risk", [True, False])
@pytest.mark.parametrize("q", [0.0, 1e-5, 1e-3])
@pytest.mark.parametrize("seed", range(20))
def test_exact_and_bnb_report_the_energy_of_their_best(seed, q, signed_risk):
    qubo = build_qubo(toy_spec(n=3, T=2, q=q, seed=seed, signed_risk=signed_risk))
    for report in (solve_exact(qubo), solve_bnb(qubo)):
        assert report.best_energy == energy(qubo, report.best)
        assert report.trace[-1][1] == report.best_energy
