"""Classical solvers against enumeration oracles, plus determinism and
report serialization.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofolio import qubo as qubo_module
from qubofolio import solvers as solvers_module
from qubofolio.evaluation import SOLVERS
from qubofolio.qubo import (
    BlockQubo,
    IsingModel,
    QuboError,
    SparseQubo,
    _as_block,
    _one_block,
    all_energies,
    apply_flip,
    build_qubo,
    delta_energies,
    dense_energies,
    energy,
    ising_value,
    to_dense,
)
from qubofolio.solvers import (
    EXACT_CAP,
    SolveBudget,
    SolveReport,
    _enumerate,
    _Run,
    local_descent,
    rle_decode,
    rle_encode,
    solve_abs,
    solve_bnb,
    solve_exact,
    solve_sa,
)
from qubofolio.toy import cash_only_bits, random_sparse_qubo, synthetic_spec, toy_spec
from test_qubo import (
    EXP1,
    _apply_flip_reference,
    _kernel_cases,
    _same_bits,
    _state_delta,
    _state_flip,
)


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


def test_solve_exact_stops_on_its_time_limit():
    sq = random_sparse_qubo(22, 1)
    report = solve_exact(sq, SolveBudget(time_limit=1e-3))
    assert 0 < report.iterations < 1 << 22
    assert report.lower_bound is None
    assert report.best_energy == energy(_as_block(sq), report.best)


def test_solve_exact_counts_states_against_max_iterations():
    sq = random_sparse_qubo(20, 2)
    stopped = solve_exact(sq, SolveBudget(max_iterations=1))
    assert stopped.iterations == 1 << 18  # one chunk, then the budget is spent
    assert stopped.lower_bound is None
    full = solve_exact(sq, SolveBudget(max_iterations=1 << 20))
    assert full.iterations == 1 << 20 and full.lower_bound == full.best_energy


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


# (16, 11) and twelve files on which a leaf re-offered the incumbent's bits
# at a value one ulp below their `energy`, repeating the last trace entry
@pytest.mark.parametrize("n, seed", [(16, 11), (10, 16), (10, 31), (10, 39), (14, 17),
                                     (14, 38), (14, 47), (16, 4), (16, 7), (16, 19),
                                     (16, 53), (18, 28), (18, 45)])
def test_bnb_trace_is_strictly_improving(n, seed):
    sq = random_sparse_qubo(n, seed=seed)
    report = solve_bnb(sq)
    energies = [e for _, e in report.trace]
    assert all(a > b for a, b in zip(energies, energies[1:])) or len(energies) == 1
    assert report.tts == report.trace[-1][0]


# SA offers a running energy that drifts by ulps; before an offer of the
# incumbent's own bits stopped counting as an improvement, 38 of these 120
# runs repeated their last trace energy
@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("n", [10, 14, 18])
def test_sa_trace_is_strictly_improving(n, seed):
    sq = random_sparse_qubo(n, seed=seed)
    report = solve_sa(sq, SolveBudget(seed=seed, max_iterations=3_000))
    energies = [e for _, e in report.trace]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    assert energies[-1] == energy(_as_block(sq), report.best) == report.best_energy


def _reference_sa_offers(qubo, seed, max_it):
    """The running energies solve_sa offers as improvements, from its random stream, with
    each proposal read through _state_delta and each flip made by _state_flip."""
    n = qubo.num_vars
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n).astype(np.int8)
    e = energy(qubo, x)
    best_e, best_x, offers = e, x.copy(), [e]
    t0 = max(float(np.percentile(np.abs(delta_energies(qubo, x)), 90)), 1e-12)
    cooling, span = t0 * solvers_module._SA_FINAL_RATIO / t0, max(max_it - 1, 1)
    state = qubo_module._flip_state(qubo, x)
    for start in range(0, max_it, solvers_module._SA_BLOCK):
        m = min(solvers_module._SA_BLOCK, max_it - start)
        u = rng.random(m)
        picks = rng.integers(n, size=m).tolist()
        temps = t0 * cooling ** (np.arange(start, start + m) / span)
        for i, thr in zip(picks, (-temps * np.log1p(-u)).tolist()):
            change = _state_delta(qubo, state, i)
            if change <= thr:
                _state_flip(qubo, state, i)
                e += change
                if e < best_e:
                    if not np.array_equal(state.bits, best_x):
                        best_x = state.bits.copy()
                        offers.append(e)
                    best_e = e
    return offers


def _sa_cases():
    yield pytest.param(_as_block(random_sparse_qubo(12, seed=3)), 3_000, id="file-12")
    for name, spec, iterations in [
            ("toy", toy_spec(n=3, T=2, q=1e-3, seed=4), 3_000),
            ("synthetic-15x4", synthetic_spec(n=15, T=4, k=2, B=8, C=3, seed=3), 20_000),
            ("exp1", synthetic_spec(seed=1, **EXP1), 20_000)]:
        # from a random start the penalty's energies are so large that a change's last
        # bits are rounded away; without it they carry into the running energy
        for penalty in (True, False):
            yield pytest.param(build_qubo(spec, include_penalty=penalty), iterations,
                               id=f"{name}-{'penalty' if penalty else 'free'}")


@pytest.mark.parametrize("qubo,iterations", _sa_cases())
def test_sa_offers_the_running_energies_of_the_reference_formula(qubo, iterations):
    """solve_sa's inline proposals and flips take the steps, and sum the changes, of
    delta_energies' formula read from the flip state: its trace, up to the last entry
    (the incumbent's `energy`), is the reference's offers bit for bit."""
    report = solve_sa(qubo, SolveBudget(seed=7, max_iterations=iterations))
    want = _reference_sa_offers(qubo, 7, iterations)
    assert len(report.trace) == len(want) > 2
    assert _same_bits([e for _, e in report.trace[:-1]], want[:-1])


def test_sa_reaches_optimum_with_target_stop():
    sq = random_sparse_qubo(12, seed=13)
    exact_e = solve_exact(sq).best_energy
    report = solve_sa(sq, SolveBudget(seed=5, max_iterations=50_000,
                                      target_energy=exact_e))
    assert report.best_energy == exact_e
    # the run stops at the first proposal that holds the optimum's bits, in
    # the third block of 512; a stop inside a block counts the proposals
    # made, not the block's end
    assert report.iterations == 1_422
    assert report.iterations % solvers_module._SA_BLOCK != 0


@pytest.mark.parametrize("n", [10, 12, 14])
def test_sa_stops_once_it_holds_the_target_bits(n):
    # SA's running energy drifts from `energy` by ulps; a run holding the
    # optimum's bits at a running energy just above it must still stop
    for seed in range(30):
        sq = random_sparse_qubo(n, seed)
        target = solve_exact(sq).best_energy
        report = solve_sa(sq, SolveBudget(seed=seed, max_iterations=20_000,
                                          target_energy=target))
        assert report.best_energy == target, seed
        assert report.iterations < 20_000, seed


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
    with pytest.raises(QuboError, match="assignment length"):
        local_descent(qubo, x[:-1])


def test_local_descent_stops_on_a_nan_delta():
    """A NaN delta ends descent, where `delta >= 0` let it flip for ever: run under a timeout."""
    code = ("import numpy as np\n"
            "from qubofolio.qubo import _one_block\n"
            "from qubofolio.solvers import local_descent\n"
            "print(local_descent(_one_block(np.array([[np.nan]]), 0.0), [0]).tolist())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0]"


def _reference_pick(deltas):
    """The flip the plain descent takes next: the global argmin, if its delta is negative."""
    if len(deltas):
        i = int(np.argmin(deltas))
        if deltas[i] < 0.0:
            return i
    return None


def _assert_descent_follows_reference(monkeypatch, qubo, x, start=None):
    """_descend from x takes exactly the flips of a global argmin over every delta and
    _apply_flip_reference, with the same bits and delta bits after every flip; returns them.

    start, if given, replaces delta_energies' table at x on both sides.
    """
    ref_x = x.copy()
    ref_deltas = delta_energies(qubo, x) if start is None else np.array(start, dtype=float)
    if start is not None:
        monkeypatch.setattr(solvers_module, "delta_energies", lambda *args: ref_deltas.copy())
    kernel, flips = solvers_module._flip, []

    def checked(block, bits, i, deltas, *args):
        assert i == _reference_pick(ref_deltas), flips
        change = kernel(block, bits, i, deltas, *args)
        assert _same_bits(change, _apply_flip_reference(qubo, ref_x, i, ref_deltas))
        assert np.array_equal(bits, ref_x) and _same_bits(deltas, ref_deltas)
        flips.append(i)
        return change

    monkeypatch.setattr(solvers_module, "_flip", checked)
    out, e, count = solvers_module._descend(qubo, x.copy())
    assert _reference_pick(ref_deltas) is None
    assert count == len(flips) and np.array_equal(out, ref_x)
    assert _same_bits(e, energy(qubo, ref_x))
    return flips


def _descent_cases():
    for case in _kernel_cases():
        qubo = case.values[0]
        yield pytest.param(qubo, np.random.default_rng(qubo.num_vars).integers(
            0, 2, qubo.num_vars).astype(np.int8), id=case.id)
    exp1 = build_qubo(synthetic_spec(seed=1, **EXP1))
    for seed in range(3):
        x = np.random.default_rng(seed).integers(0, 2, exp1.num_vars).astype(np.int8)
        yield pytest.param(exp1, x, id=f"exp1-random-{seed}")
    yield pytest.param(_as_block(SparseQubo(0, [], [], [], 1.5)), np.zeros(0, dtype=np.int8),
                       id="zero-variables")


@pytest.mark.parametrize("qubo,x", _descent_cases())
def test_descent_takes_the_flips_of_a_global_argmin(monkeypatch, qubo, x):
    flips = _assert_descent_follows_reference(monkeypatch, qubo, x)
    assert len(flips) > 0 or qubo.num_vars == 0


def _band_only(T, w, cross):
    """Blocks of zeros: a flip negates its own delta and moves its band neighbours' by
    +-cross, so a table chosen by hand plays out as written."""
    return BlockQubo(core=np.zeros((T, 1, 1)), slot=np.zeros(w, dtype=np.int64),
                     wp=np.zeros((T, w)), scale=1.0, budget_rows=np.zeros((0, w)),
                     budget_rhs=np.zeros(0), cross=np.array(cross, dtype=float).reshape(T - 1, w),
                     linear=np.zeros(T * w), offset=0.0, penalty_weight=0.0)


inf, nan = np.inf, np.nan


# (steps, cross between steps, starting deltas, flips): every start is all zeros
@pytest.mark.parametrize("T,cross,start,flips", [
    # equal minima in two steps: the lower flat index wins; then within one step
    (2, [0, 0, 0], [0, -3, 0, -3, 0, 0], [1, 3]),
    (2, [0, 0, 0], [0, -3, -3, 0, 0, 0], [1, 2]),
    # the band lowers step 0's minimum away from its argmin and raises step 2's at its
    # argmin, which is scanned again
    (3, [-10, 0, 0, 10, 0, 0], [0, -1, 0, -5, 0, 0, -4, -3, 0], [3, 0, 7, 1]),
    # the band lowers a minimum at its own argmin
    (2, [-3, 0, 0], [-5, 0, 0, -1, 0, 0], [0, 3]),
    # the band ties a neighbour's minimum below its argmin, then above it
    (2, [-2, 0, 0], [-5, 0, 0, 0, -2, 0], [0, 3, 4]),
    (2, [0, 0, -2], [0, 0, -5, 0, -2, 0], [2, 4, 5]),
    # the same ties in the step before the flip's
    (2, [-2, 0, 0], [0, -2, 0, -5, 0, 0], [3, 0, 1]),
    (2, [0, -2, 0], [-2, 0, 0, 0, -5, 0], [4, 0, 1]),
    # the band makes a NaN in the step after the flip's, then before: descent stops
    # though -4 is left
    (2, [nan, 0, 0], [-5, -4, 0, 0, 0, 0], [0]),
    (3, [0, 0, 0, nan, 0, 0], [0, 0, 0, -5, -4, 0, 0, 0, 0], [3]),
    (2, [nan, 0, 0], [0, 0, 0, -5, -4, 0], [3]),
    # inf - inf is a NaN at the neighbour's argmin
    (2, [inf, 0, 0], [-5, 0, 0, -inf, 0, 0], [3]),
    # -inf from the band is taken next; a NaN or inf delta at the start
    (2, [-inf, 0, 0], [-5, 0, 0, 0, -1, 0], [0, 3, 4]),
    (2, [0, 0, 0], [-5, 0, nan, 0, 0, 0], []),
    (2, [0, 0, 0], [-5, 0, inf, -inf, 0, 0], [3, 0]),
    # one step, no band
    (1, [], [0, -1, -1], [1, 2]),
], ids=["tie-across-steps", "tie-in-step", "band-lowers-and-raises", "band-lowers-at-argmin",
        "band-ties-below", "band-ties-above", "band-ties-below-before", "band-ties-above-before",
        "band-nan", "band-nan-after", "band-nan-before", "band-inf-minus-inf", "band-minus-inf",
        "nan-at-start", "inf-at-start", "one-step"])
def test_descent_keeps_each_steps_minimum(monkeypatch, T, cross, start, flips):
    qubo = _band_only(T, 3, cross)
    x = np.zeros(qubo.num_vars, dtype=np.int8)
    with np.errstate(invalid="ignore"):  # energy's band term reads inf * 0
        assert _assert_descent_follows_reference(monkeypatch, qubo, x, start) == flips


def test_local_descent_rejects_entries_other_than_zero_and_one():
    qubo = build_qubo(toy_spec(n=2, T=2, seed=1))
    one_two = np.zeros(qubo.num_vars, dtype=np.int8)
    one_two[0] = 2
    for x in (one_two, [0.5] * qubo.num_vars):
        with pytest.raises(QuboError, match="0 or 1"):
            local_descent(qubo, x)


def test_solvers_accept_block_qubo_directly():
    spec = toy_spec(n=2, T=2, q=1e-5, seed=22)
    qubo = build_qubo(spec)
    exact = solve_exact(qubo)
    sa = solve_sa(qubo, SolveBudget(seed=1, max_iterations=30_000,
                                    target_energy=exact.best_energy))
    assert sa.best_energy == pytest.approx(exact.best_energy, rel=1e-12)


def test_report_json_roundtrip():
    sq = random_sparse_qubo(10, seed=23)
    report = solve_exact(sq)
    doc = json.loads(json.dumps(report.to_json()))
    for key in ("solver", "seed", "best_energy", "lower_bound",
                "tts_seconds", "iterations", "trace", "bits"):
        assert key in doc
    again = SolveReport.from_json(doc)
    assert again.best_energy == report.best_energy
    assert np.array_equal(again.best, report.best)
    assert again.trace == report.trace


def test_budget_validation():
    for limit in (0.0, float("nan")):  # a NaN limit is never spent, so abs would not return
        with pytest.raises(ValueError, match="time_limit"):
            SolveBudget(time_limit=limit)
    for k in (0, -1):
        with pytest.raises(ValueError, match="max_iterations"):
            SolveBudget(max_iterations=k)


@pytest.mark.parametrize("k", [1, 2, 7, 40, 511, 512, 513, 1025])
def test_iteration_budget_is_counted_the_same_way_by_every_search(k):
    sq = random_sparse_qubo(16, seed=25)
    budget = SolveBudget(seed=1, max_iterations=k)
    assert solve_sa(sq, budget).iterations == k
    assert solve_abs(sq, budget).iterations == k
    assert solve_bnb(sq, budget).iterations <= k


def test_sa_past_its_time_limit_counts_no_flip():
    sq = random_sparse_qubo(12, seed=26)
    report = solve_sa(sq, SolveBudget(time_limit=1e-9))
    assert report.iterations == 0
    assert report.best_energy == energy(_as_block(sq), report.best)


def test_abs_past_its_time_limit_still_returns_an_incumbent():
    sq = random_sparse_qubo(12, seed=26)
    report = solve_abs(sq, SolveBudget(time_limit=1e-9))
    assert report.best.shape == (12,)
    assert set(np.unique(report.best)) <= {0, 1}
    assert report.iterations == 1
    doc = json.loads(json.dumps(report.to_json()))
    assert SolveReport.from_json(doc).to_json() == report.to_json()


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
    """Every solver in SOLVERS, not only exact and bnb, reports energy(best)."""
    qubo = build_qubo(toy_spec(n=3, T=2, q=q, seed=seed, signed_risk=signed_risk))
    budgets = {"sa": SolveBudget(seed=seed, max_iterations=1_000),
               "abs": SolveBudget(seed=seed, max_iterations=10)}
    for name, solve in SOLVERS.items():
        report = solve(qubo, budgets.get(name))
        assert report.best_energy == energy(qubo, report.best), name
        assert report.trace[-1][1] == report.best_energy, name


def exact_enumeration_reference(n, chunk):
    """The bit matrix solve_exact built before it evaluated chunks by doubling."""
    total = 1 << n
    powers = np.arange(n, dtype=np.uint64)
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.uint64)
        yield ((idx[:, None] >> powers) & 1).astype(np.int8)


def leaf_enumeration_reference(fixed):
    """The bit matrix of branch and bound's leaves before they evaluated by doubling."""
    free = np.flatnonzero(fixed < 0)
    X = np.repeat(np.clip(fixed, 0, 1)[None, :], 1 << len(free), axis=0).astype(np.int8)
    if len(free):
        idx = np.arange(1 << len(free), dtype=np.uint64)
        X[:, free] = ((idx[:, None] >> np.arange(len(free), dtype=np.uint64)) & 1)
    return X


@pytest.mark.parametrize("n", [0, 1, 2, 5, 7, 13])
@pytest.mark.parametrize("chunk", [7, 1 << 18])
def test_assignments_match_the_exact_enumeration(n, chunk):
    """Energy z of all_energies over bits is that of row z of the binary-order reference."""
    rng = np.random.default_rng(n)
    A, off = rng.normal(size=(n, n)), float(rng.normal())
    A = (A + A.T) / 2.0
    got = all_energies(off, np.diagonal(A), 2.0 * np.triu(A, 1), 0.0)
    want = np.concatenate([dense_energies(A, off, X)
                           for X in exact_enumeration_reference(n, chunk)])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * (1.0 + np.abs(A).sum()))


def _all_energies_reference(offset, fields, coupling, low):
    """all_energies as it concatenated new energies and later fields at each variable."""
    energies = np.array([offset])
    fields = np.reshape(fields, (-1, 1))
    for k in range(len(fields)):
        f, later = fields[0], fields[1:]
        energies = np.concatenate((energies + low * f, energies + f))
        c_k = coupling[k, k + 1 :, None]
        fields = np.concatenate((later + low * c_k, later + c_k), axis=1)
    return energies


@pytest.mark.parametrize("low", [0.0, -1.0])
@pytest.mark.parametrize("m", [0, 1, 2, 7, 13])
def test_all_energies_are_bit_identical_to_the_concatenating_loop(m, low):
    """Doubling in place does the reference's arithmetic in its order, so every bit agrees."""
    rng = np.random.default_rng(200 + m)
    args = (float(rng.normal()), rng.normal(size=m), rng.normal(size=(m, m)), low)
    assert np.array_equal(all_energies(*args), _all_energies_reference(*args))


@pytest.mark.parametrize("m", [0, 1, 2, 7, 13])
def test_all_energies_of_spins_equal_ising_value_on_every_state(m):
    rng = np.random.default_rng(100 + m)
    rows, cols = np.triu_indices(m, 1)
    ising = IsingModel(h=rng.normal(size=m), j_rows=rows, j_cols=cols,
                       j_vals=rng.normal(size=len(rows)), offset=float(rng.normal()))
    coupling = np.zeros((m, m))
    coupling[rows, cols] = ising.j_vals
    got = all_energies(ising.offset, ising.h, coupling, -1.0)
    (X,) = exact_enumeration_reference(m, 1 << 18)
    want = [ising_value(ising, 2 * x - 1) for x in X]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * (1.0 + m * m))


@pytest.mark.parametrize("seed", range(12))
def test_assignments_match_the_leaf_enumeration(seed, monkeypatch):
    """_enumerate offers the best of the reference's completions of a partly fixed vector,
    in one chunk and in chunks of 2^3."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 16))
    fixed = rng.integers(-1, 2, size=n).astype(np.int8)
    A, off = to_dense(random_sparse_qubo(n, seed=seed))
    X = leaf_enumeration_reference(fixed)
    for chunk_bits in (3, 18):
        monkeypatch.setattr(solvers_module, "_CHUNK_BITS", chunk_bits)
        run = _Run("test", _one_block(A, off), None)
        assert _enumerate(run, A, off, fixed) == len(X)
        assert run.best_e == pytest.approx(dense_energies(A, off, X).min(), rel=1e-12,
                                           abs=1e-12)
        assert run.best_e == energy(run.block, run.best_x)
        assert (run.best_x[fixed >= 0] == fixed[fixed >= 0]).all()


def test_chunked_exact_solve_matches_the_one_chunk_solve(monkeypatch):
    sq = random_sparse_qubo(7, seed=3)
    whole = solve_exact(sq)
    monkeypatch.setattr(solvers_module, "_CHUNK_BITS", 3)
    chunked = solve_exact(sq)
    assert np.array_equal(chunked.best, whole.best)
    assert chunked.best_energy == whole.best_energy
    assert chunked.iterations == whole.iterations == 1 << 7
    assert chunked.lower_bound == whole.lower_bound
    # E(z) = -z, so a solve that stops after states 0..b-1 returns state b - 1
    k = np.arange(7)
    ramp = SparseQubo(num_vars=7, rows=k, cols=k, vals=-(2.0 ** k), offset=0.0)
    for budget in (8, 16):
        first = solve_exact(ramp, SolveBudget(max_iterations=budget))
        assert first.iterations == budget and first.lower_bound is None
        assert first.best_energy == -(budget - 1)
        assert (first.best == (budget - 1) >> k & 1).all()


PINNED = Path(__file__).parent / "data" / "solver_results.json"


def pinned_runs():
    """The solves pinned in data/solver_results.json, as (name, report) pairs."""
    for i in range(20):
        sq = random_sparse_qubo(8 + i % 11, 5000 + i)
        yield f"{i}-exact", solve_exact(sq)
        yield f"{i}-bnb", solve_bnb(sq, SolveBudget(max_iterations=8))
        yield f"{i}-sa", solve_sa(sq, SolveBudget(seed=i, max_iterations=2_000))
        yield f"{i}-abs", solve_abs(sq, SolveBudget(seed=i, max_iterations=20))


def pinned_record(report):
    return {"bits": rle_encode(report.best), "iterations": report.iterations,
            "lower_bound": report.lower_bound, "best_energy": repr(report.best_energy)}


def test_solver_results_match_the_pinned_file():
    """Solver results on file inputs do not drift between commits.

    data/solver_results.json was written before the solvers shared one run
    record, by running this module's pinned_runs and pinned_record at that
    commit and dumping {name: pinned_record(report)} with json.dump(indent=1).
    Rewrite it the same way only for a change meant to alter solver results.
    """
    pinned = json.loads(PINNED.read_text())
    runs = dict(pinned_runs())
    assert sorted(runs) == sorted(pinned)
    for name, report in runs.items():
        want, got = pinned[name], pinned_record(report)
        assert got["bits"] == want["bits"], name
        assert got["iterations"] == want["iterations"], name
        assert float(got["best_energy"]) == pytest.approx(float(want["best_energy"]),
                                                          rel=1e-12, abs=0.0), name
        if want["lower_bound"] is None:
            assert got["lower_bound"] is None, name
        else:
            assert got["lower_bound"] == pytest.approx(want["lower_bound"],
                                                       rel=1e-12, abs=0.0), name


BLOCK_PINNED = Path(__file__).parent / "data" / "block_solver_results.json"


def _descent_report(qubo, start, seed):
    """local_descent from start as a report; iterations counts the bits it changed."""
    best = local_descent(qubo, start)
    return SolveReport(best=best, best_energy=energy(qubo, best), lower_bound=None, trace=[],
                       iterations=int(np.count_nonzero(best != start)), solver_name="descent",
                       seed=seed)


def block_pinned_runs():
    """The solves pinned in data/block_solver_results.json, as (name, report) pairs.

    Spec-built problems carry budget rows and a derived penalty, which the
    file inputs of pinned_runs do not.
    """
    for q in (1e-4, 1e-2):
        for seed in range(5):
            spec = synthetic_spec(n=12, T=4, k=2, B=6, C=3, q=q, seed=seed)
            qubo = build_qubo(spec)
            rng = np.random.default_rng(seed)
            name = f"q{q:g}-{seed}"
            yield f"{name}-sa", solve_sa(qubo, SolveBudget(seed=seed, max_iterations=5_000))
            yield f"{name}-abs", solve_abs(qubo, SolveBudget(seed=seed, max_iterations=10))
            yield f"{name}-descent-cash", _descent_report(qubo, cash_only_bits(spec), seed)
            start = rng.integers(0, 2, qubo.num_vars).astype(np.int8)
            yield f"{name}-descent-random", _descent_report(qubo, start, seed)


def test_block_solver_results_match_the_pinned_file():
    """Solver results on spec-built problems do not drift between commits.

    data/block_solver_results.json was written before the flip kernel read
    its penalty columns from a table, by dumping {name: pinned_record(report)}
    for block_pinned_runs with json.dump(indent=1).  Its ten -sa entries
    were rewritten the same way when simulated annealing began to draw its
    proposals and Metropolis thresholds in blocks, which changed its random
    stream; every -abs and -descent entry was left as it was.  Every field
    must match exactly, the energy as its repr.
    """
    pinned = json.loads(BLOCK_PINNED.read_text())
    runs = {name: pinned_record(report) for name, report in block_pinned_runs()}
    assert sorted(runs) == sorted(pinned)
    for name, got in runs.items():
        assert got == pinned[name], name


EXP1_PINNED = Path(__file__).parent / "data" / "exp1_solver_results.json"


def test_exp1_solver_results_match_the_pinned_file():
    """The paper-size solves of the bench's exp1-search round at seed 1 do not drift.

    data/exp1_solver_results.json was written before descent kept each step's
    minimum and simulated annealing ran its proposals inline, by dumping
    {name: pinned_record(report)} for these runs with json.dump(indent=1).
    Every field must match exactly, the energy as its repr.
    """
    spec = synthetic_spec(seed=1, **EXP1)
    qubo = build_qubo(spec)
    runs = {
        "sa": solve_sa(qubo, SolveBudget(time_limit=600.0, max_iterations=200_000, seed=1)),
        "abs": solve_abs(qubo, SolveBudget(time_limit=600.0, max_iterations=5, seed=1)),
        "descent-cash": _descent_report(qubo, cash_only_bits(spec), 1),
    }
    pinned = json.loads(EXP1_PINNED.read_text())
    assert sorted(runs) == sorted(pinned)
    for name, report in runs.items():
        assert pinned_record(report) == pinned[name], name


@pytest.mark.parametrize("entry", [solve_exact, solve_bnb, solve_sa, solve_abs,
                                   lambda problem: local_descent(problem, [0, 0])],
                         ids=["exact", "bnb", "sa", "abs", "descent"])
def test_every_solver_entry_rejects_an_ising_model_alike(entry):
    ising = IsingModel(h=np.zeros(2), j_rows=[0], j_cols=[1], j_vals=[1.0], offset=0.0)
    with pytest.raises(QuboError) as raised:
        entry(ising)
    assert str(raised.value) == "cannot densify IsingModel"
