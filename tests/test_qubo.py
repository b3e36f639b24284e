"""QUBO assembly against a naive slot-by-slot objective oracle, plus the
delta machinery, format conversions, and text round-trips.
"""
import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofolio import qubo as qubo_module
from qubofolio.evaluation import economic_metrics
from qubofolio.market_data import BlockPrices, CovarianceSeries
from qubofolio.model import (
    FrictionParams,
    ProblemSpec,
    Trajectory,
    constraint_residuals,
    decode_assignment,
    encode_assignment,
    is_feasible,
)
from qubofolio.qubo import (
    IsingModel,
    QuboError,
    QuboParseError,
    SparseQubo,
    apply_flip,
    build_qubo,
    delta_energies,
    dense_energies,
    energy,
    ising_value,
    objective_breakdown,
    read_qubo_text,
    resolve_penalty,
    step_components,
    to_dense,
    to_ising,
    to_sparse,
    write_ising_text,
    write_qubo_text,
)
from qubofolio.solvers import SolveBudget, local_descent, solve_abs, solve_exact, solve_sa
from qubofolio.toy import cash_only_bits, random_sparse_qubo, synthetic_spec, toy_spec


def naive_objective(spec: ProblemSpec, bits) -> float:
    """Slot-by-slot reference objective, written independently of build_qubo.

    Slots are enumerated one at a time and every term is accumulated with
    plain Python loops; slow but unambiguous.
    """
    lay = spec.layout
    x = np.asarray(bits).reshape(lay.T, lay.step_width)
    prm = spec.params
    p = spec.prices.p
    kn2 = 2 * lay.kn
    total = 0.0
    for t in range(1, lay.T + 1):
        row = x[t - 1]
        prev = x[t - 2, :kn2] if t >= 2 else np.zeros(kn2)
        for i in range(kn2):
            a_i = lay.asset_of[i]
            tau_i = lay.tau_of[i]
            # risk (pairwise, diagonal included since x^2 = x)
            if prm.q > 0:
                w_i = tau_i if spec.signed_risk else 1
                for j in range(kn2):
                    a_j = lay.asset_of[j]
                    w_j = lay.tau_of[j] if spec.signed_risk else 1
                    total += (prm.q * w_i * w_j * p[a_i, t - 1] * p[a_j, t - 1]
                              * spec.covariances.sigma[t - 1][a_i, a_j]
                              * row[i] * row[j])
            # profit (negated income), always trade-sign weighted
            total += -tau_i * (p[a_i, t] - p[a_i, t - 1]) * row[i]
            # transaction: charged whenever the slot's state changes
            total += prm.delta * p[a_i, t - 1] * (
                prev[i] + row[i] - 2.0 * prev[i] * row[i])
            if t == lay.T:
                total += prm.delta * p[a_i, t - 1] * row[i]  # liquidation
            if tau_i < 0:
                total += prm.rho_s * p[a_i, t - 1] * row[i]
        # cash interest on slack units (income, so negated)
        y_val = 0
        for c in range(lay.nc):
            y_val += (1 << c) * row[kn2 + lay.nb + c]
        total += -prm.rho_c * prm.u * y_val
        # quadratic penalties on both equality rows
        s_val = 0
        for b in range(lay.nb):
            s_val += (1 << b) * row[kn2 + b]
        trade_count = row[:kn2].sum()
        signed = sum(lay.tau_of[i] * row[i] for i in range(kn2))
        P = resolve_penalty(spec)
        total += P * (spec.B - trade_count - s_val) ** 2
        total += P * (spec.C - signed - y_val) ** 2
    return total


@pytest.mark.parametrize("seed,n,T,q", [(0, 1, 1, 0.0), (1, 2, 1, 1e-4),
                                        (2, 2, 2, 1e-5), (3, 3, 2, 1e-3),
                                        (4, 2, 2, 0.0)])
def test_energy_matches_naive_oracle(seed, n, T, q):
    spec = toy_spec(n=n, T=T, q=q, seed=seed)
    qubo = build_qubo(spec)
    rng = np.random.default_rng(seed + 100)
    for _ in range(20):
        x = rng.integers(0, 2, qubo.num_vars).astype(np.int8)
        expected = naive_objective(spec, x)
        got = energy(qubo, x)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-6)


def test_energy_matches_oracle_unsigned_risk():
    spec = toy_spec(n=2, T=2, q=1e-4, seed=7, signed_risk=False)
    qubo = build_qubo(spec)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.integers(0, 2, qubo.num_vars).astype(np.int8)
        assert energy(qubo, x) == pytest.approx(naive_objective(spec, x),
                                                rel=1e-9, abs=1e-6)


def count_step_energy(spec: ProblemSpec, t: int, L, S) -> np.ndarray:
    """Step t's own terms of E(L, S) for counts L, S of shape (..., n), slacks at their residuals.

    The k blocks of one (step, asset, direction) share their linear
    coefficient, so block 0's stands for each, and each slack's bits
    weigh 2^b times bit 0's.  Risk sees only g_t = p_t (L_t - S_t), or
    p_t (L_t + S_t) unsigned.
    """
    lay = spec.layout
    k, kn, nb = lay.k, lay.kn, lay.nb
    row = sum(qubo_module._linear_terms(spec).values())[t]
    asset_slack, cash_units = spec.B - (L + S).sum(axis=-1), spec.C - (L - S).sum(axis=-1)
    g = spec.prices.p[:, t] * (L - S if spec.signed_risk else L + S)
    risk = spec.params.q * np.einsum("...i,ij,...j->...", g, spec.covariances.sigma[t], g)
    return (L @ row[:kn:k] + S @ row[kn:2 * kn:k] + row[2 * kn] * asset_slack
            + row[2 * kn + nb] * cash_units + risk)


def count_band_credit(spec: ProblemSpec, t: int, L0, S0, L1, S1) -> np.ndarray:
    """The band's credit from step t to t + 1: canonical blocks overlap min(L_t, L_t+1) times."""
    k, kn = spec.k, spec.layout.kn
    band = qubo_module._turnover_band(qubo_module._linear_terms(spec))[t]
    return np.minimum(L0, L1) @ band[:kn:k] + np.minimum(S0, S1) @ band[kn:2 * kn:k]


def count_energy(spec: ProblemSpec, traj: Trajectory) -> float:
    """E(L, S): the energy of feasible counts' canonical bits, read from the counts alone.

    It is the sum of each step's terms and the band credits between
    adjacent steps.  Feasible counts carry no penalty.
    """
    L, S = traj.long, traj.short
    steps = sum(count_step_energy(spec, t, L[t], S[t]) for t in range(spec.T))
    band = sum(count_band_credit(spec, t, L[t], S[t], L[t + 1], S[t + 1])
               for t in range(spec.T - 1))
    return float(steps + band)


def count_view_optimum(spec: ProblemSpec) -> tuple[float, Trajectory]:
    """The least E(L, S) over feasible counts and a trajectory attaining it (Viterbi).

    A state is the joint (L, S) of all assets at one step, (k + 1)^(2n) of
    them, kept where count <= B and 0 <= C - net <= 2^nc - 1.  E is a sum
    of terms on one step (count_step_energy) and on two adjacent steps
    (count_band_credit), so the recursion over steps is exact.  Canonical
    blocks never raise the energy, so this is also the least energy of any
    feasible assignment.
    """
    grid = np.array(list(itertools.product(range(spec.k + 1), repeat=2 * spec.n)))
    L, S = grid[:, :spec.n], grid[:, spec.n:]
    cash_units = spec.C - (L - S).sum(axis=1)
    ok = ((L + S).sum(axis=1) <= spec.B) & (cash_units >= 0) & (cash_units < 2**spec.layout.nc)
    L, S = L[ok], S[ok]
    value = count_step_energy(spec, 0, L, S)
    back = []
    for t in range(1, spec.T):
        total = value[:, None] + count_band_credit(spec, t - 1, L[:, None], S[:, None], L, S)
        back.append(total.argmin(axis=0))
        value = total.min(axis=0) + count_step_energy(spec, t, L, S)
    path = [int(value.argmin())]
    for prev in reversed(back):
        path.append(int(prev[path[-1]]))
    Lp, Sp = L[path[::-1]], S[path[::-1]]
    return float(value.min()), Trajectory(long=Lp, short=Sp,
                                          asset_slack=spec.B - (Lp + Sp).sum(axis=1),
                                          cash_units=spec.C - (Lp - Sp).sum(axis=1))


def random_feasible_counts(spec: ProblemSpec, rng) -> Trajectory:
    """A feasible count state: random +1 block moves kept while both budgets hold."""
    lay = spec.layout
    held = np.zeros((2, lay.T, lay.n), dtype=np.int64)  # long, short
    for t in range(lay.T):
        for _ in range(int(rng.integers(0, 2 * spec.B))):
            side, a = int(rng.integers(2)), int(rng.integers(lay.n))
            if held[side, t, a] == lay.k:
                continue
            held[side, t, a] += 1
            count, net = held[:, t].sum(), (held[0, t] - held[1, t]).sum()
            if count > spec.B or not 0 <= spec.C - net < 2**lay.nc:
                held[side, t, a] -= 1
    L, S = held
    return Trajectory(long=L, short=S, asset_slack=spec.B - (L + S).sum(axis=1),
                      cash_units=spec.C - (L - S).sum(axis=1))


def _scrambled(spec: ProblemSpec, bits, rng) -> np.ndarray:
    """bits with the set blocks of each (step, asset, direction) moved to random positions."""
    lay = spec.layout
    x = bits.reshape(lay.T, lay.step_width).copy()
    kn2 = 2 * lay.kn
    blocks = x[:, :kn2].reshape(lay.T, 2 * lay.n, lay.k)
    x[:, :kn2] = rng.permuted(blocks, axis=2).reshape(lay.T, kn2)
    return x.ravel()


COUNT_VIEW_SPECS = {
    "toy": lambda q: toy_spec(n=3, T=2, B=2, q=q, seed=4),
    "toy-unsigned": lambda q: toy_spec(n=3, T=2, B=3, q=q, seed=6, signed_risk=False),
    "synthetic": lambda q: synthetic_spec(n=6, T=4, k=3, B=12, C=5, q=q, seed=2),
    "exp1": lambda q: synthetic_spec(n=200, T=10, q=q, seed=1),
}


@pytest.mark.parametrize("q", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("name", COUNT_VIEW_SPECS)
def test_count_energy_equals_energy_of_canonical_bits(name, q):
    spec = COUNT_VIEW_SPECS[name](q)
    qubo = build_qubo(spec)
    rng = np.random.default_rng(31)
    for _ in range(6):
        traj = random_feasible_counts(spec, rng)
        bits = encode_assignment(spec, traj)
        assert is_feasible(spec, bits)
        again = decode_assignment(spec, bits)
        assert np.array_equal(again.long, traj.long) and np.array_equal(again.short, traj.short)
        assert count_energy(spec, traj) == pytest.approx(energy(qubo, bits), rel=1e-12)


@pytest.mark.parametrize("name", COUNT_VIEW_SPECS)
def test_canonical_blocks_never_raise_energy(name):
    spec = COUNT_VIEW_SPECS[name](1e-3)
    qubo = build_qubo(spec)
    rng = np.random.default_rng(33)
    lower = 0
    for _ in range(6):
        canonical = encode_assignment(spec, random_feasible_counts(spec, rng))
        scrambled = _scrambled(spec, canonical, rng)
        assert is_feasible(spec, scrambled)
        assert np.array_equal(encode_assignment(spec, decode_assignment(spec, scrambled)),
                              canonical)
        e_canonical, e_scrambled = energy(qubo, canonical), energy(qubo, scrambled)
        assert e_canonical <= e_scrambled + 1e-12 * abs(e_scrambled)
        lower += e_canonical < e_scrambled
    if spec.k > 1:
        assert lower > 0


ENUMERABLE_SPECS = {
    "toy": lambda q: toy_spec(n=2, T=2, q=q, seed=3),
    "toy-three-assets": lambda q: toy_spec(n=3, T=2, B=2, q=q, seed=4),
    "toy-unsigned": lambda q: toy_spec(n=3, T=2, B=3, q=q, seed=6, signed_risk=False),
    "synthetic-one-asset": lambda q: synthetic_spec(n=1, T=4, k=1, B=1, C=1, q=q, seed=1),
    "synthetic-two-blocks": lambda q: synthetic_spec(n=1, T=3, k=2, B=2, C=1, q=q, seed=2),
    "synthetic-two-assets": lambda q: synthetic_spec(n=2, T=2, k=1, B=2, C=1, q=q, seed=3),
}


@pytest.mark.parametrize("q", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("name", ENUMERABLE_SPECS)
def test_count_view_optimum_equals_enumeration(name, q):
    spec = ENUMERABLE_SPECS[name](q)
    qubo = build_qubo(spec)
    value, traj = count_view_optimum(spec)
    exact = solve_exact(qubo)
    assert is_feasible(spec, exact.best)
    assert value == pytest.approx(exact.best_energy, rel=1e-12)
    assert energy(qubo, encode_assignment(spec, traj)) == pytest.approx(value, rel=1e-12)


HEURISTICS = {
    "descent": lambda qubo, spec: local_descent(qubo, cash_only_bits(spec)),
    "sa": lambda qubo, spec: solve_sa(qubo, SolveBudget(max_iterations=20_000)).best,
    "abs": lambda qubo, spec: solve_abs(qubo, SolveBudget(max_iterations=40)).best,
}


@pytest.mark.parametrize("q", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("T", [5, 10, 15])
def test_count_view_optimum_at_the_paper_horizon(T, q, record_property):
    spec = synthetic_spec(n=2, T=T, k=3, B=4, C=2, q=q)
    qubo = build_qubo(spec)
    value, traj = count_view_optimum(spec)
    assert energy(qubo, encode_assignment(spec, traj)) == pytest.approx(value, rel=1e-12)
    assert value <= energy(qubo, cash_only_bits(spec))
    for name, search in HEURISTICS.items():
        bits = search(qubo, spec)
        if not is_feasible(spec, bits):
            record_property(f"{name}_gap", "infeasible")
            continue
        e = energy(qubo, bits)
        assert e >= value - 1e-12 * abs(value)
        record_property(f"{name}_gap", (e - value) / abs(value))


def test_delta_energies_match_flip_differences():
    spec = toy_spec(n=2, T=2, q=1e-4, seed=5)
    qubo = build_qubo(spec)
    rng = np.random.default_rng(6)
    x = rng.integers(0, 2, qubo.num_vars).astype(np.int8)
    base = energy(qubo, x)
    deltas = delta_energies(qubo, x)
    for i in range(qubo.num_vars):
        flipped = x.copy()
        flipped[i] ^= 1
        assert deltas[i] == pytest.approx(energy(qubo, flipped) - base,
                                          rel=1e-9, abs=1e-6)


def _full_product_energy_and_deltas(qubo, bits) -> tuple[float, np.ndarray]:
    """energy and delta_energies with every step's core_t product formed, held or empty."""
    T, w = qubo.wp.shape
    x = np.asarray(bits, dtype=float).reshape(T, w)
    g = qubo_module._positions(qubo, x)
    risk = [qubo.scale * float(dense_energies(core, 0.0, gt[None])[0])
            for core, gt in zip(qubo.core, g)]
    R = qubo.budget_rows
    res = qubo.budget_rhs - x @ R.T
    penalty = qubo.penalty_weight * (res * res).sum(axis=1)
    cross = (qubo.cross * x[:-1] * x[1:]).sum(axis=1)
    e = math.fsum([qubo.offset, float(qubo.linear @ x.ravel()), *risk, *penalty, *cross])
    core_g = np.stack([core @ gt for core, gt in zip(qubo.core, g)])
    core_diag = np.diagonal(qubo.core, axis1=1, axis2=2)
    dg = qubo.wp * qubo.wp * qubo.scale * core_diag[:, qubo.slot]
    dx = qubo.wp * qubo.scale * core_g[:, qubo.slot]
    inner = qubo.linear.reshape(T, w) + dg + 2.0 * dx - 2.0 * dg * x
    inner[1:] += qubo.cross * x[:-1]
    inner[:-1] += qubo.cross * x[1:]
    d = 1.0 - 2.0 * x
    deltas = d * inner + qubo.penalty_weight * ((R * R).sum(axis=0) - 2.0 * d * (res @ R))
    return e, deltas.ravel()


@pytest.mark.parametrize("include_penalty", [True, False])
def test_empty_steps_skip_their_products_bit_for_bit(include_penalty):
    """A step that holds no position gets risk 0.0 and core_t @ g_t = 0 unformed,
    and energy and delta_energies equal the full per-step products bit for bit."""
    spec = synthetic_spec(n=20, T=6, seed=6)
    qubo = build_qubo(spec, include_penalty=include_penalty)
    T, w = qubo.wp.shape
    rng = np.random.default_rng(7)
    held = cash_only_bits(spec).reshape(T, w)
    held[[1, 4]] = rng.integers(0, 2, (2, w))
    points = [cash_only_bits(spec), held.ravel(), rng.integers(0, 2, T * w).astype(np.int8)]
    for bits in points:
        e, deltas = _full_product_energy_and_deltas(qubo, bits)
        assert _same_bits(energy(qubo, bits), e)
        assert _same_bits(delta_energies(qubo, bits), deltas)
    g = qubo_module._positions(qubo, held.astype(float))
    assert g[[1, 4]].any(axis=1).all() and not g[[0, 2, 3, 5]].any()


def test_apply_flip_maintains_deltas_and_energy():
    spec = toy_spec(n=3, T=2, q=1e-4, seed=9)
    qubo = build_qubo(spec)
    rng = np.random.default_rng(10)
    x = rng.integers(0, 2, qubo.num_vars).astype(np.int8)
    deltas = delta_energies(qubo, x)
    e = energy(qubo, x)
    for _ in range(200):
        i = int(rng.integers(qubo.num_vars))
        e += apply_flip(qubo, x, i, deltas)
    assert e == pytest.approx(energy(qubo, x), rel=1e-12, abs=1e-6)
    assert np.allclose(deltas, delta_energies(qubo, x), rtol=1e-9, atol=1e-6)


@pytest.mark.parametrize("value", [2, 0.5, 256, -1])
def test_energy_and_deltas_reject_entries_other_than_zero_and_one(value):
    qubo = build_qubo(toy_spec(n=2, T=2, seed=1))
    x = np.zeros(qubo.num_vars)
    x[0] = value
    for reader in (energy, delta_energies):
        with pytest.raises(QuboError, match="0 or 1"):
            reader(qubo, x)
    assert energy(qubo, np.zeros(qubo.num_vars, bool)) == energy(qubo, np.zeros(qubo.num_vars))


def test_to_sparse_dense_agree_with_block_energy():
    spec = toy_spec(n=2, T=2, q=1e-5, seed=12)
    qubo = build_qubo(spec)
    sparse = to_sparse(qubo)
    A, off = to_dense(sparse)
    rng = np.random.default_rng(13)
    X = rng.integers(0, 2, size=(32, qubo.num_vars)).astype(np.int8)
    dense_vals = dense_energies(A, off, X)
    for row, val in zip(X, dense_vals):
        assert val == pytest.approx(energy(qubo, row), rel=1e-12, abs=1e-6)


def test_sparse_is_upper_triangular_and_sorted():
    sparse = to_sparse(build_qubo(toy_spec(seed=3)))
    assert np.all(sparse.rows <= sparse.cols)
    order = np.lexsort((sparse.cols, sparse.rows))
    assert np.array_equal(order, np.arange(len(sparse.rows)))
    assert not np.any(sparse.vals == 0.0)


def reference_to_sparse(qubo):
    """The concatenate-mask-lexsort export: every step's diagonal, pair and band
    pieces, zeros masked out, then one global sort by (i, j)."""
    T, w = qubo.wp.shape
    P = qubo.penalty_weight
    linear = qubo.linear.reshape(T, w) + (-2.0 * P) * (qubo.budget_rhs @ qubo.budget_rows)
    rows, cols, vals = [], [], []
    iu, ju = np.triu_indices(w, k=1)
    for t in range(T):
        base = t * w
        D = qubo_module._block_rows(qubo, t, slice(None))
        idx = np.arange(base, base + w)
        rows += [idx, base + iu]
        cols += [idx, base + ju]
        vals += [linear[t] + np.diagonal(D), 2.0 * D[iu, ju]]
        if t < T - 1:
            slots = np.flatnonzero(qubo.cross[t])
            rows.append(base + slots)
            cols.append(base + w + slots)
            vals.append(qubo.cross[t, slots])
    r, c, v = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    keep = v != 0.0
    r, c, v = r[keep], c[keep], v[keep]
    order = np.lexsort((c, r))
    offset = qubo.offset + P * T * float(qubo.budget_rhs @ qubo.budget_rhs)
    return r[order], c[order], v[order], offset


def _random_one_block(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((9, 9))
    A[rng.random((9, 9)) < 0.3] = 0.0
    A += A.T
    A[0, 1] = A[1, 0] = -0.0
    return qubo_module._one_block(A, offset=0.25)


def _export_cases():
    for seed, T, signed, pen in itertools.product(range(3), (1, 2), (True, False), (True, False)):
        spec = toy_spec(n=3, T=T, q=1e-3, seed=seed, signed_risk=signed)
        yield pytest.param(build_qubo(spec, include_penalty=pen),
                           id=f"toy-{seed}-T{T}-{'signed' if signed else 'unsigned'}-"
                              f"{'penalty' if pen else 'free'}")
    for seed in range(3):
        yield pytest.param(_random_one_block(seed), id=f"one-block-{seed}")
    spec = synthetic_spec(n=20, T=6, seed=5)
    spec = dataclasses.replace(spec, params=dataclasses.replace(spec.params, P=1234.5))
    yield pytest.param(build_qubo(spec), id="synthetic-20x6-explicit-P")


@pytest.mark.parametrize("qubo", _export_cases())
def test_to_sparse_equals_reference_bit_for_bit(qubo):
    sparse = to_sparse(qubo)
    rows, cols, vals, offset = reference_to_sparse(qubo)
    assert np.array_equal(sparse.rows, rows) and np.array_equal(sparse.cols, cols)
    assert np.array_equal(sparse.vals.view(np.int64), vals.view(np.int64))
    assert np.float64(sparse.offset).view(np.int64) == np.float64(offset).view(np.int64)


def test_ising_equivalence_exhaustive():
    sq = random_sparse_qubo(6, seed=21)
    ising = to_ising(sq)
    A, off = to_dense(sq)
    for z in range(1 << 6):
        x = np.array([(z >> i) & 1 for i in range(6)], dtype=float)
        spins = 2 * x - 1
        qubo_val = float(dense_energies(A, off, x[None, :])[0])
        assert ising_value(ising, spins) == pytest.approx(qubo_val, abs=1e-12)


def test_ising_value_single_spin():
    ising = IsingModel(h=np.array([1.0]), j_rows=np.array([], dtype=int),
                       j_cols=np.array([], dtype=int), j_vals=np.array([]),
                       offset=0.0)
    assert ising_value(ising, [-1]) == -1.0
    assert ising_value(ising, [+1]) == +1.0


@dataclasses.dataclass(frozen=True)
class BqpView:
    """Penalty-free objective plus explicit per-step equality constraints."""

    objective: SparseQubo
    # per step: (indices, coefficients, rhs) for the asset-count and cash rows
    asset_rows: list[tuple[np.ndarray, np.ndarray, int]]
    cash_rows: list[tuple[np.ndarray, np.ndarray, int]]


def build_bqp(spec: ProblemSpec) -> BqpView:
    """The BQP view whole: the objective of build_qubo minus penalties, plus equality rows.

    It is the reference that write_bqp_json's streamed document is compared against.
    """
    free = build_qubo(spec, include_penalty=False)
    asset_rows, cash_rows = qubo_module._bqp_rows(free)
    return BqpView(objective=to_sparse(free), asset_rows=asset_rows, cash_rows=cash_rows)


def test_bqp_objective_is_penalty_free():
    spec = toy_spec(n=2, T=2, q=1e-4, seed=17)
    bqp = build_bqp(spec)
    reference = to_sparse(build_qubo(spec, include_penalty=False))
    assert np.array_equal(bqp.objective.rows, reference.rows)
    assert np.array_equal(bqp.objective.cols, reference.cols)
    assert np.allclose(bqp.objective.vals, reference.vals)
    assert bqp.objective.offset == reference.offset


def test_bqp_constraint_rows_encode_budgets():
    spec = toy_spec(n=2, T=2, seed=17)
    bqp = build_bqp(spec)
    bits = cash_only_bits(spec)
    for rows, rhs in ((bqp.asset_rows, spec.B), (bqp.cash_rows, spec.C)):
        assert len(rows) == spec.T
        for idx, coef, row_rhs in rows:
            assert row_rhs == rhs
            assert float(coef @ bits[idx]) == rhs


def test_resolve_penalty_dominates_objective_coefficients():
    spec = toy_spec(n=2, T=2, q=1e-4, seed=2)
    qubo = build_qubo(spec)
    P = resolve_penalty(spec)
    assert P == qubo.penalty_weight
    A, _ = to_dense(to_sparse(build_qubo(spec, include_penalty=False)))
    # derivation: 10x the largest non-penalty coefficient times (B + C)
    assert P >= 10.0 * np.abs(A).max()


def block_penalty(spec: ProblemSpec) -> float:
    """10 * max |coefficient| * (B + C), read off the assembled penalty-free blocks."""
    free = build_qubo(spec, include_penalty=False)
    blocks = [qubo_module._block_rows(free, t, slice(None)) for t in range(spec.T)]
    maxcoef = max([np.abs(free.linear).max(), np.abs(free.cross).max(initial=0.0)]
                  + [np.abs(D).max() for D in blocks])
    return 10.0 * maxcoef * (spec.B + spec.C) if maxcoef > 0 else 1.0


def step_linear_reference(spec: ProblemSpec, t: int) -> np.ndarray:
    """Non-penalty linear vector of step t (1-based), one step at a time."""
    lay = spec.layout
    kn2 = 2 * lay.kn
    asset = lay.asset_of[:kn2]
    tau = lay.tau_of[:kn2].astype(float)
    p = spec.prices.p
    prm = spec.params
    pt, pt1 = p[asset, t - 1], p[asset, t]
    lin = np.zeros(lay.step_width)
    lin[:kn2] -= tau * (pt1 - pt)
    lin[:kn2] += prm.delta * pt
    lin[:kn2] += prm.delta * (pt1 if t < lay.T else p[asset, lay.T - 1])
    lin[:kn2] += prm.rho_s * pt * (tau < 0)
    y_slice = slice(kn2 + lay.nb, lay.step_width)
    lin[y_slice] -= prm.rho_c * prm.u * lay.slack_weight[y_slice]
    return lin


@pytest.mark.parametrize("spec", [toy_spec(n=1, T=1, seed=0), toy_spec(n=3, T=2, seed=2),
                                  synthetic_spec(n=4, T=5, k=2, B=6, C=3, seed=3)])
def test_linear_terms_equal_per_step_reference(spec):
    linear = build_qubo(spec, include_penalty=False).linear
    expected = np.concatenate([step_linear_reference(spec, t) for t in range(1, spec.T + 1)])
    assert np.array_equal(linear, expected)


@pytest.mark.parametrize("signed_risk", [True, False])
@pytest.mark.parametrize("q", [0.0, 1e-5, 1e-3])
@pytest.mark.parametrize("seed", range(20))
def test_resolve_penalty_equals_build_qubo_exactly(seed, q, signed_risk):
    spec = toy_spec(n=3, T=2, q=q, seed=seed, signed_risk=signed_risk)
    P = resolve_penalty(spec)
    assert P == build_qubo(spec).penalty_weight
    assert P == block_penalty(spec)


def test_resolve_penalty_is_one_when_every_coefficient_is_zero():
    """Flat prices, no costs and q = 0: there is no coefficient to dominate, so P = 1."""
    params = FrictionParams(q=0.0, delta=0.0, rho_c=0.0, rho_s=0.0, u=1.0)
    spec = ProblemSpec(k=1, B=1, C=1, params=params, prices=BlockPrices(p=np.ones((2, 3))),
                       covariances=CovarianceSeries(sigma=np.zeros((2, 2, 2))))
    assert resolve_penalty(spec) == build_qubo(spec).penalty_weight == 1.0


def test_resolve_penalty_keeps_explicit_weight():
    spec = toy_spec(n=2, T=2, q=1e-4, seed=4)
    spec = dataclasses.replace(spec, params=dataclasses.replace(spec.params, P=1234.5))
    assert resolve_penalty(spec) == build_qubo(spec).penalty_weight == 1234.5


def test_resolve_penalty_equals_build_qubo_at_exp1_size():
    spec = synthetic_spec(n=200, T=10, k=3, B=60, C=10, q=0.01)
    P = resolve_penalty(spec)
    assert P == build_qubo(spec).penalty_weight
    assert P == block_penalty(spec)


def test_evaluation_path_builds_no_block(monkeypatch):
    spec = toy_spec(n=3, T=2, q=1e-3, seed=23)
    rng = np.random.default_rng(24)
    x = rng.integers(0, 2, spec.layout.total).astype(np.int8)
    before = (resolve_penalty(spec), objective_breakdown(spec, x),
              step_components(spec, x), economic_metrics(spec, x))

    def no_block(*args, **kwargs):
        raise AssertionError("evaluation assembled a (w, w) block")

    monkeypatch.setattr(qubo_module, "_block_rows", no_block)
    assert resolve_penalty(spec) == before[0]
    assert objective_breakdown(spec, x) == before[1]
    after = step_components(spec, x)
    assert after.keys() == before[2].keys()
    for key, values in after.items():
        assert np.array_equal(values, before[2][key])
    assert economic_metrics(spec, x) == before[3]
    build_qubo(spec)


EXP1 = dict(n=200, T=10, k=3, B=60, C=10, q=0.01)
EXP2 = dict(n=499, T=15, k=3, B=60, C=10, q=0.01)


def count_scans(monkeypatch) -> list:
    """Record each penalty scan of the covariances, whoever asks for it."""
    scans = []
    scan = qubo_module._penalty_scan

    @functools.wraps(scan)
    def counting_scan(spec):
        scans.append(spec)
        return scan(spec)

    monkeypatch.setattr(qubo_module, "_penalty_scan", counting_scan)
    return scans


def test_penalty_is_scanned_once_per_spec(monkeypatch):
    spec = toy_spec(n=3, T=2, q=1e-3, seed=5)
    x = np.random.default_rng(5).integers(0, 2, spec.layout.total)
    scans = count_scans(monkeypatch)
    P = resolve_penalty(spec)
    assert build_qubo(spec).penalty_weight == P
    objective_breakdown(spec, x)
    step_components(spec, x)
    assert resolve_penalty(spec) == P
    assert len(scans) == 1 and scans[0] is spec
    copy = dataclasses.replace(spec)  # equal fields, a new instance: it scans its own
    assert resolve_penalty(copy) == resolve_penalty(copy) == P
    assert len(scans) == 2 and scans[1] is copy


def test_replaced_q_scans_its_own_penalty():
    spec = synthetic_spec(n=6, T=4, q=1e-2, seed=3)  # risk sets P here, and not at q = 0
    P = resolve_penalty(spec)
    for q2 in (1.0, 0.0):
        replaced = dataclasses.replace(spec, params=dataclasses.replace(spec.params, q=q2))
        fresh = synthetic_spec(n=6, T=4, q=q2, seed=3)
        assert resolve_penalty(replaced) == resolve_penalty(fresh) != P
        assert build_qubo(replaced).penalty_weight == resolve_penalty(fresh)
    assert resolve_penalty(spec) == P


def test_term_rows_are_formed_once_and_read_only():
    spec = toy_spec(n=3, T=2, seed=6)
    terms = qubo_module._linear_terms(spec)
    assert qubo_module._linear_terms(spec) is terms
    assert list(terms) == ["profit", "entry", "exit", "short", "cash"]
    for row in terms.values():
        assert row.shape == (spec.T, spec.layout.step_width)
        with pytest.raises(ValueError):
            row[0, 0] = 1.0
    assert qubo_module._linear_terms(dataclasses.replace(spec)) is not terms


def whole_matrix_penalty(spec: ProblemSpec) -> float:
    """resolve_penalty as whole-matrix expressions: the risk products of each step are
    np.outer, times q, times Sigma_t, each a new array."""
    prm = spec.params
    p = spec.prices.p
    terms = qubo_module._linear_terms(spec)
    band = np.abs(qubo_module._turnover_band(terms)).max(initial=0.0)
    maxcoef = max(np.abs(sum(terms.values())).max(), band)
    if prm.q > 0:
        for t in range(spec.T):
            risk = prm.q * np.outer(p[:, t], p[:, t]) * spec.covariances.sigma[t]
            maxcoef = max(maxcoef, np.abs(risk).max())
    if maxcoef == 0.0:
        return 1.0
    return float(10.0 * maxcoef * (spec.B + spec.C))


@pytest.mark.parametrize("signed_risk", [True, False])
@pytest.mark.parametrize("q", [0.0, 0.01])
def test_resolve_penalty_equals_whole_matrix_reference_at_exp2_size(q, signed_risk):
    spec = synthetic_spec(seed=1, **{**EXP2, "q": q})
    spec = dataclasses.replace(spec, signed_risk=signed_risk)
    assert resolve_penalty(spec) == whole_matrix_penalty(spec)


def test_exp2_penalty_scan_allocates_one_matrix():
    spec = synthetic_spec(seed=1, **EXP2)
    terms = qubo_module._linear_terms(spec)  # the layout and the term rows exist from here
    tracemalloc.start()
    try:
        resolve_penalty(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * spec.n**2 * 8 + sum(row.nbytes for row in terms.values())


def block_reference(spec: ProblemSpec, t: int, P: float) -> np.ndarray:
    """Step t's (0-based) dense block, assembled directly: risk on the trading slots
    (outer product, times q, times the gathered covariance), then P * R'R."""
    lay = spec.layout
    w, kn2, nb = lay.step_width, 2 * lay.kn, lay.nb
    D = np.zeros((w, w))
    if spec.params.q > 0:
        asset = lay.asset_of[:kn2]
        wvec = lay.tau_of[:kn2].astype(float) if spec.signed_risk else np.ones(kn2)
        wp = wvec * spec.prices.p[asset, t]
        risk = D[:kn2, :kn2]
        np.outer(wp, wp, out=risk)
        risk *= spec.params.q
        risk *= spec.covariances.sigma[t][np.ix_(asset, asset)]
    R = np.zeros((2, w))
    R[0, :kn2] = 1.0
    R[0, kn2 : kn2 + nb] = 2.0 ** np.arange(nb)
    R[1, :kn2] = lay.tau_of[:kn2]
    R[1, kn2 + nb :] = 2.0 ** np.arange(lay.nc)
    return D + (R.T @ R) * P


def assert_block_readers_agree(spec: ProblemSpec, qubo, steps) -> None:
    """The materialised block, the export's row bands of 5 rows, and apply_flip's
    column of every position, equal the reference block with ==."""
    w = spec.layout.step_width
    for t in steps:
        D = block_reference(spec, t, qubo.penalty_weight)
        assert np.array_equal(qubo_module._block_rows(qubo, t, slice(None)), D)
        for start in range(0, w, 5):
            band = qubo_module._block_rows(qubo, t, slice(start, start + 5), start)
            assert np.array_equal(band, D[start:start + 5, start:])
        for j in range(w):
            bits = np.zeros(qubo.num_vars, dtype=np.int8)
            deltas = np.zeros(qubo.num_vars)
            apply_flip(qubo, bits, t * w + j, deltas)
            column = deltas[t * w : (t + 1) * w]
            assert np.array_equal(np.delete(column, j), np.delete(2.0 * D[:, j], j))


@pytest.mark.parametrize("include_penalty", [True, False])
@pytest.mark.parametrize("signed_risk", [True, False])
@pytest.mark.parametrize("q", [0.0, 1e-5, 1e-3])
@pytest.mark.parametrize("seed", range(20))
def test_block_readers_agree_on_toys(seed, q, signed_risk, include_penalty):
    spec = toy_spec(n=3, T=2, q=q, seed=seed, signed_risk=signed_risk)
    qubo = build_qubo(spec, include_penalty=include_penalty)
    assert_block_readers_agree(spec, qubo, range(spec.T))
    # to_sparse writes each pair term as 2 * D[i, j]; to_dense halves it back
    A, off = to_dense(to_sparse(qubo))
    w = spec.layout.step_width
    off_diagonal = ~np.eye(w, dtype=bool)
    for t in range(spec.T):
        D = block_reference(spec, t, qubo.penalty_weight)
        block = A[t * w : (t + 1) * w, t * w : (t + 1) * w]
        assert np.array_equal(block[off_diagonal], D[off_diagonal])
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(8, qubo.num_vars)).astype(np.int8)
    for x, dense in zip(X, dense_energies(A, off, X)):
        base = energy(qubo, x)
        assert base == pytest.approx(dense, rel=1e-12, abs=1e-6)
        flipped = np.repeat(x[None, :], qubo.num_vars, axis=0)
        flipped[np.arange(qubo.num_vars), np.arange(qubo.num_vars)] ^= 1
        by_energy = np.array([energy(qubo, f) for f in flipped]) - base
        assert np.allclose(delta_energies(qubo, x), by_energy, rtol=1e-9, atol=1e-6)


def test_block_readers_agree_at_exp1_size(monkeypatch):
    spec = synthetic_spec(seed=1, **EXP1)
    qubo = build_qubo(spec)
    assert_block_readers_agree(spec, qubo, [0, spec.T - 1])

    materialise = qubo_module._block_rows

    def one_row(qubo, t, rows, start=0):
        if not isinstance(rows, (int, np.integer)):
            raise AssertionError("a search kernel materialised a (w, w) block")
        return materialise(qubo, t, rows, start)

    monkeypatch.setattr(qubo_module, "_block_rows", one_row)
    rng = np.random.default_rng(2)
    x = cash_only_bits(spec)
    deltas = delta_energies(qubo, x)
    e = energy(qubo, x)
    for i in rng.integers(0, qubo.num_vars, size=200):
        e += apply_flip(qubo, x, int(i), deltas)
    fresh = delta_energies(qubo, x)
    assert np.abs(deltas - fresh).max() <= 1e-9 * np.abs(fresh).max()
    assert e == pytest.approx(energy(qubo, x), rel=1e-9)
    for i in rng.integers(0, qubo.num_vars, size=5):
        flipped = x.copy()
        flipped[i] ^= 1
        assert fresh[i] == pytest.approx(energy(qubo, flipped) - energy(qubo, x), rel=1e-9)


def _block_columns_reference(qubo, t, cols):
    """Column `cols` of step t's block D_t, formed with the penalty as P * R[:, cols]'R."""
    wp, slot, R = qubo.wp[t], qubo.slot, qubo.budget_rows
    D = np.multiply.outer(wp, wp[cols])
    D *= qubo.scale
    D *= qubo.core[t][:, slot[cols]][slot]
    D += qubo.penalty_weight * (R[:, cols].T @ R)
    return D


def _apply_flip_reference(qubo, bits, i, deltas):
    """The flip kernel apply_flip replaced: the column times 2 * d, then times 1 - 2x."""
    T, w = qubo.wp.shape
    t, j = divmod(i, w)
    d = 1.0 - 2.0 * bits[i]
    change = deltas[i]
    sl = slice(t * w, (t + 1) * w)
    col = 2.0 * _block_columns_reference(qubo, t, j) * d
    col[j] = 0.0
    deltas[sl] += (1.0 - 2.0 * bits[sl]) * col
    if t > 0:
        m = i - w
        deltas[m] += (1.0 - 2.0 * bits[m]) * qubo.cross[t - 1, j] * d
    if t < T - 1:
        m = i + w
        deltas[m] += (1.0 - 2.0 * bits[m]) * qubo.cross[t, j] * d
    bits[i] ^= 1
    deltas[i] = -change
    return float(change)


def _kernel_cases():
    for seed, signed, pen in itertools.product(range(2), (True, False), (True, False)):
        spec = toy_spec(n=3, T=2, q=1e-3, seed=seed, signed_risk=signed)
        yield pytest.param(build_qubo(spec, include_penalty=pen), None,
                           id=f"toy-{seed}-{'signed' if signed else 'unsigned'}-"
                              f"{'penalty' if pen else 'free'}")
    spec = synthetic_spec(n=20, T=6, seed=5)
    spec = dataclasses.replace(spec, params=dataclasses.replace(spec.params, P=1234.5))
    yield pytest.param(build_qubo(spec), None, id="synthetic-20x6-explicit-P")
    for seed in range(3):
        yield pytest.param(_random_one_block(seed), None, id=f"one-block-{seed}")
    spec = synthetic_spec(seed=1, **EXP1)
    yield pytest.param(build_qubo(spec), (0, spec.T - 1), id="exp1-first-last-step")


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=np.float64).view(np.int64),
                          np.asarray(b, dtype=np.float64).view(np.int64))


@pytest.mark.parametrize("qubo,steps", _kernel_cases())
def test_apply_flip_equals_reference_bit_for_bit(qubo, steps):
    """2,000 seeded flips leave the same deltas, bits and changes as the reference, raw bits."""
    T, w = qubo.wp.shape
    rng = np.random.default_rng(T * w)
    x = rng.integers(0, 2, qubo.num_vars).astype(np.int8)
    deltas = delta_energies(qubo, x)
    ref_x, ref_deltas = x.copy(), deltas.copy()
    steps = range(T) if steps is None else steps
    picks = rng.choice(steps, size=2000) * w + rng.integers(0, w, size=2000)
    for i in picks.tolist():
        change = apply_flip(qubo, x, i, deltas)
        ref_change = _apply_flip_reference(qubo, ref_x, i, ref_deltas)
        assert _same_bits(change, ref_change)
        assert np.array_equal(x, ref_x)
        assert _same_bits(deltas, ref_deltas)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("size", [EXP1, EXP2], ids=["exp1", "exp2"])
def test_cash_only_energy_is_exact_at_paper_size(size, seed):
    spec = synthetic_spec(seed=seed, **size)
    prm = spec.params
    expected = -prm.rho_c * prm.u * spec.C * spec.T
    assert energy(build_qubo(spec), cash_only_bits(spec)) == pytest.approx(expected, rel=1e-12,
                                                                           abs=0.0)


def test_exp2_qubo_stores_only_its_factors():
    spec = synthetic_spec(seed=1, **EXP2)
    tracemalloc.start()
    try:
        qubo = build_qubo(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    limit = max(spec.T * spec.n**2, spec.T * spec.layout.step_width)
    for field in dataclasses.fields(qubo):
        value = getattr(qubo, field.name)
        if isinstance(value, np.ndarray):
            assert value.size <= limit, field.name
    assert peak < 32 * 2**20


def test_to_dense_refuses_before_exporting(monkeypatch):
    qubo = build_qubo(synthetic_spec(seed=1, **EXP1))

    def no_export(*args, **kwargs):
        raise AssertionError("to_dense exported a problem over the dense limit")

    monkeypatch.setattr(qubo_module, "to_sparse", no_export)
    with pytest.raises(QuboError):
        to_dense(qubo)


def test_penalty_zero_on_feasible_assignments():
    spec = toy_spec(n=2, T=2, q=1e-4, seed=8)
    assert objective_breakdown(spec, cash_only_bits(spec))["penalty"] == 0.0


def test_objective_breakdown_sums_to_energy():
    spec = toy_spec(n=3, T=2, q=1e-4, seed=14)
    qubo = build_qubo(spec)
    rng = np.random.default_rng(15)
    for _ in range(10):
        x = rng.integers(0, 2, qubo.num_vars).astype(np.int8)
        parts = objective_breakdown(spec, x)
        assert sum(parts.values()) == pytest.approx(energy(qubo, x),
                                                    rel=1e-9, abs=1e-6)


def test_step_components_cash_only():
    spec = toy_spec(n=2, T=2, seed=1)
    comp = step_components(spec, cash_only_bits(spec))
    assert np.all(comp["transaction"] == 0)
    assert np.all(comp["risk"] == 0)
    assert np.all(comp["penalty"] == 0)
    # rho_c * u * C per step
    expected = spec.params.rho_c * spec.params.u * spec.C
    assert np.allclose(comp["cash_interest"], expected)


def test_repeated_terms_sum_on_every_path(tmp_path):
    path = tmp_path / "dup.qubo"
    path.write_text("p qubo 2 3 0.0\n0 1 2.0\n0 1 3.0\n1 1 2.0\n")
    sq = read_qubo_text(path)
    A, off = to_dense(sq)
    assert float(dense_energies(A, off, np.ones((1, 2)))[0]) == 7.0
    assert ising_value(to_ising(sq), [1, 1]) == 7.0
    # 7.0 is this file's maximum; the negated file has it as its minimum
    negated = SparseQubo(num_vars=2, rows=sq.rows, cols=sq.cols, vals=-sq.vals, offset=0.0)
    report = solve_exact(negated)
    assert report.best_energy == -7.0
    assert report.best.tolist() == [1, 1]


def test_to_dense_of_deduplicated_terms_places_each_once():
    sq = to_sparse(build_qubo(toy_spec(n=3, T=2, q=1e-3, seed=25)))
    A, off = to_dense(sq)
    expected = np.zeros_like(A)
    entry = np.where(sq.rows == sq.cols, sq.vals, sq.vals / 2.0)
    expected[sq.rows, sq.cols] = entry
    expected[sq.cols, sq.rows] = entry
    assert np.array_equal(A, expected)
    assert off == sq.offset


def test_qubo_text_roundtrip_is_byte_identical(tmp_path):
    sq = random_sparse_qubo(9, seed=33)
    first = tmp_path / "a.qubo"
    second = tmp_path / "b.qubo"
    write_qubo_text(sq, first)
    parsed = read_qubo_text(first)
    assert isinstance(parsed, SparseQubo)
    write_qubo_text(parsed, second)
    assert first.read_bytes() == second.read_bytes()


def test_ising_text_roundtrip_is_byte_identical(tmp_path):
    ising = to_ising(random_sparse_qubo(7, seed=34))
    first = tmp_path / "a.ising"
    second = tmp_path / "b.ising"
    write_ising_text(ising, first)
    parsed = read_qubo_text(first)
    assert isinstance(parsed, IsingModel)
    write_ising_text(parsed, second)
    assert first.read_bytes() == second.read_bytes()


def test_read_qubo_text_rejects_garbage(tmp_path):
    path = tmp_path / "bad.qubo"
    path.write_text("hello world\n")
    with pytest.raises(QuboParseError):
        read_qubo_text(path)
    path.write_text("p qubo 2 1 0.0\n0 5 1.0\n")
    with pytest.raises(QuboParseError):
        read_qubo_text(path)


def test_cross_coupling_only_between_adjacent_steps():
    spec = toy_spec(n=2, T=2, q=1e-4, seed=19)
    qubo = build_qubo(spec)
    lay = spec.layout
    kn2 = 2 * lay.kn
    assert qubo.cross.shape == (lay.T - 1, lay.step_width)
    # couplings exist only on trading slots, never on slack bits
    assert np.all(qubo.cross[:, kn2:] == 0)
    assert np.any(qubo.cross[:, :kn2] != 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**16))
def test_dense_energy_matches_term_sum(num_vars, seed):
    sq = random_sparse_qubo(num_vars, seed=seed)
    A, off = to_dense(sq)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, num_vars).astype(float)
    manual = off
    for i, j, v in zip(sq.rows, sq.cols, sq.vals):
        manual += v * x[i] * x[j]
    assert float(dense_energies(A, off, x[None, :])[0]) == pytest.approx(manual, rel=1e-12)


def test_to_dense_rejects_oversized():
    sq = SparseQubo(num_vars=10_000, rows=np.array([0]), cols=np.array([0]),
                    vals=np.array([1.0]), offset=0.0)
    with pytest.raises(QuboError):
        to_dense(sq)


def test_read_qubo_text_sums_repeated_terms(tmp_path):
    path = tmp_path / "dup.qubo"
    path.write_text("p qubo 2 3 0.0\n0 1 2.0\n0 1 3.0\n1 1 2.0\n")
    sq = read_qubo_text(path)
    assert sq.num_terms == 2
    assert sq.rows.tolist() == [0, 1] and sq.cols.tolist() == [1, 1]
    assert sq.vals.tolist() == [5.0, 2.0]
    A, off = to_dense(sq)
    assert float(dense_energies(A, off, np.ones((1, 2)))[0]) == 7.0
    assert ising_value(to_ising(sq), [1, 1]) == 7.0


def test_read_qubo_text_sorts_unordered_terms(tmp_path):
    path = tmp_path / "unsorted.qubo"
    path.write_text("p qubo 3 3 1.5\n1 2 4.0\n0 0 -1.0\n0 2 0.5\n")
    sq = read_qubo_text(path)
    assert list(zip(sq.rows.tolist(), sq.cols.tolist(), sq.vals.tolist())) == [
        (0, 0, -1.0), (0, 2, 0.5), (1, 2, 4.0)]
    assert sq.offset == 1.5


def test_read_qubo_text_keeps_written_arrays(tmp_path):
    sq = to_sparse(build_qubo(toy_spec(n=3, T=2, q=1e-3, seed=26)))
    path = tmp_path / "toy.qubo"
    write_qubo_text(sq, path)
    parsed = read_qubo_text(path)
    for name in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(parsed, name), getattr(sq, name))


def test_read_ising_text_sums_repeated_fields(tmp_path):
    path = tmp_path / "dup.ising"
    path.write_text("p ising 2 3 0.0\n0 0 1.0\n0 0 2.0\n0 1 0.5\n")
    ising = read_qubo_text(path)
    assert isinstance(ising, IsingModel)
    assert ising.h.tolist() == [3.0, 0.0]
    assert ising.j_vals.tolist() == [0.5]


def step_components_reference(spec: ProblemSpec, bits) -> dict[str, np.ndarray]:
    """The economic components written from prices and tau, independently of the
    term rows: a slot pays the turnover cost at its own price whenever its state
    changes, and the final step's holdings pay the liquidation leg."""
    lay = spec.layout
    x = np.asarray(bits, dtype=float).reshape(lay.T, lay.step_width)
    kn2 = 2 * lay.kn
    asset = lay.asset_of[:kn2]
    tau = lay.tau_of[:kn2].astype(float)
    p = spec.prices.p
    prm = spec.params
    T = lay.T
    trade = x[:, :kn2]
    y_bits = x[:, kn2 + lay.nb :]
    p_step = p[asset, :].T[:T]
    p_next = p[asset, :].T[1 : T + 1]
    prev = np.vstack([np.zeros(kn2), trade[:-1]])
    liquidation = np.zeros(T)
    liquidation[-1] = prm.delta * (p_step[-1] * trade[-1]).sum()
    return {
        "gross_profit": (trade * tau * (p_next - p_step)).sum(axis=1),
        "transaction": prm.delta * (p_step * (prev + trade - 2.0 * prev * trade)).sum(axis=1),
        "liquidation": liquidation,
        "short_cost": prm.rho_s * (p_step * trade * (tau < 0)).sum(axis=1),
        "cash_interest": prm.rho_c * prm.u * (y_bits @ lay.slack_weight[kn2 + lay.nb :]),
    }


def residuals_reference(spec: ProblemSpec, bits) -> np.ndarray:
    """The budget rows written slot by slot: B - trades - s-slack, C - signed trades - y-slack."""
    lay = spec.layout
    x = np.asarray(bits, dtype=np.int64).reshape(lay.T, lay.step_width)
    kn = lay.kn
    trade = x[:, : 2 * kn]
    s_value = x[:, 2 * kn : 2 * kn + lay.nb] @ lay.slack_weight[2 * kn : 2 * kn + lay.nb]
    y_value = x[:, 2 * kn + lay.nb :] @ lay.slack_weight[2 * kn + lay.nb :]
    asset_res = spec.B - trade.sum(axis=1) - s_value
    cash_res = spec.C - trade @ lay.tau_of[: 2 * kn] - y_value
    return np.stack([asset_res, cash_res], axis=1)


def assert_evaluation_matches_references(spec: ProblemSpec, x) -> None:
    comp = step_components(spec, x)
    for key, expected in step_components_reference(spec, x).items():
        assert np.all(np.abs(comp[key] - expected) <= 1e-12 * np.abs(expected)), key
    res = constraint_residuals(spec, x)
    assert res.dtype == np.int64
    assert np.array_equal(res, residuals_reference(spec, x))


@pytest.mark.parametrize("signed_risk", [True, False])
@pytest.mark.parametrize("q", [0.0, 1e-5, 1e-3])
@pytest.mark.parametrize("seed", range(20))
def test_evaluation_matches_references_on_toys(seed, q, signed_risk):
    spec = toy_spec(n=3, T=2, B=2, q=q, seed=seed, signed_risk=signed_risk)
    rng = np.random.default_rng(seed)
    for x in [cash_only_bits(spec), *rng.integers(0, 2, size=(4, spec.layout.total))]:
        assert_evaluation_matches_references(spec, x)


def test_evaluation_matches_references_at_exp1_size():
    spec = synthetic_spec(seed=1, **EXP1)
    random_point = np.random.default_rng(1).integers(0, 2, spec.layout.total)
    # descent from all-cash stays put at q = 0.01; from a random start it moves
    descent_point = local_descent(build_qubo(spec), random_point)
    for x in (cash_only_bits(spec), random_point, descent_point):
        assert_evaluation_matches_references(spec, x)


def test_step_components_build_one_block_qubo(monkeypatch):
    spec = toy_spec(n=3, T=2, B=2, q=1e-3, seed=27)
    x = np.random.default_rng(27).integers(0, 2, spec.layout.total)
    calls = []

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build_qubo(*args, **kwargs)

    monkeypatch.setattr(qubo_module, "build_qubo", counting_build)
    step_components(spec, x)
    assert len(calls) == 1


def test_code_built_sparse_qubo_sums_repeated_terms(tmp_path):
    repeated = SparseQubo(num_vars=3, rows=np.array([0, 0, 1, 0]), cols=np.array([1, 2, 2, 1]),
                          vals=np.array([2.0, -1.0, 4.0, -6.0]), offset=0.5)
    summed = SparseQubo(num_vars=3, rows=np.array([0, 0, 1]), cols=np.array([1, 2, 2]),
                        vals=np.array([-4.0, -1.0, 4.0]), offset=0.5)
    assert repeated.num_terms == summed.num_terms == 3
    for a, b in zip(to_dense(repeated), to_dense(summed)):
        assert np.array_equal(a, b)
    ising_a, ising_b = to_ising(repeated), to_ising(summed)
    assert np.array_equal(ising_a.h, ising_b.h) and ising_a.offset == ising_b.offset
    assert np.array_equal(ising_a.j_vals, ising_b.j_vals)
    exact_a, exact_b = solve_exact(repeated), solve_exact(summed)
    assert exact_a.best_energy == exact_b.best_energy == -3.5
    assert np.array_equal(exact_a.best, exact_b.best)
    path = tmp_path / "repeated.qubo"
    write_qubo_text(repeated, path)
    parsed = read_qubo_text(path)
    for name in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(parsed, name), getattr(summed, name))


@pytest.mark.parametrize("rows, cols, match", [
    ([-1], [0], "must lie in 0..2"),
    ([0, 1], [1, 3], "must lie in 0..2"),
    ([2], [1], "i <= j"),
    ([0.0], [1.0], "integers"),
], ids=["negative", "beyond-num-vars", "lower-triangle", "float-indices"])
def test_code_built_sparse_qubo_rejects_bad_indices(rows, cols, match):
    with pytest.raises(QuboError, match=match):
        SparseQubo(num_vars=3, rows=np.array(rows), cols=np.array(cols),
                   vals=np.ones(len(rows)), offset=0.0)


@pytest.mark.parametrize("rows, cols, match", [
    ([-1], [0], "must lie in 0..2"),
    ([0, 1], [1, 3], "must lie in 0..2"),
    ([3], [0], "must lie in 0..2"),
    ([0.0], [1.0], "integers"),
], ids=["negative", "beyond-num-spins", "row-beyond-num-spins", "float-indices"])
def test_code_built_ising_model_rejects_bad_indices(rows, cols, match):
    with pytest.raises(QuboError, match=match):
        IsingModel(h=np.zeros(3), j_rows=np.array(rows), j_cols=np.array(cols),
                   j_vals=np.ones(len(rows)), offset=0.0)


def test_index_dtype_is_the_narrowest_that_holds_every_index():
    """Indices run to num_vars - 1: int16 below 2^15 variables, int32 below 2^31, else int64."""
    assert qubo_module._index_dtype(0) is np.int16
    assert qubo_module._index_dtype(2**15 - 1) is np.int16
    assert qubo_module._index_dtype(2**15) is np.int32
    assert qubo_module._index_dtype(2**31 - 1) is np.int32
    assert qubo_module._index_dtype(2**31) is np.int64


def test_producers_give_int16_indices(tmp_path):
    spec = toy_spec(n=3, T=2, q=1e-3, seed=2)
    sparse = to_sparse(build_qubo(spec))
    ising = to_ising(build_qubo(spec))
    assert sparse.rows.dtype == sparse.cols.dtype == np.int16
    assert ising.j_rows.dtype == ising.j_cols.dtype == np.int16
    path = tmp_path / "toy.qubo"
    write_qubo_text(sparse, path)
    parsed = read_qubo_text(path)
    assert parsed.rows.dtype == parsed.cols.dtype == np.int16
    write_ising_text(ising, tmp_path / "toy.ising")
    parsed_ising = read_qubo_text(tmp_path / "toy.ising")
    assert parsed_ising.j_rows.dtype == parsed_ising.j_cols.dtype == np.int16


@pytest.mark.parametrize("num_vars, index", [(2**15 - 1, np.int16), (2**15, np.int32)])
def test_producers_widen_to_int32_at_two_to_the_15(tmp_path, num_vars, index):
    """The last variable, num_vars - 1, keeps its value through every producer."""
    last = num_vars - 1
    sparse = SparseQubo(num_vars=num_vars, rows=np.array([0, 5]), cols=np.array([last, last]),
                        vals=np.array([1.5, -2.0]), offset=0.0)
    ising = to_ising(sparse)
    assert sparse.rows.dtype == sparse.cols.dtype == index
    assert ising.j_rows.dtype == ising.j_cols.dtype == index
    write_qubo_text(sparse, tmp_path / "wide.qubo")
    parsed = read_qubo_text(tmp_path / "wide.qubo")
    assert parsed.rows.dtype == parsed.cols.dtype == index
    assert parsed.cols.tolist() == [last, last]
    write_ising_text(ising, tmp_path / "wide.ising")
    parsed_ising = read_qubo_text(tmp_path / "wide.ising")
    assert parsed_ising.j_rows.dtype == parsed_ising.j_cols.dtype == index
    assert parsed_ising.j_cols.tolist() == [last, last]


@pytest.mark.parametrize("index", [np.int64, np.int32, np.int16, np.uint64, list])
def test_sparse_qubo_from_any_integer_indices_is_the_same_problem(tmp_path, index):
    """Any integer build gives the int16 build's matrix, energy and bytes."""
    ref = random_sparse_qubo(9, seed=3)

    def indices(a):
        return a.tolist() if index is list else a.astype(index)

    sq = SparseQubo(num_vars=9, rows=indices(ref.rows), cols=indices(ref.cols), vals=ref.vals,
                    offset=ref.offset)
    assert sq.rows.dtype == sq.cols.dtype == np.int16
    A, off = to_dense(sq)
    A_ref, off_ref = to_dense(ref)
    assert np.array_equal(A, A_ref) and off == off_ref
    x = np.random.default_rng(0).integers(0, 2, 9).astype(np.int8)
    assert (energy(qubo_module._as_block(sq), x)
            == energy(qubo_module._as_block(ref), x))
    write_qubo_text(sq, tmp_path / "a.qubo")
    write_qubo_text(ref, tmp_path / "b.qubo")
    assert (tmp_path / "a.qubo").read_bytes() == (tmp_path / "b.qubo").read_bytes()
