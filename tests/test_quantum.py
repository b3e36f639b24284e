"""Statevector simulator: exact diagonalization oracle, closed-form
single-qubit cases, variational bounds, annealing, and sampling.
"""
import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest

from qubofolio.qubo import (IsingModel, build_qubo, ising_value, read_qubo_text, to_ising,
                            write_ising_text)
from qubofolio.quantum import (
    QUBIT_CAP,
    AnnealSchedule,
    QaoaParams,
    QuantumSimError,
    anneal_run,
    diagonalize_cost,
    normalize_ising,
    qaoa_optimize,
    qaoa_run,
    vqe_run,
)
from qubofolio.toy import random_sparse_qubo, toy_spec


def _single_field(value=1.0):
    empty = np.array([], dtype=int)
    return IsingModel(h=np.array([value]), j_rows=empty, j_cols=empty,
                      j_vals=np.array([]), offset=0.0)


def _random_ising(m, seed):
    return to_ising(random_sparse_qubo(m, seed=seed))


def test_diagonalize_zero_hamiltonian():
    empty = np.array([], dtype=int)
    ising = IsingModel(h=np.zeros(3), j_rows=empty, j_cols=empty,
                       j_vals=np.array([]), offset=2.5)
    cost = diagonalize_cost(ising)
    assert np.all(cost.energies == 2.5)


def test_diagonalize_single_spin_sign_convention():
    cost = diagonalize_cost(_single_field(1.0))
    # basis state 0 is spin -1 (bit 0), state 1 is spin +1
    assert np.allclose(cost.energies, [-1.0, +1.0])


def test_diagonalize_matches_direct_evaluation():
    ising = _random_ising(3, seed=5)
    cost = diagonalize_cost(ising)
    for z in range(8):
        spins = [1 if (z >> i) & 1 else -1 for i in range(3)]
        assert cost.energies[z] == pytest.approx(ising_value(ising, spins), abs=1e-12)


def test_ground_states_collects_all_degenerate_minima():
    empty = np.array([], dtype=int)
    # J only: both aligned configurations are tied ground states
    ising = IsingModel(h=np.zeros(2), j_rows=np.array([0]), j_cols=np.array([1]),
                       j_vals=np.array([-1.0]), offset=0.0)
    ground = diagonalize_cost(ising).ground_states()
    assert set(ground.tolist()) == {0b00, 0b11}


def test_qubit_cap_enforced():
    # the cap is checked before any 2^m array is formed
    with pytest.raises(QuantumSimError, match="21 qubits exceeds the simulator cap of 20"):
        diagonalize_cost(_random_ising(QUBIT_CAP + 1, seed=1))


def test_qaoa_zero_layers_gives_uniform_expectation():
    ising = _random_ising(4, seed=7)
    cost = diagonalize_cost(ising)
    doc = qaoa_run(ising, QaoaParams((), ()), shots=0, seed=0)
    assert doc["expectation"] == pytest.approx(float(cost.energies.mean()), rel=1e-12)


def test_zero_layers_run_the_start_state_through_the_optimisers():
    """p = 0: QAOA's uniform superposition and VQE's |0...0>, with no angles to set."""
    ising = _random_ising(4, seed=7)
    cost = diagonalize_cost(ising)
    params, report = qaoa_optimize(ising, layers=0, restarts=3, seed=0)
    assert params == QaoaParams((), ())
    assert report["expectation"] == qaoa_run(ising, params, shots=0)["expectation"]
    assert report["expectation"] == pytest.approx(float(cost.energies.mean()), rel=1e-12)
    doc = vqe_run(ising, layers=0, restarts=3, seed=0)
    assert doc["params"] == {"layers": 0, "theta": []}
    assert doc["expectation"] == cost.energies[0]
    assert doc["restart_trace"] == [cost.energies[0]] * 3
    assert doc["best_bits"] == "0000"


def test_optimizers_reject_a_negative_layer_count():
    ising = _random_ising(3, seed=2)
    with pytest.raises(QuantumSimError, match="^layers must be >= 0$"):
        qaoa_optimize(ising, layers=-1)
    with pytest.raises(QuantumSimError, match="^layers must be >= 0$"):
        vqe_run(ising, layers=-1)


def test_qaoa_params_need_one_beta_per_gamma():
    with pytest.raises(QuantumSimError, match="^gammas and betas must have equal length$"):
        QaoaParams((0.1, 0.2), (0.3,))


def test_qaoa_single_qubit_reaches_ground():
    params, report = qaoa_optimize(_single_field(1.0), layers=1, seed=0)
    assert report["expectation"] <= -0.99
    doc = qaoa_run(_single_field(1.0), params, shots=2048, seed=0)
    assert doc["ground_probability"] >= 0.99
    assert doc["best_bits"] == "0"  # spin -1


def test_qaoa_antiferromagnetic_pair():
    empty = np.array([], dtype=int)
    ising = IsingModel(h=np.zeros(2), j_rows=np.array([0]), j_cols=np.array([1]),
                       j_vals=np.array([1.0]), offset=0.0)
    params, _ = qaoa_optimize(ising, layers=2, seed=1)
    doc = qaoa_run(ising, params, shots=4096, seed=1)
    top = sorted(doc["samples_hist"], key=doc["samples_hist"].get)[-2:]
    assert set(top) == {"01", "10"}


def test_qaoa_expectation_respects_variational_bound():
    for seed in range(5):
        ising = _random_ising(5, seed=seed)
        cost = diagonalize_cost(ising)
        params, report = qaoa_optimize(ising, layers=2, restarts=3, seed=seed)
        assert report["expectation"] >= cost.ground_energy - 1e-9


def test_vqe_zero_hamiltonian_constant():
    empty = np.array([], dtype=int)
    ising = IsingModel(h=np.zeros(2), j_rows=empty, j_cols=empty,
                       j_vals=np.array([]), offset=1.25)
    doc = vqe_run(ising, layers=1, restarts=2, seed=0, maxiter=30)
    assert doc["expectation"] == pytest.approx(1.25, abs=1e-9)


def test_vqe_single_qubit_exact_ground():
    doc = vqe_run(_single_field(1.0), layers=1, seed=0)
    assert doc["expectation"] == pytest.approx(-1.0, abs=1e-6)


def test_vqe_variational_bound_on_random_instances():
    for seed in range(4):
        ising = _random_ising(6, seed=100 + seed)
        cost = diagonalize_cost(ising)
        doc = vqe_run(ising, layers=2, restarts=3, seed=seed, maxiter=150)
        assert doc["expectation"] >= cost.ground_energy - 1e-9


def test_anneal_zero_cost_stays_uniform():
    empty = np.array([], dtype=int)
    ising = IsingModel(h=np.zeros(3), j_rows=empty, j_cols=empty,
                       j_vals=np.array([]), offset=0.0)
    doc = anneal_run(ising, AnnealSchedule(total_time=10, dt=0.05), shots=0)
    # every bitstring remains equally likely: ground set is everything
    assert doc["ground_probability"] == pytest.approx(1.0, abs=1e-9)
    assert doc["expectation"] == pytest.approx(0.0, abs=1e-9)


def test_anneal_two_qubit_high_ground_probability():
    # seeded instance with a healthy spectral gap
    ising = _random_ising(2, seed=3)
    doc = anneal_run(ising, AnnealSchedule(total_time=50, dt=0.01), shots=0)
    assert doc["ground_probability"] >= 0.99


def test_anneal_ground_probability_monotone_in_time():
    ising = _random_ising(4, seed=3)
    probs = []
    for tau in (1.0, 10.0, 100.0):
        doc = anneal_run(ising, AnnealSchedule(total_time=tau, dt=0.01), shots=0)
        probs.append(doc["ground_probability"])
    assert probs[0] <= probs[1] <= probs[2]


def test_anneal_schedule_validation():
    nan = math.nan  # passed both comparisons, and .steps then raised a bare ValueError
    for total_time, dt in ((1.0, 0.0), (1.0, 2.0), (nan, 0.01), (1.0, nan), (nan, nan)):
        with pytest.raises(QuantumSimError):
            AnnealSchedule(total_time=total_time, dt=dt)


@pytest.mark.parametrize("total_time, dt", [(math.inf, 0.01), (1e300, 1e-300)],
                         ids=["infinite-time", "infinitely-many-steps"])
def test_anneal_schedule_rejects_an_infinite_step_count(total_time, dt):
    with pytest.raises(QuantumSimError, match="^total_time and total_time / dt must be finite$"):
        AnnealSchedule(total_time=total_time, dt=dt)


def test_sampling_matches_amplitudes_within_multinomial_bounds():
    ising = _random_ising(4, seed=9)
    params, _ = qaoa_optimize(ising, layers=1, restarts=2, seed=0)
    shots = 100_000
    doc = qaoa_run(ising, params, shots=shots, seed=0)
    # exact probabilities straight from the simulator internals
    from qubofolio.quantum import _qaoa_state

    cost = diagonalize_cost(ising)
    state, _ = _qaoa_state(cost, params)
    state_probs = np.abs(state) ** 2
    for z in range(16):
        bits = format(z, "04b")[::-1]
        count = doc["samples_hist"].get(bits, 0)
        p = state_probs[z]
        sigma = math.sqrt(shots * p * (1 - p))
        assert abs(count - shots * p) <= 3.0 * sigma + 1.0


def test_run_doc_shape():
    ising = _random_ising(3, seed=2)
    doc = anneal_run(ising, AnnealSchedule(total_time=5, dt=0.05), shots=64, seed=1)
    for key in ("algo", "qubits", "ground_energy", "ground_probability",
                "expectation", "best_bits", "params", "samples_hist", "norm_drift"):
        assert key in doc
    assert doc["algo"] == "anneal"
    assert doc["qubits"] == 3
    assert sum(doc["samples_hist"].values()) == 64
    assert len(doc["best_bits"]) == 3
    qaoa = qaoa_run(ising, QaoaParams((0.4, 1.3), (0.7, 0.2)), shots=64, seed=1)
    vqe = vqe_run(ising, layers=1, restarts=1, seed=1, maxiter=20)
    for other, algo in ((qaoa, "qaoa"), (vqe, "vqe")):
        assert other["algo"] == algo
        assert set(doc) - {"params"} <= set(other)
        assert 0.0 <= other["norm_drift"] <= 1e-9


def test_normalize_ising_preserves_minimizers():
    ising = _random_ising(4, seed=12)
    big = IsingModel(h=ising.h * 1e5, j_rows=ising.j_rows, j_cols=ising.j_cols,
                     j_vals=ising.j_vals * 1e5, offset=ising.offset * 1e5)
    scaled, scale = normalize_ising(big)
    cost_big = diagonalize_cost(big)
    cost_scaled = diagonalize_cost(scaled)
    assert np.allclose(cost_scaled.energies * scale, cost_big.energies, rtol=1e-12)
    assert np.array_equal(cost_scaled.ground_states(), cost_big.ground_states())


# --- grouped gate kernel, diagonalisation by doubling, norm check ----------------


def _apply_single_reference(state, qubit, gate):
    """Per-qubit 2x2 gate application, in place; any gate on any statevector."""
    m = state.shape[0].bit_length() - 1
    shaped = state.reshape(1 << (m - qubit - 1), 2, 1 << qubit)
    a = gate[0, 0] * shaped[:, 0, :] + gate[0, 1] * shaped[:, 1, :]
    b = gate[1, 0] * shaped[:, 0, :] + gate[1, 1] * shaped[:, 1, :]
    shaped[:, 0, :] = a
    shaped[:, 1, :] = b


def _layer_reference(state, gates):
    """gates[q] on every qubit q, one qubit at a time, on a copy of `state`."""
    out = state.astype(np.result_type(state, *gates))
    for q, gate in enumerate(gates):
        _apply_single_reference(out, q, gate)
    return out


def _rx_reference(theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry_reference(theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _frame(m):
    """The diagonal of D = diag(i^popcount(z)), which maps a frame state to psi."""
    idx = np.arange(1 << m)
    popcount = sum((idx >> q) & 1 for q in range(m))
    return np.array([1, 1j, -1, -1j])[popcount % 4]


def _random_orthogonal(rng, reflection):
    """A random real 2x2 orthogonal gate, with determinant -1 when `reflection`."""
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    if (np.linalg.det(q) < 0) != reflection:
        q[:, 0] *= -1.0
    return q


def _random_state(rng, m, dtype):
    state = rng.normal(size=1 << m).astype(dtype)
    if dtype is complex:
        state += 1j * rng.normal(size=1 << m)
    return state / np.linalg.norm(state)


# every remainder of the group size 4, and states of one to four groups
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13])
def test_apply_gates_matches_per_qubit_reference(m):
    from qubofolio.quantum import _apply_gates, _rotation

    rng = np.random.default_rng(m)
    gates = [_random_orthogonal(rng, reflection=q % 3 == 0) if q % 3 != 1
             else _rotation(rng.uniform(-math.pi, math.pi)) for q in range(m)]
    for dtype in (float, complex):
        state = _random_state(rng, m, dtype)
        expected = _layer_reference(state, gates)
        given, spare = state.copy(), np.empty_like(state)
        got, other = _apply_gates(given, spare, gates)
        assert got.dtype == state.dtype and got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12
        # the result is one of the two arrays passed in, and the other is the spare
        assert {id(got), id(other)} == {id(given), id(spare)}
        assert np.shares_memory(got, given) or np.shares_memory(got, spare)


@pytest.mark.parametrize("m", [1, 3, 4, 7, 10])
def test_frame_rotation_layer_equals_rx_layer(m):
    from qubofolio.quantum import _apply_gates, _rotation

    rng = np.random.default_rng(40 + m)
    thetas = rng.uniform(-math.pi, math.pi, size=m)
    psi = _random_state(rng, m, complex)
    expected = _layer_reference(psi, [_rx_reference(t) for t in thetas])
    d = _frame(m)
    phi, _ = _apply_gates(psi / d, np.empty_like(psi), [_rotation(t) for t in thetas])
    assert np.max(np.abs(d * phi - expected)) <= 1e-12


@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
def test_frame_start_is_the_uniform_state_mapped_back_exactly(m):
    from qubofolio.quantum import _frame_start

    uniform = np.full(1 << m, 1.0 / math.sqrt(1 << m), dtype=complex)
    assert np.array_equal(_frame_start(m), uniform * np.conj(_frame(m)))


@pytest.mark.parametrize("m, layers", [(1, 1), (3, 2), (6, 3), (9, 2)])
def test_vqe_state_matches_complex_reference(m, layers):
    from qubofolio.quantum import _cz_ring_sign, _vqe_state

    rng = np.random.default_rng(m)
    theta = rng.uniform(-math.pi, math.pi, size=layers * m)
    sign = _cz_ring_sign(m)
    expected = np.zeros(1 << m, dtype=complex)
    expected[0] = 1.0
    for layer in range(layers):
        expected = _layer_reference(
            expected, [_ry_reference(t) for t in theta[layer * m : (layer + 1) * m]])
        expected *= sign
    state, drift = _vqe_state(m, layers, theta, sign)
    assert state.dtype == np.float64
    assert np.max(np.abs(state - expected)) <= 1e-12
    assert drift <= 1e-9


def test_cz_ring_sign_matches_sequential_flips():
    from qubofolio.quantum import _cz_ring_sign

    for m in range(1, 7):
        idx = np.arange(1 << m)
        expected = np.ones(1 << m)
        if m >= 2:
            for q in range(m if m > 2 else 1):  # m = 2 has one distinct pair
                both = ((idx >> q) & 1) & ((idx >> ((q + 1) % m)) & 1)
                expected[both.astype(bool)] *= -1.0
        assert np.array_equal(_cz_ring_sign(m), expected)


def _repeated_pair_ising():
    # (0, 2) appears twice; IsingModel sums the two
    return IsingModel(h=np.array([0.5, -1.0, 0.25, 0.0, 2.0]),
                      j_rows=np.array([0, 1, 0, 3, 0]),
                      j_cols=np.array([2, 4, 2, 4, 1]),
                      j_vals=np.array([1.5, -0.75, -3.0, 0.5, 1.0]),
                      offset=-0.125)


def _unordered_and_self_pair_ising():
    # (3, 1) is the pair (1, 3) given lower-triangle first; (2, 2) multiplies s_2 by itself
    return IsingModel(h=np.array([0.5, -1.0, 0.25, 1.5]),
                      j_rows=np.array([3, 0, 2, 1]),
                      j_cols=np.array([1, 2, 2, 3]),
                      j_vals=np.array([1.25, -0.5, 0.75, -2.0]),
                      offset=0.375)


def _spin_states(m):
    for z in range(1 << m):
        yield [1 if (z >> i) & 1 else -1 for i in range(m)]


def test_ising_model_stores_its_couplings_canonical():
    ising = _unordered_and_self_pair_ising()
    assert ising.j_rows.dtype == ising.j_cols.dtype == np.int16
    assert (ising.j_rows.tolist(), ising.j_cols.tolist()) == ([0, 1], [2, 3])
    assert ising.j_vals.tolist() == [-0.5, 1.25 + -2.0]  # (3, 1) and (1, 3) summed in order
    assert ising.offset == 0.375 + 0.75  # the self pair (2, 2) is the constant 0.75
    again = IsingModel(h=ising.h, j_rows=ising.j_rows, j_cols=ising.j_cols,
                       j_vals=ising.j_vals, offset=ising.offset)
    assert again.j_rows is ising.j_rows and again.j_cols is ising.j_cols
    assert again.j_vals is ising.j_vals and again.offset == ising.offset


@pytest.mark.parametrize("make", [_repeated_pair_ising, _unordered_and_self_pair_ising],
                         ids=["repeated-pair", "unordered-and-self-pair"])
def test_ising_text_round_trip_keeps_the_model(tmp_path, make):
    """The written file lists each coupling once with i < j, and reads back as the same model."""
    ising = make()
    path = tmp_path / "model.ising"
    write_ising_text(ising, path)
    back = read_qubo_text(path)
    assert isinstance(back, IsingModel)
    pairs = list(zip(back.j_rows.tolist(), back.j_cols.tolist()))
    assert pairs == sorted(set(pairs)) and all(i < j for i, j in pairs)
    for spins in _spin_states(ising.num_spins):
        assert ising_value(back, spins) == ising_value(ising, spins)


def test_normalize_ising_scales_a_repeated_pair_as_its_summed_twin():
    ising = _repeated_pair_ising()
    twin = IsingModel(h=ising.h, j_rows=np.array([0, 0, 1, 3]), j_cols=np.array([1, 2, 4, 4]),
                      j_vals=np.array([1.0, 1.5 + -3.0, -0.75, 0.5]), offset=-0.125)
    (scaled, scale), (twin_scaled, twin_scale) = normalize_ising(ising), normalize_ising(twin)
    assert scale == twin_scale == 2.0  # |h_4|; the repeats alone would read 3.0
    for field in ("h", "j_rows", "j_cols", "j_vals"):
        assert np.array_equal(getattr(scaled, field), getattr(twin_scaled, field))
    assert scaled.offset == twin_scaled.offset


def _no_spin_ising():
    empty = np.array([], dtype=int)
    return IsingModel(h=np.zeros(0), j_rows=empty, j_cols=empty, j_vals=np.array([]),
                      offset=-1.5)


def _diagonalize_reference(ising):
    """The doubling loop diagonalize_cost ran before it shared qubo.all_energies."""
    m = ising.num_spins
    rows, cols, vals = ising.j_rows, ising.j_cols, ising.j_vals
    same = rows == cols
    coupling = np.zeros((m, m))
    np.add.at(coupling, (np.minimum(rows, cols)[~same], np.maximum(rows, cols)[~same]),
              vals[~same])
    energies = np.array([ising.offset + vals[same].sum()])
    fields = ising.h.reshape(m, 1)
    for k in range(m):
        f, later = fields[0], fields[1:]
        energies = np.concatenate((energies - f, energies + f))
        j_k = coupling[k, k + 1 :, None]
        fields = np.concatenate((later - j_k, later + j_k), axis=1)
    return energies


@pytest.mark.parametrize("ising", [_random_ising(m, seed=m) for m in (1, 2, 4, 7, 10)]
                         + [_repeated_pair_ising(), _unordered_and_self_pair_ising(),
                            _no_spin_ising(), _single_field(-0.75)])
def test_diagonalize_cost_equals_ising_value_on_every_state(ising):
    energies = diagonalize_cost(ising).energies
    for z, spins in enumerate(_spin_states(ising.num_spins)):
        value = ising_value(ising, spins)
        assert abs(energies[z] - value) <= 1e-12 * max(1.0, abs(value))
    assert np.array_equal(energies, _diagonalize_reference(ising))


def test_anneal_norm_check_fires_on_a_non_unitary_mixer(monkeypatch):
    from qubofolio import quantum

    rotation = quantum._rotation
    monkeypatch.setattr(quantum, "_rotation", lambda theta: 1.001 * rotation(theta))
    with pytest.raises(QuantumSimError, match="norm"):
        anneal_run(_random_ising(3, seed=2), AnnealSchedule(total_time=5, dt=0.05), shots=0)


def test_qaoa_norm_check_fires_on_a_non_unitary_mixer(monkeypatch):
    from qubofolio import quantum

    rotation = quantum._rotation
    monkeypatch.setattr(quantum, "_rotation", lambda theta: 1.001 * rotation(theta))
    with pytest.raises(QuantumSimError, match="norm"):
        qaoa_run(_random_ising(3, seed=2), QaoaParams((0.4,), (0.7,)), shots=0)


def test_norm_drift_is_the_largest_deviation_the_check_saw(monkeypatch):
    from qubofolio import quantum

    # each gate scales the norm^2 by f^2, too little for the check to raise
    f = 1.0 + 1e-12
    rotation = quantum._rotation
    monkeypatch.setattr(quantum, "_rotation", lambda theta: f * rotation(theta))
    ising = _random_ising(3, seed=2)
    qaoa = qaoa_run(ising, QaoaParams((0.4, 1.3), (0.7, 0.2)), shots=0)
    anneal = anneal_run(ising, AnnealSchedule(total_time=5, dt=0.05), shots=0)
    vqe = vqe_run(ising, layers=2, restarts=1, seed=0, maxiter=10)
    # QAOA and VQE never renormalise, so the last layer drifts most; the
    # anneal renormalises after each step
    assert qaoa["norm_drift"] == pytest.approx(f ** 12 - 1.0, rel=1e-3)
    assert vqe["norm_drift"] == pytest.approx(f ** 12 - 1.0, rel=1e-3)
    assert anneal["norm_drift"] == pytest.approx(f ** 6 - 1.0, rel=1e-3)


def test_anneal_reports_norm_drift():
    doc = anneal_run(_random_ising(6, seed=4), AnnealSchedule(total_time=5, dt=0.05), shots=0)
    assert 0.0 <= doc["norm_drift"] <= 1e-9


def test_diagonalize_cost_at_the_qubit_cap_stays_small():
    # a spin matrix and a bit matrix at 2^20 states took ~170 MB each
    ising = _random_ising(QUBIT_CAP, seed=20)
    tracemalloc.start()
    try:
        cost = diagonalize_cost(ising)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cost.energies.shape == (1 << QUBIT_CAP,)
    assert peak < 64 * 2**20


# --- cost phases: direct exponential and running product ------------------------


def _anneal_reference(cost, schedule):
    """Trotter loop on psi with complex RX gates, an np.exp phase per step and
    a complex divide, the one _anneal_state replaced.  Returns (state,
    largest |norm^2 - 1|)."""
    from qubofolio.quantum import _check_norm

    m = cost.num_qubits
    state = np.full(1 << m, 1.0 / math.sqrt(1 << m), dtype=complex)
    steps = schedule.steps
    dt = schedule.total_time / steps
    drift = 0.0
    for step in range(steps):
        s = (step + 0.5) * dt / schedule.total_time
        a, b = 1.0 - s, s
        state = _layer_reference(state, [_rx_reference(-2.0 * a * dt)] * m)
        state *= np.exp(-1j * b * dt * cost.energies)
        norm2 = _check_norm(state)
        drift = max(drift, abs(norm2 - 1.0))
        state /= math.sqrt(norm2)
    return state, drift


@pytest.mark.parametrize("total_time, dt", [(5.0, 0.05), (50.0, 0.01)])
@pytest.mark.parametrize("m", [3, 6, 10])
def test_anneal_state_matches_exponential_reference(m, total_time, dt):
    from qubofolio.quantum import _anneal_state

    cost = diagonalize_cost(normalize_ising(_random_ising(m, seed=30 + m))[0])
    schedule = AnnealSchedule(total_time=total_time, dt=dt)
    state, drift = _anneal_state(cost, schedule)
    expected, expected_drift = _anneal_reference(cost, schedule)
    assert np.max(np.abs(np.abs(state) ** 2 - np.abs(expected) ** 2)) <= 1e-9
    assert np.max(np.abs(_frame(m) * state - expected)) <= 1e-9
    assert drift <= 1e-9 and expected_drift <= 1e-9


def test_qaoa_state_matches_exponential_reference():
    from qubofolio.quantum import _qaoa_state

    cost = diagonalize_cost(_random_ising(7, seed=11))
    m = cost.num_qubits
    params = QaoaParams((0.4, 1.3, 2.9), (0.7, 0.2, 1.1))
    expected = np.full(1 << m, 1.0 / math.sqrt(1 << m), dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        expected *= np.exp(-1j * gamma * cost.energies)
        expected = _layer_reference(expected, [_rx_reference(2.0 * beta)] * m)
    state, drift = _qaoa_state(cost, params)
    assert np.max(np.abs(_frame(m) * state - expected)) <= 1e-12
    assert drift <= 1e-9


@pytest.mark.parametrize("restarts", [0, -1])
def test_optimizers_reject_fewer_than_one_restart(restarts):
    ising = _random_ising(3, seed=2)
    with pytest.raises(QuantumSimError, match="restarts must be >= 1"):
        qaoa_optimize(ising, layers=1, restarts=restarts)
    with pytest.raises(QuantumSimError, match="restarts must be >= 1"):
        vqe_run(ising, layers=1, restarts=restarts)


# --- Nelder-Mead against scipy ------------------------------------------------

# A marker text of each branch of quantum._nelder_mead and of its tolerance stop.
_NM_MARKERS = {
    "reflect": "sim[-1], fsim[-1] = xr, fxr",
    "expand": "fxe = func(xe)",
    "outside contraction": "xc = (1 + psi * rho)",
    "inside contraction": "xc = (1 - psi)",
    "shrink": "fsim[j] = func(sim[j])",
    "tolerance": "break",
}


def _counted(func):
    """func and a one-element list counting its calls."""
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return func(x)

    return wrapped, calls


def _nelder_mead_lines(call):
    """call()'s result and the set of markers of quantum._nelder_mead it ran."""
    from qubofolio import quantum

    lines, first = inspect.getsourcelines(quantum._nelder_mead)
    marker_at = {first + i: name for name, text in _NM_MARKERS.items()
                 for i, line in enumerate(lines) if text in line}
    code, hit = quantum._nelder_mead.__code__, set()

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in marker_at:
            hit.add(marker_at[frame.f_lineno])
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = call()
    finally:
        sys.settrace(old)
    return result, hit


def _recorded_objectives(monkeypatch):
    """(objective, start, options) of each Nelder-Mead run of a QAOA and a VQE optimization."""
    from qubofolio import quantum

    seen = []
    nelder_mead = quantum._nelder_mead

    def record(func, x0, **options):
        seen.append((func, x0.copy(), options))
        return nelder_mead(func, x0, **options)

    monkeypatch.setattr(quantum, "_nelder_mead", record)
    ising, _ = normalize_ising(to_ising(build_qubo(toy_spec(n=2, T=1))))
    qaoa_optimize(ising, layers=2, restarts=2, seed=3)
    vqe_run(ising, layers=1, restarts=2, seed=3)
    monkeypatch.undo()
    return seen


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _staircase(x):
    """Flat steps: tied values, and contractions that fail until the simplex shrinks."""
    return float(np.sum(np.floor(4.0 * x) ** 2))


def test_nelder_mead_is_bit_identical_to_scipy(monkeypatch):
    from scipy.optimize import minimize

    from qubofolio.quantum import _nelder_mead

    tolerances = {"xatol": 1e-4, "fatol": 1e-4}
    cases = [(func, np.array(x0), {"maxiter": 2000, **tolerances})
             for func in (_rosenbrock, _staircase)
             for x0 in ([0.0, 0.0], [-1.2, 0.0, 1.0], [1.0, 2.0])]
    cases += _recorded_objectives(monkeypatch)
    assert len(cases) == 10
    taken, stops = set(), set()
    for func, x0, options in cases:
        for maxiter in sorted({0, 1, 20, options["maxiter"]}):
            opts = {**options, "maxiter": maxiter}
            ours, our_calls = _counted(func)
            (x, fun), hit = _nelder_mead_lines(lambda: _nelder_mead(ours, x0.copy(), **opts))
            theirs, their_calls = _counted(func)
            res = minimize(theirs, x0.copy(), method="Nelder-Mead", options=opts)
            assert x.tobytes() == res.x.tobytes()
            assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
            assert our_calls[0] == their_calls[0]
            taken |= hit - {"tolerance"}
            if maxiter > 1:  # below 2 the loop never runs
                stops.add("tolerance" if "tolerance" in hit else "maxiter")
    assert taken == set(_NM_MARKERS) - {"tolerance"}
    assert stops == {"maxiter", "tolerance"}
