"""Desk-scale statevector simulation of QAOA, VQE, and Trotterized
adiabatic annealing over Ising models.

Conventions, fixed here because results are sensitive to them:

- qubit i is bit i (least significant bit) of the basis-state index;
- bit 1 corresponds to spin +1, bit 0 to spin -1;
- the driver Hamiltonian is -sum(sigma_x), whose ground state is the
  uniform superposition used as the initial state for annealing;
- QAOA and annealing evolve the state in a rotating frame,
  phi = D^-1 psi with D = diag(i^popcount(z)).  There
  RX(theta)^(x)m = D R(theta)^(x)m D^-1 with R real (`_rotation`), D
  commutes with the diagonal cost phase, and |phi|^2 = |psi|^2, so
  every probability, expectation and sample is that of psi; a
  returned state is phi.  VQE's gates and start are real, so its state
  is a real array.

Statevectors are dense arrays of length 2^m, so m is capped at
QUBIT_CAP = 20.  Each run owns its statevector; independent runs share
nothing mutable.

QAOA and VQE angles are optimized by `_nelder_mead`, a port of scipy
1.17.1's Nelder-Mead (BSD licence) whose iterates tests/test_quantum.py
pins bit for bit to scipy's, so this module does not import scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubo import IsingModel, all_energies

__all__ = [
    "QuantumSimError",
    "DiagonalCost",
    "QaoaParams",
    "AnnealSchedule",
    "diagonalize_cost",
    "qaoa_run",
    "qaoa_optimize",
    "vqe_run",
    "anneal_run",
]

QUBIT_CAP = 20


class QuantumSimError(ValueError):
    """Raised on qubit-cap violations, invalid schedules, negative layers or restarts below 1."""


def _check_cap(m: int) -> None:
    if m > QUBIT_CAP:
        raise QuantumSimError(f"{m} qubits exceeds the simulator cap of {QUBIT_CAP}")


@dataclass(frozen=True)
class DiagonalCost:
    """Ising energies of every computational basis state."""

    energies: np.ndarray  # shape (2^m,), energies[z] = F(spins of z) + offset

    @property
    def num_qubits(self) -> int:
        return len(self.energies).bit_length() - 1

    @property
    def ground_energy(self) -> float:
        return float(self.energies.min())

    def ground_states(self) -> np.ndarray:
        """Indices of every basis state attaining the minimum energy."""
        e = self.energies
        return np.flatnonzero(e <= e.min() + 1e-12 * max(1.0, abs(e.min())))


@dataclass(frozen=True)
class QaoaParams:
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas):
            raise QuantumSimError("gammas and betas must have equal length")


@dataclass(frozen=True)
class AnnealSchedule:
    """Linear interpolation H(s) = (1 - s) * H_driver + s * H_cost on s in [0, 1]."""

    total_time: float
    dt: float = 0.01

    def __post_init__(self):
        if not self.dt > 0:  # written so that NaN fails too
            raise QuantumSimError("dt must be positive")
        if not self.dt < self.total_time:
            raise QuantumSimError("dt must be smaller than total_time")
        if not math.isfinite(self.total_time / self.dt):  # inf total_time, or too many steps
            raise QuantumSimError("total_time and total_time / dt must be finite")

    @property
    def steps(self) -> int:
        return int(round(self.total_time / self.dt))  # >= 1, as dt < total_time


def normalize_ising(ising: IsingModel) -> tuple[IsingModel, float]:
    """Rescale so the largest |h|/|J| coefficient is 1.

    Minimizers are unchanged and energies scale linearly, but the cost
    term becomes commensurate with the unit-strength driver; portfolio
    instances carry currency-scale coefficients that would otherwise
    swamp the mixer.  Returns (scaled model, scale) with
    original_energy = scale * scaled_energy; a non-finite scale is an error.
    """
    scale = max(
        float(np.abs(ising.h).max(initial=0.0)),
        float(np.abs(ising.j_vals).max(initial=0.0)),
    )
    if not math.isfinite(scale):
        raise QuantumSimError("magnitude cap: the largest Ising coefficient is not finite")
    if scale == 0.0 or scale == 1.0:
        return ising, 1.0
    return IsingModel(
        h=ising.h / scale,
        j_rows=ising.j_rows, j_cols=ising.j_cols,
        j_vals=ising.j_vals / scale,
        offset=ising.offset / scale,
    ), scale


def diagonalize_cost(ising: IsingModel) -> DiagonalCost:
    """Evaluate the Ising objective on every basis state by `qubo.all_energies`.

    Bit k = 0 of a state is spin -1, so states with s_k = -1 come first.
    The model's couplings are canonical: distinct pairs with i < j.
    """
    m = ising.num_spins
    _check_cap(m)
    coupling = np.zeros((m, m))
    coupling[ising.j_rows, ising.j_cols] = ising.j_vals
    energies = all_energies(ising.offset, ising.h, coupling, -1.0)
    if not np.isfinite(energies).all():  # coefficients, or their sums, overflowed
        raise QuantumSimError("magnitude cap: the cost's energies are not all finite")
    return DiagonalCost(energies=energies)


# --- single-qubit gate layers -------------------------------------------------

# Qubits per block product.  Measured on a complex 18-qubit state (2-core
# Xeon VM, one BLAS thread): groups of 3 or 4 took 5.0 ms per layer, 5, 6
# and 7 took 6.1, 9.2 and 13.8 ms (at 16 qubits 1.1-1.2 ms against 1.5,
# 2.1 and 3.3).  Larger groups mean fewer passes over the state but 4x
# the block work per added qubit.
_GROUP = 4


def _apply_gates(state: np.ndarray, spare: np.ndarray,
                 gates: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Apply the real 2x2 gates[q] to every qubit q of a dense statevector.

    `state` is float64 or complex128; a complex state is multiplied as
    its float64 view, where the real and imaginary part of each
    amplitude sit side by side.  Qubits are taken _GROUP at a time; each
    group's gates are combined into one Kronecker block (highest qubit
    outermost), applied as one matrix product over the reshaped state.
    The lowest group multiplies rows by kron(block, I_r), r = 2 for a
    complex state and 1 for a real one.  Each product is written into
    `spare` (same shape and dtype as `state`) and the two then swap, so
    no state-sized array is allocated.  Returns (new state, new spare),
    which are the two input arrays in some order.
    """
    r = state.itemsize // 8
    for lo in range(0, len(gates), _GROUP):
        # the lowest group's block also spans the r floats of one amplitude
        block = np.eye(r if lo == 0 else 1)
        for g in gates[lo : lo + _GROUP]:
            n = block.shape[0]
            block = (g[:, None, :, None] * block[None, :, None, :]).reshape(2 * n, 2 * n)
        size = block.shape[0]
        x, y = state.view(np.float64), spare.view(np.float64)
        if lo == 0:
            np.matmul(x.reshape(-1, size), block.T, out=y.reshape(-1, size))
        else:
            shape = (-1, size, r << lo)
            np.matmul(block, x.reshape(shape), out=y.reshape(shape))
        state, spare = spare, state
    return state, spare


def _rotation(theta: float) -> np.ndarray:
    """[[c, s], [-s, c]], c = cos(theta/2) and s = sin(theta/2).

    RX(theta) = diag(1, i) . _rotation(theta) . diag(1, i)^-1, the mixer
    in the rotating frame; RY(theta) = _rotation(-theta).
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, s], [-s, c]])


def _frame_start(m: int) -> np.ndarray:
    """The uniform superposition in the rotating frame: (-i)^popcount(z) / sqrt(2^m).

    Built by doubling: the states with qubit k set are the ones without
    it times -i, which is exact in floating point.
    """
    state = np.array([1.0 / math.sqrt(1 << m)], dtype=complex)
    for _ in range(m):
        state = np.concatenate((state, -1j * state))
    return state


def _check_norm(state: np.ndarray) -> float:
    """Squared norm of the state; QuantumSimError if it is off 1 by more than 1e-9."""
    norm2 = float(np.vdot(state, state).real)
    if abs(norm2 - 1.0) > 1e-9:
        raise QuantumSimError(f"statevector norm drifted to {norm2}")
    return norm2


def _phase(energies: np.ndarray, angle: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-i * angle * energies), as one real cos and one real sin of -angle * energies.

    Writes into the .real and .imag views of `out` (a new complex array
    when None) and returns it; about half the time of np.exp on a
    complex argument.
    """
    if out is None:
        out = np.empty(energies.shape, dtype=complex)
    x = -angle * energies
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _bits_of(z: int, m: int) -> str:
    """Basis index z as an m-character bitstring, qubit 0 first; "" for 0 qubits."""
    return format(z, f"0{m}b")[::-1] if m else ""


def _nelder_mead(func, x0: np.ndarray, maxiter: int, xatol: float,
                 fatol: float) -> tuple[np.ndarray, float]:
    """Minimize func from x0 by Nelder-Mead; returns (best point, best value).

    A port of scipy 1.17.1's `_minimize_neldermead` (BSD licence) on the
    path that `minimize(method="Nelder-Mead", options={"maxiter": ...,
    "xatol": ..., "fatol": ...})` takes: no bounds, fixed coefficients,
    no evaluation cap.  The simplex, the sorts and the order of every
    floating-point operation are scipy's, so each iterate is bit-identical;
    tests/test_quantum.py checks that against scipy.  func is given rows of
    the simplex itself, where scipy passes copies, so it must not change
    its argument.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    if n == 0:  # no coordinates: x0 is the only point
        return x0, func(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([func(v) for v in sim], dtype=float)
    # sorted twice, as scipy does: argsort may reorder tied values
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                contracted = fxc <= fxr
            else:
                # inside contraction (scipy's xcc)
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = func(xc)
                contracted = fxc < fsim[-1]
            if contracted:
                sim[-1], fsim[-1] = xc, fxc
            else:
                # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


def _nelder_mead_restarts(objective, draw, restarts: int, seed: int, options: dict):
    """`_nelder_mead` from `restarts` starting points draw(rng) of one seeded stream.

    `_nelder_mead` is scipy 1.17.1's Nelder-Mead (BSD licence), ported and
    pinned to scipy's results by tests/test_quantum.py, so each restart
    ends where `scipy.optimize.minimize(method="Nelder-Mead")` would.
    Returns (best value, best point, the final value of every restart).
    """
    if restarts < 1:
        raise QuantumSimError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    best_val = math.inf
    best_theta = None
    trace = []
    for _ in range(restarts):
        theta, val = _nelder_mead(objective, draw(rng), **options)
        trace.append(float(val))
        if val < best_val:
            best_val = float(val)
            best_theta = theta
    return best_val, best_theta, trace


def _run_doc(algo: str, cost: DiagonalCost, state: np.ndarray, drift: float, shots: int,
             rng: np.random.Generator, params, **extra) -> dict:
    """The run report of a final state; `extra` entries go before "norm_drift"."""
    probs = np.abs(state) ** 2
    expectation = float(probs @ cost.energies)
    ground = cost.ground_states()
    m = cost.num_qubits
    if shots:  # `shots` draws; the best is the lowest-energy state drawn, the first on ties
        counts = rng.multinomial(shots, probs / probs.sum())
        drawn = np.flatnonzero(counts)
        best = int(drawn[np.argmin(cost.energies[drawn])])
        hist = {_bits_of(z, m): c for z, c in zip(drawn.tolist(), counts[drawn].tolist())}
    else:
        best, hist = int(np.argmax(probs)), {}
    return {
        "algo": algo,
        "qubits": m,
        "ground_energy": cost.ground_energy,
        "ground_probability": float(probs[ground].sum()),
        "expectation": expectation,
        "best_bits": _bits_of(best, m),
        "params": params,
        "samples_hist": hist,
        **extra,
        "norm_drift": drift,
    }


# --- QAOA ---------------------------------------------------------------------


def _qaoa_state(cost: DiagonalCost, params: QaoaParams,
                start: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """The circuit's final frame state and the largest |norm^2 - 1| after a layer.

    `start` is _frame_start(m), for callers that evolve many circuits;
    it is copied, not changed.
    """
    m = cost.num_qubits
    state = _frame_start(m) if start is None else start.copy()
    spare = np.empty_like(state)
    phase = np.empty_like(state)
    drift = 0.0
    for gamma, beta in zip(params.gammas, params.betas):
        state *= _phase(cost.energies, gamma, out=phase)
        state, spare = _apply_gates(state, spare, [_rotation(2.0 * beta)] * m)
        drift = max(drift, abs(_check_norm(state) - 1.0))
    return state, drift


def qaoa_run(ising: IsingModel, params: QaoaParams, shots: int = 1024,
             seed: int = 0) -> dict:
    """Alternating phase/mixer circuit from the uniform superposition."""
    cost = diagonalize_cost(ising)
    state, drift = _qaoa_state(cost, params)
    rng = np.random.default_rng(seed)
    return _run_doc("qaoa", cost, state, drift, shots, rng,
                    {"gammas": list(params.gammas), "betas": list(params.betas)})


def qaoa_optimize(ising: IsingModel, layers: int, restarts: int = 8,
                  seed: int = 0, maxiter: int = 200) -> tuple[QaoaParams, dict]:
    """Nelder-Mead over 2p angles with seeded random restarts.

    Returns the best parameters by exact expectation together with a
    report containing the per-restart expectation trace.
    """
    if layers < 0:
        raise QuantumSimError("layers must be >= 0")
    cost = diagonalize_cost(ising)
    start = _frame_start(cost.num_qubits)

    def objective(theta):
        params = QaoaParams(tuple(theta[:layers]), tuple(theta[layers:]))
        state, _ = _qaoa_state(cost, params, start)
        return float((np.abs(state) ** 2) @ cost.energies)

    def draw(rng):
        return np.concatenate([
            rng.uniform(0.0, math.pi, size=layers),      # gammas
            rng.uniform(0.0, math.pi / 2.0, size=layers),  # betas
        ])

    best_val, best_theta, trace = _nelder_mead_restarts(
        objective, draw, restarts, seed, {"maxiter": maxiter, "xatol": 1e-4, "fatol": 1e-7})
    params = QaoaParams(tuple(best_theta[:layers]), tuple(best_theta[layers:]))
    report = {"expectation": best_val, "restart_trace": trace,
              "ground_energy": cost.ground_energy}
    return params, report


# --- VQE ----------------------------------------------------------------------


def _cz_ring_sign(m: int) -> np.ndarray:
    """Diagonal (+-1) of one CZ on each distinct ring pair (q, q+1 mod m)."""
    idx = np.arange(1 << m)
    pairs = {tuple(sorted((q, (q + 1) % m))) for q in range(m)}
    both = np.zeros(1 << m, dtype=idx.dtype)
    for i, j in pairs:
        if i != j:
            both += (idx >> i) & (idx >> j) & 1
    return 1.0 - 2.0 * (both & 1)


def _vqe_state(m: int, layers: int, theta: np.ndarray,
               sign: np.ndarray) -> tuple[np.ndarray, float]:
    """L repetitions of [RY on every qubit; ring of CZ entanglers] on |0...0>.

    `sign` is the entangler ring's diagonal, _cz_ring_sign(m).  The
    gates, the signs and the start are all real, so the state is a
    float64 array.  Returns it and its |norm^2 - 1|.
    """
    state = np.zeros(1 << m)
    state[0] = 1.0
    spare = np.empty_like(state)
    for layer in range(layers):
        # RY(t) = _rotation(-t)
        state, spare = _apply_gates(
            state, spare, [_rotation(-t) for t in theta[layer * m : (layer + 1) * m]])
        state *= sign
    return state, abs(_check_norm(state) - 1.0)


def vqe_run(ising: IsingModel, layers: int = 2, restarts: int = 8,
            seed: int = 0, maxiter: int = 300) -> dict:
    """Variational minimization of the exact Ising expectation."""
    if layers < 0:
        raise QuantumSimError("layers must be >= 0")
    cost = diagonalize_cost(ising)
    m = cost.num_qubits
    sign = _cz_ring_sign(m)

    def objective(theta):
        state, _ = _vqe_state(m, layers, theta, sign)
        return float((np.abs(state) ** 2) @ cost.energies)

    best_val, best_theta, trace = _nelder_mead_restarts(
        objective, lambda rng: rng.uniform(-math.pi, math.pi, size=layers * m),
        restarts, seed, {"maxiter": maxiter, "xatol": 1e-5, "fatol": 1e-9})
    state, drift = _vqe_state(m, layers, best_theta, sign)
    return _run_doc("vqe", cost, state, drift, 0, np.random.default_rng(seed),
                    {"layers": layers, "theta": [float(v) for v in best_theta]},
                    restart_trace=trace)


# --- Trotterized annealing ------------------------------------------------------


def _anneal_state(cost: DiagonalCost, schedule: AnnealSchedule) -> tuple[np.ndarray, float]:
    """anneal_run's Trotter evolution: the final frame state and the largest |norm^2 - 1|."""
    m = cost.num_qubits
    state = _frame_start(m)
    spare = np.empty_like(state)
    steps = schedule.steps
    dt = schedule.total_time / steps
    # B(s_k) * dt = (k + 1/2) * dt^2 / T, so each phase is the last one times rho
    rho = _phase(cost.energies, dt * dt / schedule.total_time)
    phase = _phase(cost.energies, 0.5 * dt * dt / schedule.total_time)
    drift = 0.0
    for step in range(steps):
        a = 1.0 - (step + 0.5) * dt / schedule.total_time
        # exp(-i * A * (-sum sigma_x) * dt) factors into per-qubit RX(-2*A*dt)
        state, spare = _apply_gates(state, spare, [_rotation(-2.0 * a * dt)] * m)
        if step:
            phase *= rho
        state *= phase
        norm2 = _check_norm(state)
        drift = max(drift, abs(norm2 - 1.0))
        state *= 1.0 / math.sqrt(norm2)
    return state, drift


def anneal_run(ising: IsingModel, schedule: AnnealSchedule, shots: int = 1024,
               seed: int = 0) -> dict:
    """First-order Trotter evolution under H(s) = (1 - s)*(-sum sigma_x) + s*H_cost.

    Starts in the uniform superposition (the driver's ground state) and
    alternates per-qubit X rotations with diagonal cost phases, using the
    midpoint s of each step for both weights.  Each step checks the norm
    (QuantumSimError beyond 1e-9) and then renormalizes, so floating-point
    drift cannot accumulate; the largest per-step |norm^2 - 1| is reported
    as "norm_drift".

    The cost phase at step k is exp(-i (k + 1/2) dt^2/T E), kept as a
    running product: the previous step's phase times the constant
    exp(-i dt^2/T E), with no transcendental in the loop.  Each complex
    product rounds by under 5e-16 relative, so step k's phase is within
    k * 5e-16 of a direct exponential (3e-13 measured after the CLI
    default 5,000 steps, mostly in its modulus), far below the 1e-9 norm
    tolerance.
    """
    cost = diagonalize_cost(ising)
    state, drift = _anneal_state(cost, schedule)
    rng = np.random.default_rng(seed)
    return _run_doc("anneal", cost, state, drift, shots, rng,
                    {"total_time": schedule.total_time, "dt": schedule.dt})
