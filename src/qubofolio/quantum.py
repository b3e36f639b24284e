"""Desk-scale statevector simulation of QAOA and Trotterized adiabatic
annealing over Ising models.

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
  returned state is phi.

Statevectors are dense complex arrays of length 2^m, so m is capped at
QUBIT_CAP = 20; `qaoa_optimize` takes at most LAYER_CAP = 64 layers, so
its Nelder-Mead simplex of (2p + 1) x 2p angles stays near 130 KB.
Each run owns its statevector; independent runs share nothing mutable.

Both algorithms run one layer loop, `_qaoa_state`: an anneal of K
Trotter steps is the QAOA circuit of K - 1 layers at its schedule's
angles (`_anneal_layers`), with the same probabilities.  Layers work on
the state in place, a cache-sized tile (_TILE_BYTES) at a time; each
tile's cost phase, and each tile's energies wherever the cost is read,
are built by doubling (`_tile_phase`) in a tile-sized scratch.  No other
array has 2^m entries but a report's probabilities and counts.

QAOA angles are optimized by `_nelder_mead`, a port of scipy's, so this
module does not import scipy.
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
    "anneal_run",
]

QUBIT_CAP = 20
LAYER_CAP = 64


class QuantumSimError(ValueError):
    """Raised on qubit- or layer-cap violations, invalid schedules, negative layers, shots
    outside [0, 2^63), or restarts below 1."""


def _check_cap(m: int) -> None:
    if m > QUBIT_CAP:
        raise QuantumSimError(f"{m} qubits exceeds the simulator cap of {QUBIT_CAP}")


def _check_shots(shots: int) -> None:
    """Before any state is formed: a sample count the multinomial draw can take."""
    if shots < 0:
        raise QuantumSimError("shots must be >= 0")
    if shots >= 1 << 63:
        raise QuantumSimError(f"{shots} shots exceeds the sampling cap of 2^63 - 1")


@dataclass(frozen=True)
class DiagonalCost:
    """The Ising energy E of every computational basis state as its split
    E = low[0][z_low] + sum_k x_k low[1+k][z_low] + high[z_high] over the
    l = ceil(m/2) low qubits and the high ones, with bits x_k.

    The table of all 2^m energies is formed only on request (`energies`).
    """

    low: np.ndarray  # (1 + m - l, 2^l): E at z_high = 0, then what each high bit adds
    high: np.ndarray  # (2^(m - l),): the couplings among high qubits
    ground_energy: float  # the least E of the split
    ising: IsingModel  # the model itself, not a copy

    @property
    def num_qubits(self) -> int:
        return self.ising.num_spins

    @property
    def energies(self) -> np.ndarray:
        """energies[z] = F(spins of z) + offset by `qubo.all_energies`, a new 2^m array."""
        ising = self.ising
        return all_energies(ising.offset, ising.h, _coupling(ising), -1.0)

    @property
    def ground_cut(self) -> float:
        """The largest energy counted as ground: 1e-12 relative above the minimum."""
        return self.ground_energy + 1e-12 * max(1.0, abs(self.ground_energy))

    def ground_states(self) -> np.ndarray:
        """Indices of every basis state attaining the minimum energy."""
        return np.flatnonzero(self.energies <= self.ground_cut)


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


def _coupling(ising: IsingModel) -> np.ndarray:
    """The couplings as an upper-triangular m x m matrix (they are distinct pairs i < j)."""
    coupling = np.zeros((ising.num_spins,) * 2)
    coupling[ising.j_rows, ising.j_cols] = ising.j_vals
    return coupling


def diagonalize_cost(ising: IsingModel) -> DiagonalCost:
    """Split the Ising objective over the low and high qubits, and find its minimum.

    Bit k = 0 of a state is spin -1, so states with s_k = -1 come first.
    Every energy is formed once, a tile at a time from the split, to take
    the minimum and to check that none overflowed.
    """
    m = ising.num_spins
    _check_cap(m)
    coupling = _coupling(ising)
    l = (m + 1) // 2
    low = np.empty((1 + m - l, 1 << l))
    inner = coupling[l:, l:]
    ground = math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the cap's to report
        # the low qubits' energies with every high spin at -1
        low[0] = all_energies(ising.offset - ising.h[l:].sum() + inner.sum(),
                              ising.h[:l] - coupling[:l, l:].sum(1), coupling[:l, :l], -1.0)
        # high qubit k flipped alone from -1 adds 2 (h_k + sum_j J_jk s_j) over
        # the low spins s_j, less twice its couplings to the other high qubits
        spins = ((np.arange(1 << l)[:, None] >> np.arange(l)) & 1) * 2.0 - 1.0
        low[1:] = 2.0 * ((spins @ coupling[:l, l:]).T
                         + (ising.h[l:] - inner.sum(0) - inner.sum(1))[:, None])
        high = all_energies(0.0, np.zeros(m - l), 4.0 * inner, 0.0)
        for _, e in _energy_tiles(low, high, np.empty(min(1 << m, _TILE_BYTES // 16))):
            if not np.isfinite(e).all():  # coefficients, or their sums, overflowed
                raise QuantumSimError("magnitude cap: the cost's energies are not all finite")
            ground = min(ground, float(e.min()))
    return DiagonalCost(low=low, high=high, ground_energy=ground, ising=ising)


# --- single-qubit gate layers -------------------------------------------------

# Qubits per block product.  Larger groups mean fewer passes but 4x the
# block work per added qubit: on a 2-core Xeon VM with one BLAS thread the
# 18-qubit anneal step took 2.9-3.2 ms with groups of 3 or of 4, and
# 3.7-4.6 ms with groups of 5.
_GROUP = 4

# Bytes of state the kernels below work on at a time: 512 KB, 2^15 complex
# amplitudes, half the 2 MB L2 of that VM; the 18-qubit anneal step was
# about 5% slower at 256 KB and 20% at 1 MB.  A power of two, at least 16.
_TILE_BYTES = 1 << 19


def _tile(x: np.ndarray) -> int:
    """The tile length in floats for the float64 view x of a complex state."""
    return min(len(x), _TILE_BYTES // 8)


def _scratch(state: np.ndarray) -> np.ndarray:
    """The kernels' one work array for `state`: a tile, or one high block's column if longer."""
    return np.empty(max(_tile(state.view(np.float64)), 1 << _GROUP))


def _blocks(gates: list[np.ndarray], tile: int):
    """The real 2x2 gates[q] of every qubit q as Kronecker blocks, _GROUP qubits at a time.

    Returns (low, high), lists of (lowest qubit, block) with the highest
    qubit outermost.  A low group lies within a tile of `tile` floats and
    the rest are high.  The lowest group's block, when low, also spans the
    real and imaginary float of one amplitude (the identity at 0 qubits).
    """
    m = len(gates)
    t = min(m, (tile // 2).bit_length() - 1)  # qubits within a tile
    starts = [*range(0, t, _GROUP), *range(t, m, _GROUP)] or [0]
    low, high = [], []
    for lo, end in zip(starts, [*starts[1:], m]):
        block = np.eye(2 if lo == 0 and end <= t else 1)
        for g in gates[lo:end]:
            n = block.shape[0]
            block = (g[:, None, :, None] * block[None, :, None, :]).reshape(2 * n, 2 * n)
        (low if end <= t else high).append((lo, block))
    return low, high


def _low_pass(src: np.ndarray, dst: np.ndarray, low) -> np.ndarray:
    """The low groups on one tile, as matrix products from src to dst and back.

    src and dst are float64 arrays of the tile's length; returns the one
    that holds the result.  The lowest group multiplies rows by its block,
    each higher one the columns of the reshaped tile.
    """
    for lo, block in low:
        size = block.shape[0]
        if lo == 0:
            np.matmul(src.reshape(-1, size), block.T, out=dst.reshape(-1, size))
        else:
            shape = (-1, size, 2 << lo)
            np.matmul(block, src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
    return src


def _high_pass(x: np.ndarray, scratch: np.ndarray, high, tile: int) -> None:
    """The high groups on the float64 view x, in place, a slab of columns at a time.

    Each slab is the block's rows over `tile` floats in all (at least one
    column), multiplied into `scratch` and copied back.
    """
    for lo, block in high:
        size = block.shape[0]
        x3 = x.reshape(-1, size, 2 << lo)
        width = max(tile // size, 1)
        out = scratch[: size * width].reshape(size, width)
        for outer in x3:
            for c in range(0, x3.shape[2], width):
                slab = outer[:, c : c + width]
                np.matmul(block, slab, out=out)
                slab[...] = out


def _rotation(theta: float) -> np.ndarray:
    """[[c, s], [-s, c]], c = cos(theta/2) and s = sin(theta/2).

    RX(theta) = diag(1, i) . _rotation(theta) . diag(1, i)^-1, the mixer
    in the rotating frame.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, s], [-s, c]])


def _frame_start(m: int, state: np.ndarray) -> np.ndarray:
    """The uniform superposition in the rotating frame: (-i)^popcount(z) / sqrt(2^m).

    Built in `state` by doubling: the states with qubit k set are the ones
    without it times -i, which is exact in floating point.
    """
    state[0] = 1.0 / math.sqrt(1 << m)
    for k in range(m):
        np.multiply(state[: 1 << k], -1j, out=state[1 << k : 2 << k])
    return state


def _check_norm(norm2: float) -> float:
    """A state's squared norm, returned; QuantumSimError if it is off 1 by more than 1e-9."""
    if abs(norm2 - 1.0) > 1e-9:
        raise QuantumSimError(f"statevector norm drifted to {norm2}")
    return norm2


def _split_phase(cost: DiagonalCost, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i angle cost.low) and exp(-i angle cost.high): a phase's O(m 2^(m/2)) factors."""
    return np.exp(-1j * angle * cost.low), np.exp(-1j * angle * cost.high)


def _tile_phase(f: np.ndarray, g: np.ndarray, start: int, out: np.ndarray,
                op=np.multiply) -> np.ndarray:
    """exp(-i angle energies) of the amplitudes from `start` on into `out`; returns out.

    (f, g) = _split_phase(cost, angle), or (cost.low, cost.high) with
    op = np.add for the energies themselves.  Row r of the phase as a
    (2^(m-l), 2^l) matrix is f[0] g[r] times f[1+k] for each bit k of r.  A
    tile is whole rows or part of one; bit k within it maps rows p < 2^k to
    p f[1+k].
    """
    r, c = divmod(start, f.shape[1])
    rows = out.reshape(-1, min(len(out), f.shape[1]))
    inner = len(rows).bit_length() - 1  # row bits within the tile
    cols = slice(c, c + rows.shape[1])
    rows[0] = f[0, cols]
    for k in range(inner, len(f) - 1):
        if r >> k & 1:
            op(rows[0], f[1 + k, cols], out=rows[0])
    for k in range(inner):
        op(rows[: 1 << k], f[1 + k], out=rows[1 << k : 2 << k])
    op(rows, g[r : r + len(rows), None], out=rows)
    return out


def _energy_tiles(low: np.ndarray, high: np.ndarray, buf: np.ndarray):
    """(start, energies) of each len(buf) basis states in turn, formed in buf from the split."""
    for start in range(0, low.shape[1] * len(high), len(buf)):
        yield start, _tile_phase(low, high, start, buf, np.add)


def _energies_at(cost: DiagonalCost, z: np.ndarray) -> np.ndarray:
    """The energies of the basis states z alone, from the split."""
    z_high, z_low = np.divmod(z, cost.low.shape[1])
    bits = z_high >> np.arange(len(cost.low) - 1)[:, None] & 1
    return cost.low[0, z_low] + (cost.low[1:, z_low] * bits).sum(0) + cost.high[z_high]


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


def _probabilities(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|state|^2 into out, or one new array: np.abs, squared in place."""
    probs = np.abs(state, out=out)
    probs *= probs
    return probs


def _run(algo: str, ising: IsingModel, evolve, shots: int, seed: int, params) -> dict:
    """The report of evolve(cost) = (final state, drift), drawn once the state is freed.

    The expectation and the ground mass are summed a tile at a time.
    """
    _check_shots(shots)
    cost = diagonalize_cost(ising)
    state, drift = evolve(cost)
    probs = _probabilities(state)
    n = _tile(state.view(np.float64)) // 2
    del state
    expectation = ground = 0.0
    cut = cost.ground_cut
    for start, e in _energy_tiles(cost.low, cost.high, np.empty(n)):
        p = probs[start : start + n]
        expectation += p @ e
        ground += p[e <= cut].sum()
    m = cost.num_qubits
    if shots:  # `shots` draws; the best is the lowest-energy state drawn, the first on ties
        probs /= probs.sum()
        counts = np.random.default_rng(seed).multinomial(shots, probs)
        drawn = np.flatnonzero(counts)
        best = int(drawn[np.argmin(_energies_at(cost, drawn))])
        hist = {_bits_of(z, m): c for z, c in zip(drawn.tolist(), counts[drawn].tolist())}
    else:
        best, hist = int(np.argmax(probs)), {}
    return {
        "algo": algo,
        "qubits": m,
        "ground_energy": cost.ground_energy,
        "ground_probability": float(ground),
        "expectation": float(expectation),
        "best_bits": _bits_of(best, m),
        "params": params,
        "samples_hist": hist,
        "norm_drift": drift,
    }


# --- QAOA ---------------------------------------------------------------------


def _qaoa_work(m: int) -> tuple[np.ndarray, np.ndarray]:
    """_qaoa_state's arrays: the state and the scratch."""
    state = np.empty(1 << m, dtype=complex)
    return state, _scratch(state)


def _qaoa_state(cost: DiagonalCost, layers, work: tuple | None = None) -> tuple[np.ndarray, float]:
    """The circuit of the (gamma, beta) pairs in `layers`: the final frame state and the
    largest |norm^2 - 1| after a layer.

    Each layer is one sweep: per tile the product with its cost phase
    and the mixer's low groups, then the high groups in slabs; then the
    norm is read.  `layers` may be any iterable, read once.  `work` is
    _qaoa_work(m), for callers that evolve many circuits without
    allocating (and faulting in) state-sized arrays each time: the
    returned state is its state array, where the start is built afresh.
    """
    m = cost.num_qubits
    state, scratch = _qaoa_work(m) if work is None else work
    _frame_start(m, state)
    x = state.view(np.float64)
    tile = _tile(x)
    phase = scratch[:tile].view(complex)
    tiles = list(enumerate(state.reshape(-1, tile // 2)))
    drift = 0.0
    for gamma, beta in layers:
        f, g = _split_phase(cost, gamma)
        low, high = _blocks([_rotation(2.0 * beta)] * m, tile)
        for i, s in tiles:
            # start where an even or odd number of products ends in the state
            y = s.view(np.float64)
            src, dst = (scratch[:tile], y) if len(low) % 2 else (y, scratch[:tile])
            np.multiply(s, _tile_phase(f, g, i * len(s), phase), out=src.view(complex))
            _low_pass(src, dst, low)
        _high_pass(x, scratch, high, tile)
        drift = max(drift, abs(_check_norm(float(np.vdot(state, state).real)) - 1.0))
    return state, drift


def qaoa_run(ising: IsingModel, params: QaoaParams, shots: int = 1024,
             seed: int = 0) -> dict:
    """Alternating phase/mixer circuit from the uniform superposition."""
    return _run("qaoa", ising, lambda cost: _qaoa_state(cost, zip(params.gammas, params.betas)),
                shots, seed, {"gammas": list(params.gammas), "betas": list(params.betas)})


def qaoa_optimize(ising: IsingModel, layers: int, restarts: int = 8,
                  seed: int = 0, maxiter: int = 200) -> tuple[QaoaParams, dict]:
    """Nelder-Mead over 2p angles with seeded random restarts.

    Returns the best parameters by exact expectation together with a
    report containing the per-restart expectation trace.  More than
    LAYER_CAP layers, or fewer than one restart, is a QuantumSimError,
    raised before any array is formed.
    """
    if layers < 0:
        raise QuantumSimError("layers must be >= 0")
    if layers > LAYER_CAP:
        raise QuantumSimError(f"{layers} layers exceeds the QAOA cap of {LAYER_CAP}")
    if restarts < 1:
        raise QuantumSimError("restarts must be >= 1")
    cost = diagonalize_cost(ising)
    work = _qaoa_work(cost.num_qubits)
    n = _tile(work[0].view(np.float64)) // 2
    energies, probs = work[1][:n], work[1][n : 2 * n]  # the scratch, once a circuit is done

    def objective(theta):  # the expectation, summed as _run sums it
        state, _ = _qaoa_state(cost, zip(theta[:layers], theta[layers:]), work)
        return float(sum(_probabilities(state[start : start + n], probs) @ e
                         for start, e in _energy_tiles(cost.low, cost.high, energies)))

    rng = np.random.default_rng(seed)
    best_val, best_theta, trace = math.inf, None, []
    for _ in range(restarts):  # gammas in [0, pi), betas in [0, pi/2)
        x0 = np.concatenate([rng.uniform(0.0, math.pi, size=layers),
                             rng.uniform(0.0, math.pi / 2.0, size=layers)])
        theta, val = _nelder_mead(objective, x0, maxiter=maxiter, xatol=1e-4, fatol=1e-7)
        trace.append(float(val))
        if val < best_val:
            best_val, best_theta = float(val), theta
    params = QaoaParams(tuple(best_theta[:layers]), tuple(best_theta[layers:]))
    report = {"expectation": best_val, "restart_trace": trace,
              "ground_energy": cost.ground_energy}
    return params, report


# --- Trotterized annealing ------------------------------------------------------


def _anneal_layers(schedule: AnnealSchedule):
    """The schedule's Trotter steps as QAOA layers (gamma, beta), formed one at a time.

    With K steps of dt, step k is the driver's exp(i a_k dt sum sigma_x),
    RX(-2 a_k dt) on each qubit with a_k = 1 - (k + 1/2) dt/T, then the
    cost phase at gamma_k = (k + 1/2) dt^2/T.
    The first mixer only multiplies the uniform start by a global phase
    and the last phase changes no probability, so the K steps are the
    K - 1 layers (gamma_(k-1), -a_k dt) for k = 1 .. K - 1.
    """
    total, steps = schedule.total_time, schedule.steps
    dt = total / steps
    for k in range(1, steps):
        yield (k - 0.5) * dt * dt / total, -(1.0 - (k + 0.5) * dt / total) * dt


def anneal_run(ising: IsingModel, schedule: AnnealSchedule, shots: int = 1024,
               seed: int = 0) -> dict:
    """First-order Trotter evolution under H(s) = (1 - s)*(-sum sigma_x) + s*H_cost.

    Starts in the uniform superposition (the driver's ground state) and
    alternates per-qubit X rotations with diagonal cost phases, using the
    midpoint s of each step for both weights.  The steps run as the QAOA
    circuit of `_anneal_layers`: K steps are K - 1 layers with the same
    probabilities.  Each layer checks the norm (QuantumSimError beyond
    1e-9) and the largest |norm^2 - 1| is reported as "norm_drift"; the
    state is not renormalised, so that is the drift accumulated over the
    run (5.7e-14 on the 16-qubit toy after the CLI default 5,000 steps).

    The run takes schedule.steps = round(total_time / dt) steps of
    total_time / steps each, which need not equal dt ("params" repeats the
    requested dt): total_time 1 with dt 0.3 runs 3 steps of 1/3.
    """
    return _run("anneal", ising, lambda cost: _qaoa_state(cost, _anneal_layers(schedule)),
                shots, seed, {"total_time": schedule.total_time, "dt": schedule.dt})
