"""Assembly of the multi-period objective into QUBO / BQP / Ising form.

Energy convention for the block form:

    E(x) = offset + linear . x
         + sum_t  x_t' D_t x_t                       (D_t symmetric, diagonal kept)
         + sum_t  sum_a cross[t, a] x[t, a] x[t+1, a]

    D_t = scale * diag(wp_t) core_t[slot, slot] diag(wp_t) + P * R'R

The quadratic form x' D x counts every unordered off-diagonal pair twice,
so the total pair coefficient between two distinct same-step variables is
2 * D[i, j].  Cross-step
couplings exist only between the same trading slot at adjacent steps (the
transaction-cost band); slack bits never couple across steps.

D_t is never stored, and `linear` and `offset` hold no penalty: the penalty
is read as P * ||b - R x_t||^2, and only the export writes its P-scale terms.

BlockQubo is immutable after build and may be shared read-only.
Assignment arrays and delta caches are single-owner mutable state.
"""
from __future__ import annotations

import io
import json
import math
import os
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import ProblemSpec, _check_assignment, _turnover_band, _zero_one

__all__ = [
    "QuboError",
    "QuboParseError",
    "BlockQubo",
    "SparseQubo",
    "IsingModel",
    "build_qubo",
    "resolve_penalty",
    "energy",
    "delta_energies",
    "apply_flip",
    "to_sparse",
    "to_dense",
    "to_ising",
    "ising_value",
    "objective_breakdown",
    "step_components",
    "write_qubo_text",
    "read_qubo_text",
    "write_ising_text",
    "write_bqp_json",
]


class QuboError(ValueError):
    pass


class QuboParseError(QuboError):
    """Raised on malformed QUBO/Ising text files."""


@dataclass(frozen=True)
class BlockQubo:
    """Block-banded objective over T steps of w variables, kept as the factors of D_t.

    A QUBO file is one step: identity slots, unit weights, scale 1, no budget rows.
    """

    core: np.ndarray  # (T, n, n), exactly symmetric: Sigma_t for a spec, a file's dense matrix
    slot: np.ndarray  # (w,): core row of each position; slack bits map to row 0
    wp: np.ndarray  # (T, w): position weights, (tau *) price on trading slots, 0 on slack
    scale: float  # risk scale: q for a spec, 1.0 for a file
    budget_rows: np.ndarray  # (m, w): R, the asset-count and cash rows of every step
    budget_rhs: np.ndarray  # (m,): their right-hand sides (B, C)
    cross: np.ndarray  # (T-1, w); nonzero only at trading-slot positions
    linear: np.ndarray  # (total,), penalty-free
    offset: float  # penalty-free
    penalty_weight: float  # resolved P (0.0 when penalties omitted)

    @property
    def num_vars(self) -> int:
        return len(self.linear)

    @cached_property
    def _kernel(self) -> _Kernel:
        """The flip kernel's lookups, formed on first use: build_qubo does none of this work."""
        R = self.budget_rows
        cols, pattern = np.unique(R, axis=1, return_inverse=True)
        penalty = self.penalty_weight * (cols.T @ R)
        return _Kernel(penalty=penalty, pattern=pattern, cols=cols, cross=_scalars(self.cross))


class _Kernel(NamedTuple):
    """Per-problem lookups of _flip, _block_rows and _flip_state."""

    penalty: np.ndarray  # (k, w): P * R[:, j]'R for each of the k distinct columns j of R
    pattern: np.ndarray  # (w,): the row of `penalty` that column j of R selects
    cols: np.ndarray  # (m, k): the k distinct columns of R, in pattern order
    cross: array  # BlockQubo.cross[t, j] at t * w + j, for scalar reads


def _index_dtype(num_vars: int) -> type:
    """The narrowest dtype of term indices below num_vars: int16, int32 or int64."""
    if num_vars < 2**15:
        return np.int16
    return np.int32 if num_vars < 2**31 else np.int64


def _checked_triplets(what: str, size: int, rows, cols, vals):
    """rows, cols and vals as arrays, vals float64, else a QuboError: the three must be of
    one length, and the indices integers in 0..size-1."""
    rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals, dtype=np.float64)
    if not len(rows) == len(cols) == len(vals):
        raise QuboError(f"{what} rows, cols and values must be of one length, "
                        f"not {len(rows)}, {len(cols)} and {len(vals)}")
    indices = [a for a in (rows, cols) if len(a)]
    if any(a.dtype.kind not in "iu" for a in indices):
        raise QuboError(f"{what} indices must be integers")
    if any(a.min() < 0 or a.max() >= size for a in indices):
        raise QuboError(f"{what} indices must lie in 0..{size - 1}")
    return rows, cols, vals


@dataclass(frozen=True)
class SparseQubo:
    """Upper-triangular triplets sorted by (i, j), no repeats.

    rows and cols are in _index_dtype(num_vars) and vals float64, so a
    term takes 2 * index bytes + 8.  The constructor range-checks the
    triplets and sums repeats; canonical input is not copied.  to_sparse
    also drops zero terms.
    """

    num_vars: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    offset: float

    def __post_init__(self):
        rows, cols, vals = _checked_triplets("triplet", self.num_vars, self.rows, self.cols,
                                             self.vals)
        if not _every_block(lambda r, c: (r <= c).all(), rows, cols):
            raise QuboError("triplets must satisfy i <= j")
        terms = _sum_repeated(self.num_vars, rows, cols, vals)
        for name, value in zip(("rows", "cols", "vals"), terms):
            object.__setattr__(self, name, value)

    @property
    def num_terms(self) -> int:
        return len(self.cols)


def _runs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids, starts) of the runs of equal entries: a[starts[k]:starts[k + 1]] are all ids[k]."""
    edge = np.empty(len(a) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(a[1:], a[:-1], out=edge[1:-1])
    starts = np.flatnonzero(edge)
    return a[starts[:-1]], starts


@dataclass(frozen=True)
class IsingModel:
    """Spin model F(s) = sum h_i s_i + sum_{i<j} J_ij s_i s_j + offset, s in {-1,+1}.

    Couplings are range-checked triplets, a row index each (the simulators
    cap spins at quantum.QUBIT_CAP): i < j, sorted, repeats summed, indices
    in _index_dtype; canonical input is not copied.  A pair (i, i) is the
    constant s_i^2 = 1, so it joins offset.
    """

    h: np.ndarray
    j_rows: np.ndarray
    j_cols: np.ndarray
    j_vals: np.ndarray
    offset: float

    def __post_init__(self):
        rows, cols, vals = _checked_triplets("coupling", self.num_spins, self.j_rows,
                                             self.j_cols, self.j_vals)
        if not _every_block(lambda r, c: (r < c).all(), rows, cols):
            pair = rows != cols
            object.__setattr__(self, "offset", self.offset + float(vals[~pair].sum()))
            rows, cols, vals = np.minimum(rows, cols)[pair], np.maximum(rows, cols)[pair], vals[pair]
        terms = _sum_repeated(self.num_spins, rows, cols, vals)
        for name, value in zip(("j_rows", "j_cols", "j_vals"), terms):
            object.__setattr__(self, name, value)

    @property
    def num_spins(self) -> int:
        return len(self.h)


def resolve_penalty(spec: ProblemSpec) -> float:
    """Penalty weight of build_qubo: explicit P if given, else 10 * max |coefficient| * (B + C).

    The derived weight is the spec's _penalty_scan, formed once per spec
    instance; a spec made by dataclasses.replace (a new q, say) scans its own.
    """
    if spec.params.P is not None:
        return spec.params.P
    return spec._penalty_scan


def build_qubo(spec: ProblemSpec, include_penalty: bool = True) -> BlockQubo:
    """Assemble the full minimization objective in block-banded form; without penalty P = 0."""
    lay = spec.layout
    kn2 = 2 * lay.kn
    terms = spec._term_rows
    wvec = lay.tau_of[:kn2].astype(float) if spec.signed_risk else np.ones(kn2)
    wp = np.zeros((lay.T, lay.step_width))
    wp[:, :kn2] = wvec * spec.prices.p[lay.asset_of[:kn2], : lay.T].T
    return BlockQubo(
        core=spec.covariances.sigma,
        slot=np.maximum(lay.asset_of, 0),
        wp=wp,
        scale=spec.params.q,
        budget_rows=lay.budget_rows.astype(float),
        budget_rhs=np.array([spec.B, spec.C], dtype=float),
        cross=_turnover_band(terms),
        linear=sum(terms.values()).ravel(),
        offset=0.0,
        penalty_weight=resolve_penalty(spec) if include_penalty else 0.0,
    )


def _bqp_rows(free: BlockQubo) -> list[list[tuple[np.ndarray, np.ndarray, int]]]:
    """Per budget row (asset count, then cash): its (indices, coefficients, rhs) at each step."""
    T, w = free.wp.shape
    per_row = []
    for coef, rhs in zip(free.budget_rows, free.budget_rhs):
        idx = np.flatnonzero(coef)
        per_row.append([(t * w + idx, coef[idx].copy(), int(rhs)) for t in range(T)])
    return per_row


def _one_block(A: np.ndarray, offset: float) -> BlockQubo:
    """The dense form E = x'Ax + offset as one step of a BlockQubo."""
    n = A.shape[0]
    return BlockQubo(core=A[None], slot=np.arange(n), wp=np.ones((1, n)), scale=1.0,
                     budget_rows=np.zeros((0, n)), budget_rhs=np.zeros(0),
                     cross=np.zeros((0, n)), linear=np.zeros(n), offset=offset,
                     penalty_weight=0.0)


def _as_block(qubo) -> BlockQubo:
    """A BlockQubo as is; anything else densified into one block, so to_dense checks its type."""
    return qubo if isinstance(qubo, BlockQubo) else _one_block(*to_dense(qubo))


def _block_rows(qubo: BlockQubo, t: int, rows, start: int = 0, out=None,
                scratch=None) -> np.ndarray:
    """Rows `rows` (an index or a slice) of step t's block D_t from column start on, t 0-based.

    Every block entry is formed here; core_t is exactly symmetric, so row j
    is column j.  The penalty part P * R[:, rows]'R is read from the kernel's
    table, each entry one exact integer times P (R is integer-valued).  The
    block is formed in `out` if given, its gathers in `scratch` (both of its
    shape), so a caller that passes both allocates nothing of that size.
    The penalty part of one row, which is what a flip reads, is a view of
    the table, and so are several rows' without scratch.
    """
    kern = qubo._kernel
    wp = qubo.wp[t]
    cols = slice(start, None)
    D = np.multiply(wp[rows, None], wp[cols], out=out)
    D *= qubo.scale
    D *= qubo.core[t, qubo.slot[rows]].take(qubo.slot[cols], axis=-1, out=scratch, mode="clip")
    pattern = kern.pattern[rows]
    D += (kern.penalty[pattern, cols] if scratch is None or pattern.ndim == 0
          else kern.penalty[:, cols].take(pattern, axis=0, out=scratch, mode="clip"))
    return D


def _positions(qubo: BlockQubo, x: np.ndarray) -> np.ndarray:
    """g_t = sum of wp_t * x_t over the positions on each core row, a (T, n) array."""
    T, n = qubo.core.shape[:2]
    rows = qubo.slot + n * np.arange(T)[:, None]
    return np.bincount(rows.ravel(), weights=(qubo.wp * x).ravel(),
                       minlength=T * n).reshape(T, n)


def _step_terms(qubo: BlockQubo, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-step risk scale * g_t' core_t g_t and penalty P * ||b - R x_t||^2 of x (T, w).

    Risk is evaluated as dense_energies evaluates a matrix, only at the steps
    that hold a position: an empty step's product is 0.0, so it is not formed.
    The residuals are integers.
    """
    g = _positions(qubo, x)
    risk = np.zeros(len(g))
    for t in np.flatnonzero(g.any(axis=1)):
        risk[t] = qubo.scale * float(dense_energies(qubo.core[t], 0.0, g[t][None])[0])
    res = qubo.budget_rhs - x @ qubo.budget_rows.T
    return risk, qubo.penalty_weight * (res * res).sum(axis=1)


def energy(qubo: BlockQubo, bits) -> float:
    """Exact quadratic-form value including offset.

    Per-step contributions are computed separately and combined with an
    exactly-rounded sum so large instances evaluate reproducibly across
    orderings.  A one-block QUBO matches dense_energies bit for bit, and a
    feasible assignment carries no P-scale rounding.
    """
    T, w = qubo.wp.shape
    x = _zero_one(bits, qubo.num_vars, QuboError).astype(float).reshape(T, w)
    risk, penalty = _step_terms(qubo, x)
    cross = (qubo.cross * x[:-1] * x[1:]).sum(axis=1)
    return math.fsum([qubo.offset, float(qubo.linear @ x.ravel()), *risk, *penalty, *cross])


def _core_products(qubo: BlockQubo, x: np.ndarray) -> np.ndarray:
    """core_t @ g_t of x (T, w), a (T, n) array; an empty step's product is zero, not formed."""
    g = _positions(qubo, x)
    core_g = np.zeros(g.shape)
    for t in np.flatnonzero(g.any(axis=1)):
        core_g[t] = qubo.core[t] @ g[t]
    return core_g


def _self_terms(qubo: BlockQubo, scratch=None) -> np.ndarray:
    """scale * wp^2 * core_t[slot, slot]: each position's risk entry of D_jj, a (T, w) array.

    Its gather is formed in `scratch`, a (T, w) array, if given.
    """
    core_diag = np.diagonal(qubo.core, axis1=1, axis2=2)
    dg = qubo.wp * qubo.wp
    dg *= qubo.scale
    dg *= np.take(core_diag, qubo.slot, axis=1, out=scratch, mode="clip")
    return dg


def delta_energies(qubo: BlockQubo, bits) -> np.ndarray:
    """Vector of exact energy changes for flipping each bit; O(n^2 + w) per held step.

    core_t @ g_t is formed only at the steps that hold a position; an empty
    step's product is zero.  Each entry is

        d * (linear + dg + 2 * dx - 2 * dg * x + band) + P * (rr - 2 * d * (res'R))

    with d = 1 - 2x, dg the _self_terms, dx = wp * scale * (core_t @ g_t)[slot]
    and band the cross terms to the adjacent steps, evaluated in that order.
    Besides x and the result it holds two (T, w) temporaries.  solve_sa
    reads one entry by the same formula.
    """
    T, w = qubo.wp.shape
    x = _zero_one(bits, qubo.num_vars, QuboError).astype(float).reshape(T, w)
    core_g = _core_products(qubo, x)
    R = qubo.budget_rows
    rr = (R * R).sum(axis=0)
    deltas = np.empty((T, w))
    dg = _self_terms(qubo, scratch=deltas)
    tmp = qubo.wp * qubo.scale
    tmp *= np.take(core_g, qubo.slot, axis=1, out=deltas, mode="clip")  # dx
    tmp *= 2.0
    np.add(qubo.linear.reshape(T, w), dg, out=deltas)
    deltas += tmp
    np.multiply(dg, 2.0, out=tmp)
    tmp *= x
    deltas -= tmp
    band = dg[:-1]
    np.multiply(qubo.cross, x[:-1], out=band)
    deltas[1:] += band
    np.multiply(qubo.cross, x[1:], out=band)
    deltas[:-1] += band
    d = np.multiply(x, 2.0, out=tmp)
    np.subtract(1.0, d, out=d)
    deltas *= d
    res = qubo.budget_rhs - x @ R.T
    pen = np.matmul(res, R, out=dg)
    d *= 2.0
    pen *= d
    np.subtract(rr, pen, out=pen)
    pen *= qubo.penalty_weight
    deltas += pen
    return deltas.ravel()


class _FlipState(NamedTuple):
    """Simulated annealing's single-flip state (see _flip_state); single-owner and mutable.

    The scalar fields are array.arrays, so a read is a Python number; the
    row fields are numpy views of held and dots, or of the problem.
    """

    bits: np.ndarray  # (T * w,) int8, a view of xs
    xs: bytearray  # the bits, flipped as ints
    xf: array  # the bits as floats 0.0 and 1.0, which a proposal reads
    base: array  # linear + dg of each position
    two_dg: array  # 2 * dg
    wp: array  # the position weights
    wp_scale: array  # wp * scale
    held: array  # core_t @ g_t, (T, n) flattened
    at: array  # the held entry of each position: slot + n * t
    dots: array  # res_t'R[:, c] for the k distinct budget columns c, (T, k) flattened
    col: array  # the dots entry of each position: pattern + k * t
    rr: array  # R[:, j]'R[:, j] of each position
    held_rows: list  # held's T rows, numpy views
    dot_rows: list  # dots' T rows, numpy views
    core_rows: list  # core.reshape(T * n, n)'s rows: core_t's row s at s + n * t
    gram_rows: list  # the rows of cols'cols, the budget columns' integer products
    pattern: list  # the gram row of each position in a step


def _scalars(a: np.ndarray, code: str = "d") -> array:
    """a, flattened, as an array.array: a read of one entry is a Python number."""
    return array(code, np.ascontiguousarray(a, dtype=np.dtype(code)).tobytes())


def _flip_state(qubo: BlockQubo, bits: np.ndarray) -> _FlipState:
    """Simulated annealing's state at 0/1 bits: what delta_energies reads, kept factored.

    It holds each step's core_t @ g_t (T, n), the budget residual's dot
    product with each of the kernel's k distinct budget columns (T, k,
    exact integers) and the bits.  solve_sa reads a proposal's delta from
    it by delta_energies' formula, in its order of operations, so at a
    fresh state the two agree bit for bit.  A flip of bit i updates the
    n + k numbers of i's step: core_t @ g_t by +-wp_i * core_t[slot_i]
    (skipped when wp_i = 0) and the residual's dot products by the integers
    -+R[:, i]'R[:, c].  Unlike _flip it keeps no other delta, so a flip
    costs O(n + k) where _flip's costs O(w).
    """
    T, w = qubo.wp.shape
    n = qubo.core.shape[1]
    kern = qubo._kernel
    k = kern.cols.shape[1]
    x = np.asarray(bits, dtype=float).reshape(T, w)
    dg = _self_terms(qubo)
    step_rows = np.arange(T)[:, None]
    held = _scalars(_core_products(qubo, x))
    dots = _scalars((qubo.budget_rhs - x @ qubo.budget_rows.T) @ kern.cols)
    gram = kern.cols.T @ kern.cols
    xs = bytearray(np.asarray(bits, dtype=np.int8).tobytes())
    return _FlipState(
        bits=np.frombuffer(xs, dtype=np.int8),
        xs=xs,
        xf=_scalars(x),
        base=_scalars(qubo.linear.reshape(T, w) + dg),
        two_dg=_scalars(2.0 * dg),
        wp=_scalars(qubo.wp),
        wp_scale=_scalars(qubo.wp * qubo.scale),
        held=held,
        at=_scalars(qubo.slot + n * step_rows, "q"),
        dots=dots,
        col=_scalars(kern.pattern + k * step_rows, "q"),
        rr=_scalars(np.tile(np.diagonal(gram)[kern.pattern], T)),
        held_rows=list(np.frombuffer(held).reshape(T, n)),
        dot_rows=list(np.frombuffer(dots).reshape(T, k)),
        core_rows=list(qubo.core.reshape(T * n, n)),
        gram_rows=list(gram),
        pattern=kern.pattern.tolist(),
    )


def _flip(qubo: BlockQubo, bits: np.ndarray, i: int, deltas: np.ndarray, signs: np.ndarray,
          out=None, scratch=None) -> float:
    """Flip bit i in place; update the deltas of its neighbours; return the energy change.

    The delta-table kernel of apply_flip and descent.  signs holds
    2 * d_k = 2 - 4 x_k for the w positions of i's step; the flip negates
    i's entry.  Step t's deltas gain 2 * d_i * d_k * D_jk: block row j of
    D_t (formed in `out` and `scratch` if given) times signs, added or
    subtracted as d_i is +1 or -1; the two band neighbours gain +-cross
    (zero off the trading slots).  Every factor is +-1 or +-2, which
    rounds nothing, so the order of those products does not matter.  The
    cost is O(w), never the total variable count.
    """
    T, w = qubo.wp.shape
    t, j = divmod(i, w)
    xi = int(bits[i])
    change = deltas[i]
    update = _block_rows(qubo, t, j, out=out, scratch=scratch)
    update *= signs
    step = deltas[t * w:(t + 1) * w]
    (np.subtract if xi else np.add)(step, update, out=step)  # deltas[i] is overwritten below
    cross = qubo._kernel.cross
    if t > 0:
        m = i - w
        deltas[m] += (1.0 if bits[m] == xi else -1.0) * cross[m]
    if t < T - 1:
        m = i + w
        deltas[m] += (1.0 if bits[m] == xi else -1.0) * cross[i]
    bits[i] = 1 - xi
    signs[j] = -signs[j]
    deltas[i] = -change
    return float(change)


def apply_flip(qubo: BlockQubo, bits: np.ndarray, i: int, deltas: np.ndarray) -> float:
    """Flip bit i in place; update deltas of its neighbors; return the energy change.

    _flip with the signs of i's step formed from bits, which must hold
    only 0 and 1.  Cost is proportional to the step width plus the two
    adjacent-step couplings, never the total variable count.
    """
    T, w = qubo.wp.shape
    if not 0 <= i < T * w:
        raise QuboError(f"flip index {i} out of range 0..{T * w - 1}")
    t = i // w
    return _flip(qubo, bits, i, deltas, np.where(bits[t * w:(t + 1) * w], -2.0, 2.0))


def _export_offset(qubo: BlockQubo) -> float:
    """The exported constant: offset plus the penalty's P * ||b||^2 at every step."""
    T = qubo.wp.shape[0]
    return qubo.offset + qubo.penalty_weight * T * float(qubo.budget_rhs @ qubo.budget_rhs)


_BAND_BYTES = 1 << 19  # bytes of a band of a step's table, the export's unit of work


def _band_rows(w: int) -> int:
    """Rows of a step's table the export forms at once, 1 to w: w + 1 floats a row, and
    _BAND_BYTES a band."""
    return max(1, min(w, _BAND_BYTES // (8 * (w + 1))))


def _step_tables(qubo: BlockQubo, scratch=None):
    """Yield (first, band) for each band of each step's table, the export's one derivation.

    Step t's table has a row for each of its w variables; it is formed in
    bands of _band_rows(w) rows, so its working set is the same few hundred
    kB at any w.  The band of rows start..stop-1 is a (stop - start,
    w - start + 1) array and first = t * w + start is the variable of its
    first row and column.  Row i holds the diagonal term at column i, the
    pair terms 2 * D_ij at the columns j > i, zeros below the diagonal, and
    the band term to (t + 1, start + i) in its last column (zero at the last
    step).  Its nonzero entries, row-major, are already in (i, j) order, and
    every band's indices lie above the previous band's.  Every band is
    formed in scratch allocated once, so a band is valid only until the
    next one is yielded.  The band's gathers use `scratch`, _band_rows(w) *
    (w + 1) floats, if given; it is free again once the band is yielded.
    """
    T, w = qubo.wp.shape
    P = qubo.penalty_weight
    linear = qubo.linear.reshape(T, w) + (-2.0 * P) * (qubo.budget_rhs @ qubo.budget_rows)
    height = _band_rows(w)
    cells = np.empty(height * (w + 1))
    gather = np.empty(height * (w + 1)) if scratch is None else scratch
    below = np.tri(height, height, -1, dtype=bool)
    for t in range(T):
        for start in range(0, w, height):
            stop = min(start + height, w)
            rows, width = stop - start, w - start
            band = cells[:rows * (width + 1)].reshape(rows, width + 1)
            D = _block_rows(qubo, t, slice(start, stop), start, out=band[:, :-1],
                            scratch=gather[:rows * width].reshape(rows, width))
            diagonal = band.reshape(-1)[::width + 2]  # each row's entry (i, i), a view
            terms = linear[t, start:stop] + diagonal
            D *= 2.0
            np.copyto(D[:, :rows], 0.0, where=below[:rows, :rows])
            diagonal[:] = terms
            band[:, -1] = qubo.cross[t, start:stop] if t < T - 1 else 0.0
            yield t * w + start, band


def _sparse_bands(qubo: BlockQubo):
    """Yield each band's (rows, cols, vals, step) as to_sparse lists them, in (i, j) order.

    The indices are in the index dtype, so no index array of the whole
    export is int64.  The three arrays are views of scratch allocated once,
    the values in _step_tables' gather scratch: a band's triplets are valid
    only until the next band's are yielded.
    """
    dtype = _index_dtype(qubo.num_vars)
    w = qubo.wp.shape[1]
    size = _band_rows(w) * (w + 1)
    nonzero, vals = np.empty(size, dtype=bool), np.empty(size)
    rows, cols = np.empty(size, dtype=dtype), np.empty(size, dtype=dtype)
    for first, band in _step_tables(qubo, vals):
        width = band.shape[1]
        cells = band.reshape(-1)
        at = np.flatnonzero(np.not_equal(cells, 0.0, out=nonzero[:len(cells)]))
        n = len(at)
        r, c = np.divmod(at, width, out=(rows[:n], cols[:n]))
        v = cells.take(at, out=vals[:n], mode="clip")
        del at  # not held while the band is consumed
        np.add(r, w, out=c, where=c == width - 1)  # the band term of row r: (r + w)
        r += first
        c += first
        yield r, c, v, first // w


def to_sparse(qubo: BlockQubo) -> SparseQubo:
    """Collapse the block form into sorted upper-triangular triplets, the steps in order."""
    return SparseQubo(qubo.num_vars, *_triplets(qubo))


def _triplets(qubo) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """rows, cols, vals, offset of a BlockQubo's canonical bands or of a SparseQubo.

    A BlockQubo's terms are counted first, so each array is allocated once,
    at its size, and filled band by band.
    """
    if isinstance(qubo, SparseQubo):
        return qubo.rows, qubo.cols, qubo.vals, qubo.offset
    terms = sum(np.count_nonzero(band) for _, band in _step_tables(qubo))
    dtype = _index_dtype(qubo.num_vars)
    whole = np.empty(terms, dtype=dtype), np.empty(terms, dtype=dtype), np.empty(terms)
    at = 0
    for *band, _ in _sparse_bands(qubo):
        for into, part in zip(whole, band):
            into[at:at + len(part)] = part
        at += len(band[2])
    return (*whole, _export_offset(qubo))


_DENSE_LIMIT = 8192


def _check_dense(num_vars: int) -> None:
    """The dense limit, raised by to_dense and by `solve --qubo` on a file's header."""
    if num_vars > _DENSE_LIMIT:
        raise QuboError(f"{num_vars} variables exceeds dense limit {_DENSE_LIMIT}")


def _dense_vars(qubo) -> int:
    """The variable count of a BlockQubo or SparseQubo; any other problem is a QuboError."""
    if not isinstance(qubo, (BlockQubo, SparseQubo)):
        raise QuboError(f"cannot densify {type(qubo).__name__}")
    return qubo.num_vars


def to_dense(qubo) -> tuple[np.ndarray, float]:
    """Symmetric dense matrix A with linear terms on the diagonal: E = x'Ax + offset.

    Magnitude cap: a QuboError unless 4 * (|offset| + S) is finite, S the sum of |value|.
    A row of A sums to at most S, so energies lie within |offset| + S and the
    intermediates of delta_energies within 3S (dg + 2 * dx): no sum of them overflows.
    """
    _check_dense(_dense_vars(qubo))
    rows, cols, vals, offset = _triplets(qubo)
    with np.errstate(over="ignore"):
        S = sum(float(np.abs(vals[i:i + _CHECK_BLOCK]).sum())
                for i in range(0, len(vals), _CHECK_BLOCK))
    if not math.isfinite(4.0 * (abs(offset) + S)):
        raise QuboError("magnitude cap: 4 * (|offset| + sum of |value|) is not finite, "
                        "so energies could overflow")
    A = np.zeros((qubo.num_vars, qubo.num_vars))
    diag = rows == cols
    A[rows[diag], cols[diag]] = vals[diag]
    off = ~diag
    half = vals[off] / 2.0
    A[rows[off], cols[off]] = half
    A[cols[off], rows[off]] = half
    return A, offset


def dense_energies(A: np.ndarray, offset: float, X: np.ndarray) -> np.ndarray:
    """Batch energies of 0/1 row vectors under E = x'Ax + offset."""
    X = np.asarray(X, dtype=float)
    return ((X @ A) * X).sum(axis=1) + offset


def all_energies(offset: float, fields, coupling: np.ndarray, low: float) -> np.ndarray:
    """offset + f.v + sum_{k<q} coupling[k, q] v_k v_q for every v, in O(2^m) by doubling.

    v_k is `low` (-1 for spins, 0 for bits) or 1 as bit k of the index is
    0 or 1.  After variables 0..k-1, out[:2^k] holds the terms among them
    over the 2^k prefixes; adding k maps e to (e + low*f_k, e + f_k), where
    f_k, the field of k over those prefixes, is doubled the same way from
    fields[k] with coupling[j, k] for j < k.  Both double in place: the
    output and one buffer of 2^(m-1) are all that is formed.
    """
    fields = np.ravel(fields)
    out = np.empty(1 << len(fields))
    out[0] = offset
    f = np.empty(len(out) // 2 or 1)
    for k in range(len(fields)):
        f[0] = fields[k]
        for j in range(k):
            h = 1 << j
            np.add(f[:h], coupling[j, k], out=f[h : 2 * h])
            f[:h] += low * coupling[j, k]
        n = 1 << k
        np.add(out[:n], f[:n], out=out[n : 2 * n])
        f[:n] *= low
        out[:n] += f[:n]
    return out


def to_ising(qubo) -> IsingModel:
    """Map x = (s + 1)/2 so that F(s) + offset' equals the QUBO energy exactly."""
    rows, cols, vals, offset = _triplets(qubo)
    h = np.zeros(qubo.num_vars)
    diag = rows == cols
    half = vals[diag]  # a mask index copies, so each coefficient is divided in place, once
    half /= 2.0
    np.add.at(h, rows[diag], half)
    offset += float(half.sum())
    off = np.logical_not(diag, out=diag)  # in place: diag is not read again
    orow, ocol, j = rows[off], cols[off], vals[off]
    j /= 4.0
    np.add.at(h, orow, j)
    np.add.at(h, ocol, j)
    offset += float(j.sum())
    return IsingModel(h=h, j_rows=orow, j_cols=ocol, j_vals=j, offset=offset)


def ising_value(ising: IsingModel, spins) -> float:
    """F(s) + offset for one spin vector in {-1,+1}^n."""
    s = np.asarray(spins, dtype=float)
    return float(ising.h @ s + (ising.j_vals * s[ising.j_rows] * s[ising.j_cols]).sum()
                 + ising.offset)


def _bits_by_step(spec: ProblemSpec, bits) -> np.ndarray:
    """The checked assignment as a (T, w) float array, one row per step."""
    lay = spec.layout
    return _check_assignment(lay, bits).astype(float).reshape(lay.T, lay.step_width)


def _cash_flows(spec: ProblemSpec, x: np.ndarray) -> dict[str, np.ndarray]:
    """Every step_components entry but risk and penalty, at x (T, w); no penalty is resolved."""
    terms = spec._term_rows
    term = {name: (row * x).sum(axis=1) for name, row in terms.items()}
    transaction = term["entry"]
    transaction[1:] += term["exit"][:-1] + (_turnover_band(terms) * x[:-1] * x[1:]).sum(axis=1)
    liquidation = np.zeros(spec.T)
    liquidation[-1] = term["exit"][-1]
    return {
        "gross_profit": -term["profit"],
        "transaction": transaction,
        "liquidation": liquidation,
        "short_cost": term["short"],
        "cash_interest": -term["cash"],
    }


def step_components(spec: ProblemSpec, bits) -> dict[str, np.ndarray]:
    """Per-step objective ingredients, all as length-T arrays in currency.

    Each is one of the spec's _term_rows, or a term of energy, read at x.
    Sign conventions are "natural": gross_profit and cash_interest are
    income (positive good), the cost entries are outlays (positive bad).
    """
    x = _bits_by_step(spec, bits)
    qubo = build_qubo(spec)
    risk, penalty = _step_terms(qubo, x)
    return {"risk": risk, **_cash_flows(spec, x), "penalty": penalty}


def objective_breakdown(spec: ProblemSpec, bits) -> dict[str, float]:
    """Objective-signed components; they sum to energy(build_qubo(spec), bits)."""
    comp = step_components(spec, bits)
    return {
        "risk": float(comp["risk"].sum()),
        "profit": -float(comp["gross_profit"].sum()),
        "transaction": float(comp["transaction"].sum()),
        "liquidation": float(comp["liquidation"].sum()),
        "cash_interest": -float(comp["cash_interest"].sum()),
        "short_cost": float(comp["short_cost"].sum()),
        "penalty": float(comp["penalty"].sum()),
    }


# --- text export ------------------------------------------------------------
#
# A term line is `i j value\n` with value = repr(float).  Both directions work
# in chunks of lines with numpy; the bytes written and the arrays read are the
# ones a per-line `f"{int(i)} {int(j)} {float(v)!r}\n"` loop and a per-line
# `int, int, float` parse give.

_MIN_TERM_BYTES = 6  # the shortest term line, "0 0 0\n"
_MAX_HEADER_CHARS = 255  # a header line's characters before its newline, at most
_MAX_LINE_CHARS = 1 << 18  # a term line's characters before its newline, at most
_QUOTE_CHARS = 80  # characters of an input line a parse error quotes, at most
_CHUNK_LINES = 1 << 14  # term lines per chunk of the writer
_CHUNK_CHARS = 1 << 18  # characters per chunk of the reader, extended to a line end
_MAX_INDEX_DIGITS = 8  # one word; longer index fields take the per-line parse
_MAX_TOKEN_BYTES = 24  # three words; longer value tokens take the per-line parse
_PAD_BYTES = 24  # bytes on either side of a parsed chunk, so every word read lies inside it
_FRONT = b"0" * (_PAD_BYTES - 1) + b"\n"  # ends as the line before the chunk would
_BACK = b"0" * _PAD_BYTES
_ZEROS = 0x3030303030303030  # '0' in every byte of a word
_HIGH_BYTES = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)
_TOKEN_MASKS = np.array([[(1 << 8 * min(max(n - 8 * k, 0), 8)) - 1  # [k, n]: word k of n bytes
                          for n in range(_MAX_TOKEN_BYTES + 1)]
                         for k in range(_MAX_TOKEN_BYTES // 8)], dtype=np.uint64)
_SEPARATORS = np.array([ord(" "), ord(" "), ord("\n")], dtype=np.uint8)  # of a canonical line
_CHECK_BLOCK = 1 << 16  # terms per block of a check over every term


def _value_texts(runs: list, vals: np.ndarray) -> np.ndarray:
    """The repr text of each of vals, from a table of the float64 bit patterns.

    The table is `runs`, sorted (keys, texts) pairs with no key in two.
    Patterns in no run are repr'd and added as a new run, which is merged
    into the one before it while that one is at most twice its size: runs
    stay O(log size), and the whole table is copied O(log size) times a
    step, not once a piece.
    """
    heads, starts = _runs(np.asarray(vals, dtype=np.float64).view(np.uint64))
    bits, inverse = np.unique(heads, return_inverse=True)
    texts = np.empty(len(bits), "S24")
    miss, new = np.arange(len(bits)), bits  # the entries not found yet, and their bits
    for keys, known in runs:
        at = keys.searchsorted(new)
        hit = keys.take(at, mode="clip") == new
        texts[miss[hit]] = known.take(at[hit])
        left = ~hit
        miss, new = miss[left], new[left]
    if len(new):
        texts[miss] = list(map(repr, new.view(np.float64).tolist()))
        runs.append((new, texts[miss]))
    while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
        (keys, known), (later, more) = runs[-2:]
        at = keys.searchsorted(later)
        runs[-2:] = [(np.insert(keys, at, later), np.insert(known, at, more))]
    return texts.take(np.repeat(inverse, np.diff(starts)))


def _write_records(fh, parts, num_vars: int, terms: int, seps=(b"", b" ", b" ", b"\n"),
                   lead: int = 0) -> None:
    """Write a record per term of parts, (rows, cols, vals, step) in file order, to fh.

    seps are the bytes before, between and after a record's i, j and value.
    A piece of at most _CHUNK_LINES terms fills one record buffer with
    NUL-padded text, and the padding is dropped as it is written.  Index
    text is one table (per piece if num_vars > terms); value text a
    _value_texts table of the step's bit patterns (step None: the piece's),
    repr once a new one.  The first `lead` bytes are not written.
    """
    index = f"S{len(str(num_vars - 1))}"
    width = dict(zip("abcd", (f"S{len(sep)}" for sep in seps)), i=index, j=index, v="S24")
    rec = np.empty(min(_CHUNK_LINES, terms), [(f, width[f]) for f in "aibjcvd"])
    for f, sep in zip("abcd", seps):
        rec[f] = sep
    table = np.arange(num_vars).astype(index) if num_vars <= terms else None
    last = None
    for *part, step in parts:
        for a in range(0, len(part[2]), _CHUNK_LINES):
            if step is None or step != last:
                runs, last = [], step
            rows, cols, vals = (x[a:a + _CHUNK_LINES] for x in part)
            piece = rec[:len(vals)]
            for f, k in (("i", rows), ("j", cols)):
                tab = table
                if tab is None:
                    tab, k = np.unique(k, return_inverse=True)
                    tab = tab.astype(index)
                piece[f] = tab.take(k)
            piece["v"] = _value_texts(runs, vals)
            fh.write(piece.tobytes().translate(None, b"\0")[lead:])
            lead = 0


def _capped(value):
    """value, or a QuboError (the export's magnitude cap) if an entry is not finite."""
    if not _every_block(lambda v: np.isfinite(v).all(), np.atleast_1d(value)):
        raise QuboError("magnitude cap: an exported term or offset is not finite")
    return value


def _checked_count(qubo: BlockQubo) -> tuple[int, float]:
    """The export's term count and offset, every band and the offset capped."""
    return (sum(np.count_nonzero(_capped(band)) for _, band in _step_tables(qubo)),
            _capped(_export_offset(qubo)))


def write_qubo_text(qubo, path) -> int:
    """`p qubo <num_vars> <num_terms> <offset>` then `i j value` lines, i <= j; returns num_terms.

    A BlockQubo is written as to_sparse would give it, one band of a step's
    rows at a time: a first pass counts and caps the terms for the header,
    so no band is kept.
    """
    if isinstance(qubo, BlockQubo):
        num_terms, offset = _checked_count(qubo)
        parts = _sparse_bands(qubo)
    else:
        rows, cols, vals, offset = _triplets(qubo)
        num_terms, parts = len(_capped(vals)), [(rows, cols, vals, None)]
    header = f"p qubo {qubo.num_vars} {num_terms} {float(_capped(offset))!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        _write_records(fh, parts, qubo.num_vars, num_terms)
    return num_terms


def write_bqp_json(spec: ProblemSpec, path) -> None:
    """The BQP document, the penalty-free objective and per-step budget rows, and a newline.

    The objective's to_sparse terms are [i, j, value] lists, counted and
    capped, then streamed from the penalty-free BlockQubo one band of a
    step's rows at a time; json.dump writes the rest.
    """
    free = build_qubo(spec, include_penalty=False)
    num_terms, offset = _checked_count(free)
    constraints = [{"kind": kind, "step": t, "indices": idx.tolist(), "coeffs": coef.tolist(),
                    "rhs": rhs}
                   for kind, per_step in zip(("asset", "cash"), _bqp_rows(free))
                   for t, (idx, coef, rhs) in enumerate(per_step, start=1)]
    doc = {"objective": {"num_vars": free.num_vars, "offset": offset, "terms": []},
           "constraints": constraints}
    head, mark, tail = json.dumps(doc).partition('"terms": [')
    with open(path, "wb") as fh:
        fh.write((head + mark).encode())
        _write_records(fh, _sparse_bands(free), free.num_vars, num_terms,
                       (b", [", b", ", b", ", b"]"), lead=2)  # no ", " before the first term
        fh.write(tail.encode() + b"\n")


def write_ising_text(ising: IsingModel, path) -> None:
    """Same line format as the QUBO export; h terms appear as `i i value`."""
    h_idx = np.flatnonzero(_capped(ising.h))
    num_terms = len(h_idx) + len(_capped(ising.j_vals))
    header = f"p ising {ising.num_spins} {num_terms} {float(_capped(ising.offset))!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        _write_records(fh, [(h_idx, h_idx, ising.h[h_idx], None),
                            (ising.j_rows, ising.j_cols, ising.j_vals, None)],
                       ising.num_spins, num_terms)


def _eight_digits(w: np.ndarray, length: np.ndarray):
    """The numbers in the high `length` (1-8) bytes of the words w, or None unless all are digits.

    w is overwritten.  The first digit is the lowest kept byte, so the
    dropped low bytes act as leading zeros.  Each byte is checked by two
    nibble tests and the digits are combined in three multiply-shift steps
    (Lemire, "Number parsing at a gigabyte per second", SPE 51(8), 2021).
    """
    keep = _HIGH_BYTES[length]
    w &= keep
    keep &= _ZEROS
    w -= keep  # the digits; a byte below '0' borrows, which its own high nibble shows
    np.add(w, 0x0606060606060606, out=keep)
    keep |= w
    keep &= 0xF0F0F0F0F0F0F0F0
    if keep.any():  # a high nibble set in d or in d + 6: some byte is not a digit
        return None
    w *= 2561  # 10 * 2**8 + 1: two-digit lanes
    w >>= 8
    w &= 0x00FF00FF00FF00FF
    w *= 6553601  # 100 * 2**16 + 1: four-digit lanes
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 42949672960001  # 10**4 * 2**32 + 1: the number
    w >>= 32
    return w.view(np.int64)


def _token_keys(parts: list[np.ndarray]) -> np.ndarray:
    """A 64-bit key of each value token from its masked words; equal tokens get equal keys."""
    key = parts[0].copy()
    for w in parts[1:]:
        key *= 0x9E3779B97F4A7C15
        key ^= w
    return key


def _token_values(words: np.ndarray, start: np.ndarray, length: np.ndarray):
    """float of each token of 1-24 bytes at start, or None if float rejects one or keys collide.

    A token is read as up to three words, masked past its end.  Runs of
    equal keys, then the distinct keys of the runs, are checked word for
    word against one token of each, and float runs once per distinct token.
    """
    parts = []
    for k in range(-(-int(length.max()) // 8)):
        w = words[start + 8 * k]
        w &= _TOKEN_MASKS[k][length]
        parts.append(w)
    key = _token_keys(parts)
    new = np.empty(len(key), dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    inside = ~new[1:]
    if any(((w[1:] != w[:-1]) & inside).any() for w in parts):
        return None  # a run of one key holds two tokens
    first = np.flatnonzero(new)
    parts = [w[first] for w in parts]  # one token a run from here on
    order = np.argsort(key[first])  # np.unique's sort, unstable: any run of a key may stand for it
    key = key[first[order]]
    head = np.empty(len(order), dtype=bool)
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(head) - 1
    rep = order[head]
    if any((w[rep][inverse] != w).any() for w in parts):
        return None  # two distinct tokens share a key
    tokens = np.stack([w[rep] for w in parts], axis=1).view(f"S{8 * len(parts)}").ravel()
    try:
        value = np.fromiter(map(float, tokens.tolist()), dtype=np.float64, count=len(tokens))
    except ValueError:
        return None
    return np.repeat(value[inverse], np.diff(first, append=len(start)))


def _canonical_terms(buf: bytes, stop: int, count: int):
    """(rows, cols, vals) of the `count` lines in buf[_PAD_BYTES:stop]; None unless all canonical.

    A canonical line is `digits SP digits SP token LF`, with at most 8
    digits and 24 token bytes.  buf has _PAD_BYTES on either side, the
    first ending in LF.  The separators are found first, and then every
    field is read through one strided view of buf as the little-endian
    word at each byte offset (after Langdale and Lemire, "Parsing gigabytes
    of JSON per second", VLDB J. 28, 2019).  vals are float(token) bit for
    bit.
    """
    b = np.frombuffer(buf, dtype=np.uint8, count=stop)
    seps = np.flatnonzero(b <= ord(" "))  # the LF before the first line, then three a line
    if len(seps) != 3 * count + 1 or not (b[seps[1:]].reshape(count, 3) == _SEPARATORS).all():
        return None
    lengths = np.diff(seps)
    lengths -= 1
    len_i, len_j, len_v = lengths[0::3], lengths[1::3], lengths[2::3]
    if lengths.min() < 1 or max(len_i.max(), len_j.max()) > _MAX_INDEX_DIGITS or (
            len_v.max() > _MAX_TOKEN_BYTES):
        return None
    words = np.ndarray((len(buf) - 7,), "<u8", buffer=buf, strides=(1,))
    vals = _token_values(words, seps[2::3] + 1, len_v)
    rows = None if vals is None else _eight_digits(words[seps[1::3] - 8], len_i)
    cols = None if rows is None else _eight_digits(words[seps[2::3] - 8], len_j)
    return None if cols is None else (rows, cols, vals)


def _parse_lines(text: str, first: int, count: int, path):
    """Per-line parse of the `count` term lines of text, term `first` the first; owns the errors.

    Returns their (rows, cols, vals), the indices as int64.
    """
    rows = np.empty(count, dtype=np.int64)
    cols = np.empty(count, dtype=np.int64)
    vals = np.empty(count)
    for k, line in enumerate(io.StringIO(text, newline="\n")):
        try:
            i, j, v = line.split()
            rows[k], cols[k], vals[k] = int(i), int(j), float(v)
        except (ValueError, OverflowError) as exc:
            raise QuboParseError(f"{path}:{first + k + 2}: bad term line {_quoted(line)}") from exc
    return rows, cols, vals


def _read_terms(fh, path, num_vars: int, num_terms: int):
    """(rows, cols, vals, rest) of the next num_terms lines of text file fh: the terms in file
    order, and the bytes read past them.

    Each chunk's int64 indices are checked against num_vars before they are
    stored in _index_dtype(num_vars), so none wraps.
    """
    dtype = _index_dtype(num_vars)
    rows, cols, vals = (np.empty(num_terms, dtype=dtype), np.empty(num_terms, dtype=dtype),
                        np.empty(num_terms))
    done = 0
    rest = b""  # of a file of 0 terms
    while done < num_terms:
        text = fh.read(_CHUNK_CHARS)
        tail = fh.readline(_MAX_LINE_CHARS + 1)  # a longer line is not read whole
        if len(text) - text.rfind("\n") - 1 + len(tail.rstrip("\n")) > _MAX_LINE_CHARS:
            line = done + text.count("\n")  # the terms before the line that crosses the end
            if line < num_terms:
                raise QuboParseError(f"{path}:{line + 2}: term line longer than "
                                     f"{_MAX_LINE_CHARS} characters")
        text += tail
        if not text:
            raise QuboParseError(f"{path}: expected {num_terms} terms, got {done}")
        buf = b"".join((_FRONT, text.encode("utf-8"), b"" if text.endswith("\n") else b"\n",
                        _BACK))
        del text
        stop = len(buf) - _PAD_BYTES
        line_ends = np.frombuffer(buf, dtype=np.uint8, count=stop)[_PAD_BYTES:] == ord("\n")
        count = np.count_nonzero(line_ends)
        if count > num_terms - done:
            count = num_terms - done
            stop = _PAD_BYTES + int(np.flatnonzero(line_ends)[count - 1]) + 1
        del line_ends
        rest = buf[stop:-_PAD_BYTES]
        terms = _canonical_terms(buf, stop, count)
        if terms is None:
            terms = _parse_lines(buf[_PAD_BYTES:stop].decode("utf-8"), done, count, path)
        r, c, v = terms
        if (r > c).any() or c.max() >= num_vars or r.min() < 0:
            raise QuboParseError(f"{path}: term indices out of range or not upper-triangular")
        stop = done + len(v)
        rows[done:stop], cols[done:stop], vals[done:stop] = r, c, v
        done = stop
        del terms, r, c, v  # else they live through the next parse
    return rows, cols, vals, rest


def _read_header(fh, path) -> tuple[str, int, int, float]:
    """kind ("qubo" or "ising"), num_vars, num_terms and offset of text file fh's header line.

    The header is checked by itself and against the file's size, before
    any term is read.
    """
    line = fh.readline(_MAX_HEADER_CHARS + 1)  # a file with no newline is not read whole
    if len(line.rstrip("\n")) > _MAX_HEADER_CHARS:
        raise QuboParseError(f"{path}: header line longer than {_MAX_HEADER_CHARS} characters")
    header = line.split()
    if len(header) != 5 or header[0] != "p" or header[1] not in ("qubo", "ising"):
        raise QuboParseError(f"{path}: bad header {_quoted(' '.join(header))}")
    try:
        num_vars = int(header[2])
        num_terms = int(header[3])
        offset = float(header[4])
    except ValueError as exc:
        raise QuboParseError(f"{path}: bad header values: {exc}") from exc
    if num_vars < 0 or num_terms < 0 or not math.isfinite(offset):
        raise QuboParseError(f"{path}: bad header values {' '.join(header[2:])!r}")
    if num_terms * _MIN_TERM_BYTES > os.fstat(fh.fileno()).st_size:
        raise QuboParseError(f"{path}: {num_terms} terms cannot fit in the file")
    return header[1], num_vars, num_terms, offset


def _quoted(text: str) -> str:
    """repr(text) if it has at most _QUOTE_CHARS characters, else of its head and the length."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


def read_qubo_text(path):
    """Parse the text export; returns SparseQubo or IsingModel per the header.

    The terms are read into triplets in file order and passed on to be
    sorted and summed, or to IsingModel.
    """
    with open(path, encoding="utf-8") as fh:
        kind, num_vars, num_terms, offset = _read_header(fh, path)
        rows, cols, vals, rest = _read_terms(fh, path, num_vars, num_terms)
        if rest.decode("utf-8").strip() or any(
                text.strip() for text in iter(lambda: fh.read(_CHUNK_CHARS), "")):
            raise QuboParseError(f"{path}: more lines than the {num_terms} terms declared")
    if not _every_block(lambda v: np.isfinite(v).all(), vals):
        raise QuboParseError(f"{path}: non-finite term value")
    if kind == "ising":
        diag = rows == cols
        try:
            h = np.zeros(num_vars)
        except (MemoryError, ValueError) as exc:
            raise QuboError(f"{path}: {num_vars} spins cannot be held in memory") from exc
        with np.errstate(over="ignore"):  # an inf field is rejected by the magnitude caps
            np.add.at(h, rows[diag], vals[diag])
        return IsingModel(h=h, j_rows=rows[~diag], j_cols=cols[~diag],
                          j_vals=vals[~diag], offset=offset)
    return SparseQubo(num_vars=num_vars, rows=rows, cols=cols, vals=vals, offset=offset)


def _every_block(test, *arrays) -> bool:
    """Whether test holds on each block of _CHECK_BLOCK entries of the equal-length arrays.

    The block's temporaries are all the memory the check takes.
    """
    if len(arrays[0]) <= _CHECK_BLOCK:  # one block, tested without slicing
        return bool(test(*arrays))
    return all(test(*(a[i:i + _CHECK_BLOCK] for a in arrays))
               for i in range(0, len(arrays[0]), _CHECK_BLOCK))


def _sum_repeated(size: int, rows, cols, vals):
    """The terms with indices in _index_dtype(size), sorted by (i, j), repeats summed.
    Pairs that already strictly increase in (i, j) pass as is, with no copy once in that
    dtype; else the sort is the peak of reading a file out of order."""
    dtype = _index_dtype(size)
    rows, cols = rows.astype(dtype, copy=False), cols.astype(dtype, copy=False)
    if _every_block(lambda r, c, r1, c1: ((r1 > r) | ((r1 == r) & (c1 > c))).all(),
                    rows[:-1], cols[:-1], rows[1:], cols[1:]):
        return rows, cols, vals
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    del order
    first = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])])
    with np.errstate(over="ignore"):  # an inf sum is rejected by the magnitude caps
        return rows[first], cols[first], np.add.reduceat(vals, first)
