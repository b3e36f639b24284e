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
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import ProblemSpec, _check_assignment, _zero_one

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
        return _Kernel(penalty=penalty, pattern=pattern, cross=self.cross.tolist())


class _Kernel(NamedTuple):
    """Per-problem lookups of apply_flip and _block_rows."""

    penalty: np.ndarray  # (k, w): P * R[:, j]'R for each of the k distinct columns j of R
    pattern: np.ndarray  # (w,): the row of `penalty` that column j of R selects
    cross: list[list[float]]  # BlockQubo.cross, for scalar reads


def _index_dtype(num_vars: int) -> type:
    """The narrowest dtype of term indices below num_vars: int16, int32 or int64.

    Indices run to num_vars - 1, so int16 serves num_vars < 2**15 (exp1's
    12,100 variables: 12 bytes a term with a float64 value), int32
    num_vars < 2**31, and int64 any larger problem.
    """
    if num_vars < 2**15:
        return np.int16
    return np.int32 if num_vars < 2**31 else np.int64


def _check_indices(what: str, size: int, *arrays: np.ndarray) -> None:
    """Each non-empty index array holds integers in 0..size-1, else a QuboError."""
    arrays = [a for a in arrays if len(a)]
    if any(a.dtype.kind not in "iu" for a in arrays):
        raise QuboError(f"{what} indices must be integers")
    if any(a.min() < 0 or a.max() >= size for a in arrays):
        raise QuboError(f"{what} indices must lie in 0..{size - 1}")


@dataclass(frozen=True)
class SparseQubo:
    """Upper-triangular triplet export form, sorted by (i, j), no repeated terms.

    Repeated (i, j) terms are summed on construction.  to_sparse also drops
    zero terms; read_qubo_text keeps those a file lists.  rows and cols are
    range-checked, then held in _index_dtype(num_vars): int16 below 2**15
    variables, int32 below 2**31, else int64.
    """

    num_vars: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    offset: float

    def __post_init__(self):
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        _check_indices("triplet", self.num_vars, rows, cols)
        if not _every_block(lambda r, c: (r <= c).all(), rows, cols):
            raise QuboError("triplets must satisfy i <= j")
        terms = _sum_repeated(self.num_vars, rows, cols, self.vals)
        for name, value in zip(("rows", "cols", "vals"), terms):
            object.__setattr__(self, name, value)

    @property
    def num_terms(self) -> int:
        return len(self.vals)


@dataclass(frozen=True)
class IsingModel:
    """Spin model F(s) = sum h_i s_i + sum_{i<j} J_ij s_i s_j + offset, s in {-1,+1}.

    Couplings are range-checked and stored as SparseQubo stores triplets: i < j,
    sorted, repeats summed, indices in _index_dtype; canonical input is not
    copied.  A pair (i, i) is the constant s_i^2 = 1, so it joins offset.
    """

    h: np.ndarray
    j_rows: np.ndarray
    j_cols: np.ndarray
    j_vals: np.ndarray
    offset: float

    def __post_init__(self):
        rows, cols, vals = (np.asarray(a) for a in (self.j_rows, self.j_cols, self.j_vals))
        _check_indices("coupling", self.num_spins, rows, cols)
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


def _per_spec(spec: ProblemSpec, derive):
    """derive(spec), formed on the first call for this spec instance and kept on it.

    The value sits in the instance's __dict__ under derive's name, where
    cached_property keeps spec.layout.  dataclasses.replace makes a new
    instance, which forms its own.
    """
    memo = vars(spec)
    name = derive.__name__
    if name not in memo:
        memo[name] = derive(spec)
    return memo[name]


def _linear_terms(spec: ProblemSpec) -> dict[str, np.ndarray]:
    """The spec's term rows, formed once per spec instance and read-only.

    build_qubo, resolve_penalty and _cash_flows share them.
    """
    return _per_spec(spec, _term_rows)


def _term_rows(spec: ProblemSpec) -> dict[str, np.ndarray]:
    """Non-penalty linear coefficients of each objective term, one length-w row per step.

    The exit row at step t prices the turnover leg paid when a position
    opened at t is closed at t + 1; at t = T it is the terminal liquidation.
    Their sum, in this order, is build_qubo's `linear`.
    """
    lay = spec.layout
    T = lay.T
    kn2 = 2 * lay.kn
    tau = lay.tau_of[:kn2].astype(float)
    prm = spec.params
    p_slot = spec.prices.p[lay.asset_of[:kn2]]
    pt = p_slot[:, :T].T  # (T, kn2): price of each slot at its step
    pt1 = p_slot[:, 1:].T
    p_leg = pt1.copy()
    p_leg[-1] = pt[-1]

    def trade_row(values):
        row = np.zeros((T, lay.step_width))
        row[:, :kn2] = values
        return row

    cash = np.zeros((T, lay.step_width))
    y_slice = slice(kn2 + lay.nb, lay.step_width)
    cash[:, y_slice] = -(prm.rho_c * prm.u * lay.slack_weight[y_slice])
    rows = {
        "profit": trade_row(-(tau * (pt1 - pt))),  # profit enters with a minus sign
        "entry": trade_row(prm.delta * pt),
        "exit": trade_row(prm.delta * p_leg),
        "short": trade_row(prm.rho_s * pt * (tau < 0)),
        "cash": cash,
    }
    for row in rows.values():
        row.setflags(write=False)
    return rows


def _turnover_band(terms: dict[str, np.ndarray]) -> np.ndarray:
    """cross, the (T-1, w) band -2 * exit leg at steps 1..T-1, +0.0 off the trading slots."""
    return 0.0 - 2.0 * terms["exit"][:-1]


def resolve_penalty(spec: ProblemSpec) -> float:
    """Penalty weight of build_qubo: explicit P if given, else 10 * max |coefficient| * (B + C).

    The derived weight is scanned once per spec instance and kept on it;
    a spec made by dataclasses.replace (a new q, say) scans its own.
    """
    if spec.params.P is not None:
        return spec.params.P
    return _per_spec(spec, _penalty_scan)


def _penalty_scan(spec: ProblemSpec) -> float:
    """10 * max |coefficient| * (B + C) over the term rows, the band and the risk entries.

    A risk entry is q * (w_i p_a)(w_j p_b) * Sigma_ab for the assets a, b of
    slots i, j with weights w = +-1, and every asset owns a slot, so the
    (n, n) products q * p_a p_b * Sigma_ab hold exactly the risk magnitudes.
    They are formed one step at a time in one (n, n) buffer.  The turnover
    band is build_qubo's cross.
    """
    prm = spec.params
    p = spec.prices.p
    terms = _linear_terms(spec)
    band = np.abs(_turnover_band(terms)).max(initial=0.0)
    maxcoef = max(np.abs(sum(terms.values())).max(), band)
    if prm.q > 0:
        buf = np.empty((spec.n, spec.n))
        for t, sigma_t in enumerate(spec.covariances.sigma):
            np.multiply.outer(p[:, t], p[:, t], out=buf)
            buf *= prm.q
            buf *= sigma_t
            np.abs(buf, out=buf)
            maxcoef = max(maxcoef, buf.max())
    if maxcoef == 0.0:
        return 1.0
    return float(10.0 * maxcoef * (spec.B + spec.C))


def build_qubo(spec: ProblemSpec, include_penalty: bool = True) -> BlockQubo:
    """Assemble the full minimization objective in block-banded form; without penalty P = 0."""
    lay = spec.layout
    kn2 = 2 * lay.kn
    terms = _linear_terms(spec)
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
    """A BlockQubo as is; a SparseQubo densified into one block."""
    if isinstance(qubo, BlockQubo):
        return qubo
    if isinstance(qubo, SparseQubo):
        return _one_block(*to_dense(qubo))
    raise QuboError(f"unsupported problem type {type(qubo).__name__}")


def _block_rows(qubo: BlockQubo, t: int, rows, start: int = 0) -> np.ndarray:
    """Rows `rows` (an index or a slice) of step t's block D_t from column start on, t 0-based.

    Every block entry is formed here; core_t is exactly symmetric, so row j
    is column j.  The penalty part P * R[:, rows]'R is read from the kernel's
    table, each entry one exact integer times P (R is integer-valued).
    """
    kern = qubo._kernel
    wp = qubo.wp[t]
    cols = slice(start, None)
    D = np.multiply.outer(wp[rows], wp[cols])
    D *= qubo.scale
    D *= qubo.core[t][qubo.slot[rows]].take(qubo.slot[cols], axis=-1)
    D += kern.penalty[kern.pattern[rows], cols]
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


def delta_energies(qubo: BlockQubo, bits) -> np.ndarray:
    """Vector of exact energy changes for flipping each bit; O(n^2 + w) per held step.

    core_t @ g_t is formed only at the steps that hold a position; an empty
    step's product is zero.
    """
    T, w = qubo.wp.shape
    x = _zero_one(bits, qubo.num_vars, QuboError).astype(float).reshape(T, w)
    g = _positions(qubo, x)
    core_g = np.zeros_like(g)
    for t in np.flatnonzero(g.any(axis=1)):
        core_g[t] = qubo.core[t] @ g[t]
    core_diag = np.diagonal(qubo.core, axis1=1, axis2=2)
    dg = qubo.wp * qubo.wp * qubo.scale * core_diag[:, qubo.slot]
    dx = qubo.wp * qubo.scale * core_g[:, qubo.slot]
    inner = qubo.linear.reshape(T, w) + dg + 2.0 * dx - 2.0 * dg * x
    inner[1:] += qubo.cross * x[:-1]
    inner[:-1] += qubo.cross * x[1:]
    d = 1.0 - 2.0 * x
    R = qubo.budget_rows
    res = qubo.budget_rhs - x @ R.T
    deltas = d * inner + qubo.penalty_weight * ((R * R).sum(axis=0) - 2.0 * d * (res @ R))
    return deltas.ravel()


# _SIGN[x_i][x_k] = d_i * d_k, where d = 1 - 2x is the change a flip makes to x
_SIGN = ((1.0, -1.0), (-1.0, 1.0))
_SIGN2 = 2.0 * np.array(_SIGN)


def apply_flip(qubo: BlockQubo, bits: np.ndarray, i: int, deltas: np.ndarray) -> float:
    """Flip bit i in place; update deltas of its neighbors; return the energy change.

    Cost is proportional to the step width plus the two adjacent-step
    couplings, never the total variable count.  cross is zero off the
    trading slots, so the adjacent-step updates need no slot test.  Each
    update is a block or band entry times +-2 or +-1, which rounds nothing,
    so the deltas do not depend on the order of those products.  bits must
    hold only 0 and 1.
    """
    T, w = qubo.wp.shape
    if not 0 <= i < T * w:
        raise QuboError(f"flip index {i} out of range 0..{T * w - 1}")
    t, j = divmod(i, w)
    xi = int(bits[i])
    change = deltas[i]
    sl = slice(t * w, (t + 1) * w)
    update = _SIGN2[xi].take(bits[sl])
    update *= _block_rows(qubo, t, j)
    step = deltas[sl]
    step += update  # deltas[i] gains 2 * D_jj here and is overwritten below
    cross, sign = qubo._kernel.cross, _SIGN[xi]
    if t > 0:
        m = i - w
        deltas[m] += sign[int(bits[m])] * cross[t - 1][j]
    if t < T - 1:
        m = i + w
        deltas[m] += sign[int(bits[m])] * cross[t][j]
    bits[i] = 1 - xi
    deltas[i] = -change
    return float(change)


def _export_offset(qubo: BlockQubo) -> float:
    """The exported constant: offset plus the penalty's P * ||b||^2 at every step."""
    T = qubo.wp.shape[0]
    return qubo.offset + qubo.penalty_weight * T * float(qubo.budget_rhs @ qubo.budget_rhs)


_BAND_ROWS = 256  # rows of a step's table formed at once by the export


def _step_tables(qubo: BlockQubo):
    """Yield (first, band) for each band of each step's table, the export's one derivation.

    Step t's table has a row for each of its w variables; it is formed in
    bands of at most _BAND_ROWS rows, so no (w, w) array is.  The band of
    rows start..stop-1 is a (stop - start, w - start + 1) array and
    first = t * w + start is the variable of its first row and column.
    Row i holds the diagonal term at column i, the pair terms 2 * D_ij at
    the columns j > i, zeros below the diagonal, and the band term to
    (t + 1, start + i) in its last column (zero at the last step).  Its
    nonzero entries, row-major, are already in (i, j) order, and every
    band's indices lie above the previous band's.
    """
    T, w = qubo.wp.shape
    P = qubo.penalty_weight
    linear = qubo.linear.reshape(T, w) + (-2.0 * P) * (qubo.budget_rhs @ qubo.budget_rows)
    for t in range(T):
        for start in range(0, w, _BAND_ROWS):
            stop = min(start + _BAND_ROWS, w)
            D = _block_rows(qubo, t, slice(start, stop), start)
            band = np.empty((stop - start, w - start + 1))
            np.multiply(np.triu(D, 1), 2.0, out=band[:, :-1])
            diag = np.arange(stop - start)
            band[diag, diag] = linear[t, start:stop] + D[diag, diag]
            band[:, -1] = qubo.cross[t, start:stop] if t < T - 1 else 0.0
            yield t * w + start, band


def _sparse_bands(qubo: BlockQubo):
    """Yield each band's (rows, cols, vals) as to_sparse lists them, in (i, j) order.

    The indices are formed in the index dtype, so no index array of the
    whole export is int64.
    """
    dtype = _index_dtype(qubo.num_vars)
    w = qubo.wp.shape[1]
    for first, band in _step_tables(qubo):
        r, c = np.nonzero(band)
        vals = band[r, c]
        link = c == band.shape[1] - 1
        c[link] = r[link] + w
        rows, cols = r.astype(dtype), c.astype(dtype)
        rows += first
        cols += first
        yield rows, cols, vals


def to_sparse(qubo: BlockQubo) -> SparseQubo:
    """Collapse the block form into sorted upper-triangular triplets, the steps in order."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*_sparse_bands(qubo)))
    return SparseQubo(num_vars=qubo.num_vars, rows=rows, cols=cols, vals=vals,
                      offset=_export_offset(qubo))


_DENSE_LIMIT = 8192


def to_dense(qubo) -> tuple[np.ndarray, float]:
    """Symmetric dense matrix A with linear terms on the diagonal: E = x'Ax + offset.

    Magnitude cap: a QuboError unless 4 * (|offset| + S) is finite, S the sum of |value|.
    A row of A sums to at most S, so energies lie within |offset| + S and the
    intermediates of delta_energies within 3S (dg + 2 * dx): no sum of them overflows.
    """
    if not isinstance(qubo, (BlockQubo, SparseQubo)):
        raise QuboError(f"cannot densify {type(qubo).__name__}")
    if qubo.num_vars > _DENSE_LIMIT:
        raise QuboError(f"{qubo.num_vars} variables exceeds dense limit {_DENSE_LIMIT}")
    if isinstance(qubo, BlockQubo):
        qubo = to_sparse(qubo)
    with np.errstate(over="ignore"):
        S = sum(float(np.abs(qubo.vals[i:i + _CHECK_BLOCK]).sum())
                for i in range(0, qubo.num_terms, _CHECK_BLOCK))
    if not math.isfinite(4.0 * (abs(qubo.offset) + S)):
        raise QuboError("magnitude cap: 4 * (|offset| + sum of |value|) is not finite, "
                        "so energies could overflow")
    A = np.zeros((qubo.num_vars, qubo.num_vars))
    diag = qubo.rows == qubo.cols
    A[qubo.rows[diag], qubo.cols[diag]] = qubo.vals[diag]
    off = ~diag
    half = qubo.vals[off] / 2.0
    A[qubo.rows[off], qubo.cols[off]] = half
    A[qubo.cols[off], qubo.rows[off]] = half
    return A, qubo.offset


def dense_energies(A: np.ndarray, offset: float, X: np.ndarray) -> np.ndarray:
    """Batch energies of 0/1 row vectors under E = x'Ax + offset."""
    X = np.asarray(X, dtype=float)
    return ((X @ A) * X).sum(axis=1) + offset


def all_energies(offset: float, fields, coupling: np.ndarray, low: float) -> np.ndarray:
    """offset + f.v + sum_{k<q} coupling[k, q] v_k v_q for every v, in O(2^m) by doubling.

    v_k is `low` (-1 for spins, 0 for bits) or 1 as bit k of the index is
    0 or 1.  After variables 0..k-1, `energies` holds the terms among them
    over the 2^k prefixes and row q of `fields` the field of each q >= k.
    Adding k maps e to (e + low*f_k, e + f_k) and each later field likewise
    with coupling[k, q].  No state matrix is formed.
    """
    energies = np.array([offset])
    fields = np.reshape(fields, (-1, 1))
    for k in range(len(fields)):
        f, later = fields[0], fields[1:]
        energies = np.concatenate((energies + low * f, energies + f))
        c_k = coupling[k, k + 1 :, None]
        fields = np.concatenate((later + low * c_k, later + c_k), axis=1)
    return energies


def to_ising(qubo) -> IsingModel:
    """Map x = (s + 1)/2 so that F(s) + offset' equals the QUBO energy exactly."""
    if isinstance(qubo, BlockQubo):
        qubo = to_sparse(qubo)
    h = np.zeros(qubo.num_vars)
    diag = qubo.rows == qubo.cols
    half = qubo.vals[diag]  # a mask index copies, so each coefficient is divided in place, once
    half /= 2.0
    np.add.at(h, qubo.rows[diag], half)
    offset = qubo.offset + float(half.sum())
    off = np.logical_not(diag, out=diag)  # in place: diag is not read again
    orow, ocol, j = qubo.rows[off], qubo.cols[off], qubo.vals[off]
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
    terms = _linear_terms(spec)
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

    Each is a term row of _linear_terms, or a term of energy, read at x.
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
_CHUNK_LINES = 1 << 16  # term lines per chunk of the writer
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


def _text_rows(keys: np.ndarray, texts) -> np.ndarray:
    """The strings texts(distinct keys) as NUL-padded uint8 rows, one row per key."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    text = np.array(list(texts(distinct)), dtype="S")
    return text.view(np.uint8).reshape(len(distinct), text.itemsize)[inverse]


def _decimal(k: np.ndarray):
    return map(str, k.tolist())


def _float_repr(bits: np.ndarray):
    return map(repr, bits.view(np.float64).tolist())


def _term_chunks(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """Yield the i, j and value texts of each chunk of terms as NUL-padded uint8 rows.

    Values are told apart by bit pattern, so -0.0 keeps its own repr, and
    repr runs once per distinct pattern in a chunk.  Index text comes from
    one table over the index range, or per chunk when that range is wider
    than the term count.
    """
    if len(vals) == 0:
        return
    lo = int(min(rows.min(), cols.min()))
    hi = int(max(rows.max(), cols.max()))
    table = _text_rows(np.arange(lo, hi + 1), _decimal) if hi - lo < len(vals) else None

    def index_text(k):
        return _text_rows(k, _decimal) if table is None else table[k - lo]

    for a in range(0, len(vals), _CHUNK_LINES):
        sl = slice(a, a + _CHUNK_LINES)
        value = _text_rows(np.asarray(vals[sl], dtype=np.float64).view(np.uint64), _float_repr)
        yield index_text(rows[sl]), index_text(cols[sl]), value


def _records(*fields) -> np.ndarray:
    """The bytes of one record per row: each field a uint8 row array or a bytes constant.

    Records are laid side by side as zero-padded rows; one mask drops the padding.
    """
    count = len(next(f for f in fields if isinstance(f, np.ndarray)))
    rec = np.hstack([f if isinstance(f, np.ndarray)
                     else np.tile(np.frombuffer(f, dtype=np.uint8), (count, 1)) for f in fields])
    return rec[rec != 0]


def _write_terms(fh, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
    """Write `i j value` lines to the binary file fh, one chunk of records at a time."""
    for i, j, value in _term_chunks(rows, cols, vals):
        fh.write(_records(i, b" ", j, b" ", value, b"\n"))


def write_qubo_text(qubo, path) -> int:
    """`p qubo <num_vars> <num_terms> <offset>` then `i j value` lines, i <= j; returns num_terms.

    A BlockQubo is written as to_sparse would give it, one band of a step's
    rows at a time: a first pass counts the terms for the header, so no
    band is kept.
    """
    if isinstance(qubo, BlockQubo):
        num_terms = sum(np.count_nonzero(band) for _, band in _step_tables(qubo))
        offset = _export_offset(qubo)
        parts = _sparse_bands(qubo)
    else:
        num_terms, offset = qubo.num_terms, qubo.offset
        parts = [(qubo.rows, qubo.cols, qubo.vals)]
    with open(path, "wb") as fh:
        fh.write(f"p qubo {qubo.num_vars} {num_terms} {float(offset)!r}\n".encode())
        for rows, cols, vals in parts:
            _write_terms(fh, rows, cols, vals)
    return num_terms


def write_bqp_json(spec: ProblemSpec, path) -> None:
    """The BQP document, the penalty-free objective and per-step budget rows, and a newline.

    The objective's to_sparse terms are [i, j, value] lists, streamed from
    the penalty-free BlockQubo one band of a step's rows at a time; json.dump
    writes the rest.
    """
    free = build_qubo(spec, include_penalty=False)
    constraints = [{"kind": kind, "step": t, "indices": idx.tolist(), "coeffs": coef.tolist(),
                    "rhs": rhs}
                   for kind, per_step in zip(("asset", "cash"), _bqp_rows(free))
                   for t, (idx, coef, rhs) in enumerate(per_step, start=1)]
    doc = {"objective": {"num_vars": free.num_vars, "offset": _export_offset(free), "terms": []},
           "constraints": constraints}
    head, mark, tail = json.dumps(doc).partition('"terms": [')
    with open(path, "wb") as fh:
        fh.write((head + mark).encode())
        lead = len(b", ")  # the first term has no separator before it
        for part in _sparse_bands(free):
            for i, j, value in _term_chunks(*part):
                fh.write(_records(b", [", i, b", ", j, b", ", value, b"]")[lead:])
                lead = 0
        fh.write(tail.encode() + b"\n")


def write_ising_text(ising: IsingModel, path) -> None:
    """Same line format as the QUBO export; h terms appear as `i i value`."""
    h_idx = np.flatnonzero(ising.h)
    num_terms = len(h_idx) + len(ising.j_vals)
    with open(path, "wb") as fh:
        fh.write(f"p ising {ising.num_spins} {num_terms} {float(ising.offset)!r}\n".encode())
        _write_terms(fh, h_idx, h_idx, ising.h[h_idx])
        _write_terms(fh, ising.j_rows, ising.j_cols, ising.j_vals)


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
            raise QuboParseError(f"{path}:{first + k + 2}: bad term line {line!r}") from exc
    return rows, cols, vals


def _read_terms(fh, path, num_vars: int, num_terms: int):
    """rows, cols, vals of the next num_terms lines of text file fh, and the bytes read past them.

    Text is read a chunk at a time, each chunk extended to the end of its
    last line; a last line without a line end is given one.  A chunk of
    canonical lines is parsed with numpy, any other chunk line by line.  Each
    chunk's int64 indices are checked against num_vars before they are stored
    in _index_dtype(num_vars), so none wraps.
    """
    dtype = _index_dtype(num_vars)
    rows = np.empty(num_terms, dtype=dtype)
    cols = np.empty(num_terms, dtype=dtype)
    vals = np.empty(num_terms)
    done = 0
    rest = b""  # of a file of 0 terms
    while done < num_terms:
        text = fh.read(_CHUNK_CHARS) + fh.readline()
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
        rows[done:stop], cols[done:stop], vals[done:stop] = terms
        done = stop
        del terms, r, c, v  # else they live on through the next chunk's parse
    return rows, cols, vals, rest


def read_qubo_text(path):
    """Parse the text export; returns SparseQubo or IsingModel per the header."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "p" or header[1] not in ("qubo", "ising"):
            raise QuboParseError(f"{path}: bad header {' '.join(header)!r}")
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
        rows, cols, vals, rest = _read_terms(fh, path, num_vars, num_terms)
        if rest.decode("utf-8").strip() or any(
                text.strip() for text in iter(lambda: fh.read(_CHUNK_CHARS), "")):
            raise QuboParseError(f"{path}: more lines than the {num_terms} terms declared")
    if not _every_block(lambda v: np.isfinite(v).all(), vals):
        raise QuboParseError(f"{path}: non-finite term value")
    if header[1] == "ising":
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
    Pairs that already strictly increase pass as is, with no copy once in that dtype."""
    dtype = _index_dtype(size)
    rows, cols = rows.astype(dtype, copy=False), cols.astype(dtype, copy=False)
    if _every_block(lambda r, c, r1, c1: ((r1 > r) | ((r1 == r) & (c1 > c))).all(),
                    rows[:-1], cols[:-1], rows[1:], cols[1:]):
        return rows, cols, vals
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])])
    with np.errstate(over="ignore"):  # an inf sum is rejected by the magnitude caps
        return rows[first], cols[first], np.add.reduceat(vals, first)
