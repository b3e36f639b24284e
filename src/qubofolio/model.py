"""Problem instance definition, binary variable layout, and the count view.

Variable ordering is per-time-step contiguous:

    [ long blocks (k*n) | short blocks (k*n) | asset-count slack bits | cash slack bits ]

Within the long/short halves, slot ``asset * k + block``.  A long slot
carries trade sign +1, a short slot -1; slack bits carry binary weights
2^b / 2^c.  All objects here are immutable after construction.

The one boundary between bits and the portfolio is the count view, a
Trajectory of (T, n) held long and short block counts and two slack values
per step: decode_assignment reads it from any bits, and encode_assignment
writes its canonical bits (blocks 0..L-1 set, slacks in binary).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from .market_data import BlockPrices, CovarianceSeries

__all__ = [
    "ModelError",
    "FrictionParams",
    "ProblemSpec",
    "VariableLayout",
    "Trajectory",
    "decode_assignment",
    "encode_assignment",
    "constraint_residuals",
    "is_feasible",
    "spec_from_json",
    "spec_to_json",
]

class ModelError(ValueError):
    """Raised on invalid instance parameters or malformed assignments."""


@dataclass(frozen=True)
class FrictionParams:
    """Market friction and scalarization parameters.

    ``P=None`` means the penalty weight is derived from the instance
    coefficients by qubo.resolve_penalty, the single derivation that
    build_qubo and the evaluation path (step_components and everything
    built on it) share; it reads prices and covariances, never a block.
    The derived P is resolved once per ProblemSpec instance and kept on it;
    a spec made by dataclasses.replace resolves its own.
    """

    q: float
    delta: float
    rho_c: float
    rho_s: float
    u: float
    P: float | None = None

    def __post_init__(self):
        for name in ("q", "delta", "rho_c", "rho_s", "u", "P"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ModelError(f"{name} must be finite, got {value}")
        if self.q < 0:
            raise ModelError("risk-aversion weight q must be >= 0")
        for name in ("delta", "rho_c", "rho_s"):
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0")
        if self.u <= 0:
            raise ModelError("capital unit u must be > 0")
        if self.P is not None and self.P <= 0:
            raise ModelError("penalty weight P must be > 0")


@dataclass(frozen=True)
class VariableLayout:
    """Bijection between (time, asset, block, direction)/slack bits and flat indices."""

    n: int
    T: int
    k: int
    B: int
    C: int
    nb: int = field(init=False)
    nc: int = field(init=False)
    step_width: int = field(init=False)
    total: int = field(init=False)
    # per-slot metadata within one step (length step_width)
    asset_of: np.ndarray = field(init=False, repr=False)
    tau_of: np.ndarray = field(init=False, repr=False)
    slack_weight: np.ndarray = field(init=False, repr=False)
    # (2, step_width): the asset-count and cash budget rows of one step, R x_t = (B, C)
    budget_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("n", "T", "k", "B", "C"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")
        if self.C > self.B:
            raise ModelError(f"C={self.C} exceeds B={self.B}")
        nb = int(math.floor(math.log2(self.B))) + 1
        nc = int(math.floor(math.log2(self.C))) + 1
        kn = self.k * self.n
        width = 2 * kn + nb + nc
        asset_of = np.full(width, -1, dtype=np.int64)
        tau_of = np.zeros(width, dtype=np.int64)
        slack_weight = np.zeros(width, dtype=np.int64)
        slots = np.arange(kn)
        asset_of[:kn] = slots // self.k
        asset_of[kn : 2 * kn] = slots // self.k
        tau_of[:kn] = 1
        tau_of[kn : 2 * kn] = -1
        slack_weight[2 * kn : 2 * kn + nb] = 2 ** np.arange(nb)
        slack_weight[2 * kn + nb :] = 2 ** np.arange(nc)
        budget_rows = np.zeros((2, width), dtype=np.int64)
        budget_rows[0, : 2 * kn] = 1
        budget_rows[0, 2 * kn : 2 * kn + nb] = slack_weight[2 * kn : 2 * kn + nb]
        budget_rows[1, : 2 * kn] = tau_of[: 2 * kn]
        budget_rows[1, 2 * kn + nb :] = slack_weight[2 * kn + nb :]
        for name, value in (
            ("nb", nb),
            ("nc", nc),
            ("step_width", width),
            ("total", self.T * width),
            ("asset_of", asset_of),
            ("tau_of", tau_of),
            ("slack_weight", slack_weight),
            ("budget_rows", budget_rows),
        ):
            object.__setattr__(self, name, value)

    @property
    def kn(self) -> int:
        return self.k * self.n


@dataclass(frozen=True)
class ProblemSpec:
    """One multi-period portfolio optimization instance; n and T are the prices' shape."""

    k: int
    B: int
    C: int
    params: FrictionParams
    prices: BlockPrices
    covariances: CovarianceSeries
    signed_risk: bool = True

    def __post_init__(self):
        self.layout  # formed now, so the layout checks every size rule at construction
        if self.covariances.sigma.shape != (self.T, self.n, self.n):
            raise ModelError(
                f"covariances shape {self.covariances.sigma.shape}, "
                f"expected ({self.T}, {self.n}, {self.n})"
            )

    @property
    def n(self) -> int:
        return self.prices.p.shape[0]

    @property
    def T(self) -> int:
        return self.prices.p.shape[1] - 1

    @cached_property
    def layout(self) -> VariableLayout:
        return VariableLayout(n=self.n, T=self.T, k=self.k, B=self.B, C=self.C)


def _zero_one(bits, size: int, error: type[ValueError] = ModelError) -> np.ndarray:
    """bits as a flat array of `size` entries, each checked to be 0 or 1 before any cast."""
    x = np.asarray(bits).ravel()
    if x.shape[0] != size:
        raise error(f"assignment length {x.shape[0]} != {size} variables")
    if not ((x == 0) | (x == 1)).all():
        raise error("assignment entries must be 0 or 1")
    return x


def _check_assignment(lay: VariableLayout, bits) -> np.ndarray:
    return _zero_one(bits, lay.total).astype(np.int8)


@dataclass(frozen=True)
class Trajectory:
    """A portfolio in the count view; t=0 positions are implicitly zero."""

    long: np.ndarray  # (T, n) held long blocks, 0..k
    short: np.ndarray  # (T, n) held short blocks, 0..k
    asset_slack: np.ndarray  # (T,) asset-count slack value, 0..2^nb - 1
    cash_units: np.ndarray  # (T,) cash slack value, 0..2^nc - 1

    @property
    def net_position(self) -> np.ndarray:
        """(T, n) signed block counts."""
        return self.long - self.short


def decode_assignment(spec: ProblemSpec, bits) -> Trajectory:
    """The counts of bits: set blocks per (step, asset, direction) and each slack's value."""
    lay = spec.layout
    x = _check_assignment(lay, bits).reshape(lay.T, lay.step_width)
    kn2 = 2 * lay.kn
    held = x[:, :kn2].reshape(lay.T, 2, lay.n, lay.k).sum(axis=3)
    slack = x[:, kn2:] * lay.slack_weight[kn2:]
    return Trajectory(long=held[:, 0], short=held[:, 1],
                      asset_slack=slack[:, : lay.nb].sum(axis=1),
                      cash_units=slack[:, lay.nb :].sum(axis=1))


def encode_assignment(spec: ProblemSpec, traj: Trajectory) -> np.ndarray:
    """The canonical bits of traj; decode_assignment inverts them.

    Blocks 0..L-1 of each (step, asset, direction) are set and each slack is
    written in binary.  Infeasible counts are encoded too; a count outside
    0..k, a slack beyond its bits or a wrong shape is a ModelError.
    """
    lay = spec.layout
    for name, shape, top in (("long", (lay.T, lay.n), lay.k), ("short", (lay.T, lay.n), lay.k),
                             ("asset_slack", (lay.T,), 2**lay.nb - 1),
                             ("cash_units", (lay.T,), 2**lay.nc - 1)):
        v = np.asarray(getattr(traj, name))
        if v.shape != shape or v.dtype.kind not in "iu" or not ((v >= 0) & (v <= top)).all():
            raise ModelError(f"{name} must be integers in 0..{top} of shape {shape}, "
                             f"got {v.dtype} of shape {v.shape}")
    held = np.stack([traj.long, traj.short], axis=1)[..., None]  # (T, 2, n, 1)
    slack = np.repeat(np.stack([traj.asset_slack, traj.cash_units], axis=1), [lay.nb, lay.nc],
                      axis=1)
    return np.hstack([(np.arange(lay.k) < held).reshape(lay.T, 2 * lay.kn),
                      slack // lay.slack_weight[2 * lay.kn :] % 2]).astype(np.int8).ravel()


def constraint_residuals(spec: ProblemSpec, bits) -> np.ndarray:
    """Per-step (asset_residual, cash_residual) = (B, C) - R x_t; both zero iff feasible."""
    lay = spec.layout
    x = _check_assignment(lay, bits).reshape(lay.T, lay.step_width).astype(np.int64)
    return np.array([lay.B, lay.C]) - x @ lay.budget_rows.T


def is_feasible(spec: ProblemSpec, bits) -> bool:
    return bool(np.all(constraint_residuals(spec, bits) == 0))


# --- ProblemSpec JSON interface -------------------------------------------

_SPEC_SCALARS = ("n", "T", "k", "B", "C")
_PARAM_FIELDS = ("q", "delta", "rho_c", "rho_s", "u")


def _whole(name: str, value) -> int:
    """A JSON size as an int; a fraction, a string, a bool or null is a ModelError."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ModelError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _number(name: str, value) -> float:
    """A JSON number as a float; a string, a bool or null is a ModelError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{name} must be a number, got {value!r}")
    return float(value)


def _flag(doc: dict[str, Any], name: str, default: bool) -> bool:
    """A JSON true or false, or default when the key is absent; anything else is a ModelError."""
    value = doc.get(name, default)
    if not isinstance(value, bool):
        raise ModelError(f"{name} must be true or false, got {value!r}")
    return value


def spec_from_json(source: str | dict[str, Any]) -> ProblemSpec:
    """Build a ProblemSpec from a JSON file path or an already-parsed dict.

    Exactly one price source must be present: inline ``prices``/``covariances``
    arrays, or ``price_csv`` plus ``cov_window`` (delegating to market_data);
    n and T must match inline prices, and T sets the CSV path's two windows.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ModelError("spec JSON must be an object")
    missing = [f for f in _SPEC_SCALARS + _PARAM_FIELDS if f not in doc]
    if missing:
        raise ModelError(f"spec JSON missing fields: {missing}")
    params = FrictionParams(**{name: _number(name, doc[name]) for name in _PARAM_FIELDS},
                            P=_number("P", doc["P"]) if doc.get("P") is not None else None)
    n, T, k, B, C = (_whole(name, doc[name]) for name in _SPEC_SCALARS)
    if "price_csv" in doc:
        inline = [name for name in ("prices", "covariances") if name in doc]
        if inline:
            raise ModelError(f"spec JSON gives both price_csv and inline {inline}; "
                             "choose one price source")
        from . import market_data

        table = market_data.load_prices(doc["price_csv"])
        if table.n_assets != n:
            raise ModelError(f"price_csv holds {table.n_assets} complete tickers, spec n={n}")
        prices = market_data.normalize_blocks(table, params.u, T,
                                              raw_prices=_flag(doc, "raw_prices", False))
        window = _whole("cov_window", doc.get("cov_window", 60))
        covariances = market_data.estimate_covariance(table, window, T)
    elif "prices" in doc and "covariances" in doc:
        prices = BlockPrices(p=np.asarray(doc["prices"], dtype=float))
        if prices.p.shape != (n, T + 1):
            raise ModelError(f"prices shape {prices.p.shape}, expected ({n}, {T + 1})")
        covariances = CovarianceSeries(sigma=np.asarray(doc["covariances"], dtype=float))
    else:
        raise ModelError("spec JSON needs either inline prices/covariances or price_csv")
    return ProblemSpec(k=k, B=B, C=C, params=params, prices=prices, covariances=covariances,
                       signed_risk=_flag(doc, "signed_risk", True))


def spec_to_json(spec: ProblemSpec) -> dict[str, Any]:
    return {
        "n": spec.n,
        "T": spec.T,
        "k": spec.k,
        "B": spec.B,
        "C": spec.C,
        "q": spec.params.q,
        "delta": spec.params.delta,
        "rho_c": spec.params.rho_c,
        "rho_s": spec.params.rho_s,
        "u": spec.params.u,
        "P": spec.params.P,
        "signed_risk": spec.signed_risk,
        "prices": spec.prices.p.tolist(),
        "covariances": spec.covariances.sigma.tolist(),
    }
