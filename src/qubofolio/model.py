"""Problem instance definition, binary variable layout, and bitstring decoding.

Variable ordering is per-time-step contiguous:

    [ long blocks (k*n) | short blocks (k*n) | asset-count slack bits | cash slack bits ]

Within the long/short halves, slot ``asset * k + block``.  A long slot
carries trade sign +1, a short slot -1; slack bits carry binary weights
2^b / 2^c.  All objects here are immutable after construction.
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
    "Role",
    "Trajectory",
    "layout",
    "encode",
    "decode",
    "decode_assignment",
    "constraint_residuals",
    "is_feasible",
    "spec_from_json",
    "spec_to_json",
]

LONG = "long"
SHORT = "short"
ASSET_SLACK = "asset_slack"
CASH_SLACK = "cash_slack"


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


def layout(n: int, T: int, k: int, B: int, C: int) -> VariableLayout:
    return VariableLayout(n=n, T=T, k=k, B=B, C=C)


@dataclass(frozen=True)
class Role:
    """Decoded meaning of one flat variable index."""

    kind: str  # LONG, SHORT, ASSET_SLACK, CASH_SLACK
    t: int
    asset: int | None = None
    block: int | None = None
    bit: int | None = None


def encode(lay: VariableLayout, t: int, asset: int, block: int, direction: str) -> int:
    """Flat index of the trading variable (t, asset, block, direction)."""
    if not 1 <= t <= lay.T:
        raise ModelError(f"step {t} out of range 1..{lay.T}")
    if not 0 <= asset < lay.n:
        raise ModelError(f"asset {asset} out of range 0..{lay.n - 1}")
    if not 0 <= block < lay.k:
        raise ModelError(f"block {block} out of range 0..{lay.k - 1}")
    if direction not in (LONG, SHORT):
        raise ModelError(f"direction must be '{LONG}' or '{SHORT}', got {direction!r}")
    offset = asset * lay.k + block
    if direction == SHORT:
        offset += lay.kn
    return (t - 1) * lay.step_width + offset


def encode_slack(lay: VariableLayout, t: int, kind: str, bit: int) -> int:
    """Flat index of a slack bit (asset-count or cash) at step t."""
    if not 1 <= t <= lay.T:
        raise ModelError(f"step {t} out of range 1..{lay.T}")
    if kind == ASSET_SLACK:
        if not 0 <= bit < lay.nb:
            raise ModelError(f"asset-slack bit {bit} out of range 0..{lay.nb - 1}")
        return (t - 1) * lay.step_width + 2 * lay.kn + bit
    if kind == CASH_SLACK:
        if not 0 <= bit < lay.nc:
            raise ModelError(f"cash-slack bit {bit} out of range 0..{lay.nc - 1}")
        return (t - 1) * lay.step_width + 2 * lay.kn + lay.nb + bit
    raise ModelError(f"unknown slack kind {kind!r}")


def decode(lay: VariableLayout, index: int) -> Role:
    """Inverse of encode/encode_slack over the full flat index range."""
    if not 0 <= index < lay.total:
        raise ModelError(f"index {index} out of range 0..{lay.total - 1}")
    t = index // lay.step_width + 1
    off = index % lay.step_width
    kn = lay.kn
    if off < kn:
        return Role(kind=LONG, t=t, asset=off // lay.k, block=off % lay.k)
    if off < 2 * kn:
        off -= kn
        return Role(kind=SHORT, t=t, asset=off // lay.k, block=off % lay.k)
    off -= 2 * kn
    if off < lay.nb:
        return Role(kind=ASSET_SLACK, t=t, bit=off)
    return Role(kind=CASH_SLACK, t=t, bit=off - lay.nb)


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
        return layout(self.n, self.T, self.k, self.B, self.C)


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
    """Decoded trading trajectory; t=0 positions are implicitly zero."""

    long_blocks: np.ndarray  # (T, n, k) 0/1
    short_blocks: np.ndarray  # (T, n, k) 0/1
    net_position: np.ndarray  # (T, n) signed block counts
    cash_units: np.ndarray  # (T,) decoded cash slack value
    asset_slack: np.ndarray  # (T,) decoded asset-count slack value
    blocks_selected: np.ndarray  # (T,) total active trading bits


def decode_assignment(spec: ProblemSpec, bits) -> Trajectory:
    lay = spec.layout
    x = _check_assignment(lay, bits).reshape(lay.T, lay.step_width)
    kn = lay.kn
    longs = x[:, :kn].reshape(lay.T, lay.n, lay.k)
    shorts = x[:, kn : 2 * kn].reshape(lay.T, lay.n, lay.k)
    s_bits = x[:, 2 * kn : 2 * kn + lay.nb]
    y_bits = x[:, 2 * kn + lay.nb :]
    return Trajectory(
        long_blocks=longs,
        short_blocks=shorts,
        net_position=(longs.sum(axis=2) - shorts.sum(axis=2)).astype(np.int64),
        cash_units=y_bits @ (2 ** np.arange(lay.nc)),
        asset_slack=s_bits @ (2 ** np.arange(lay.nb)),
        blocks_selected=x[:, : 2 * kn].sum(axis=1).astype(np.int64),
    )


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


def _flag(doc: dict[str, Any], name: str, default: bool) -> bool:
    """A JSON true or false, or default when the key is absent; anything else is a ModelError."""
    value = doc.get(name, default)
    if not isinstance(value, bool):
        raise ModelError(f"{name} must be true or false, got {value!r}")
    return value


def spec_from_json(source: str | dict[str, Any]) -> ProblemSpec:
    """Build a ProblemSpec from a JSON file path or an already-parsed dict.

    Either inline ``prices``/``covariances`` arrays or ``price_csv`` plus
    ``cov_window`` (delegating to market_data) must be present; n and T
    must match inline prices, and T sets the CSV path's two windows.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    missing = [f for f in _SPEC_SCALARS + _PARAM_FIELDS if f not in doc]
    if missing:
        raise ModelError(f"spec JSON missing fields: {missing}")
    params = FrictionParams(**{name: float(doc[name]) for name in _PARAM_FIELDS},
                            P=float(doc["P"]) if doc.get("P") is not None else None)
    n, T, k, B, C = (_whole(name, doc[name]) for name in _SPEC_SCALARS)
    if "price_csv" in doc:
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
