"""Instance generators: quantum-sized toy portfolios, full-scale synthetic
instances, random QUBOs for solver benchmarking, and a price CSV writer.
"""
from __future__ import annotations

import csv
import datetime as dt

import numpy as np

from .market_data import BlockPrices, CovarianceSeries, psd_repair
from .model import FrictionParams, ModelError, ProblemSpec, Trajectory, encode_assignment
from .qubo import SparseQubo

__all__ = [
    "toy_spec",
    "synthetic_spec",
    "random_sparse_qubo",
    "cash_only_bits",
    "write_price_csv",
]

_U = 100_000.0  # capital unit u of every generated spec, in currency


def cash_only_bits(spec: ProblemSpec) -> np.ndarray:
    """The all-cash assignment: no trades, slack bits absorb both budgets."""
    zero = np.zeros((spec.T, spec.n), dtype=np.int64)
    return encode_assignment(spec, Trajectory(long=zero, short=zero,
                                              asset_slack=np.full(spec.T, spec.B),
                                              cash_units=np.full(spec.T, spec.C)))


def toy_spec(
    n: int = 2,
    T: int = 2,
    B: int = 1,
    q: float = 1e-5,
    seed: int = 0,
    signed_risk: bool = True,
) -> ProblemSpec:
    """A quantum-simulator-sized instance: n <= 3, T <= 2, k = 1, C = 1, u = 100,000.

    Price drift is kept near +/-0.5% per period and daily variance near
    1e-4, so q at the 1e-2 scale makes all-cash optimal while small q
    rewards trading.
    """
    if not (1 <= n <= 3 and 1 <= T <= 2):
        raise ModelError(f"toy instances require 1 <= n <= 3 and 1 <= T <= 2, got n={n}, T={T}")
    rng = np.random.default_rng(seed)
    # per-period simple returns in [-0.5%, +0.5%]
    rets = rng.uniform(-0.005, 0.005, size=(n, T))
    p = _U * np.cumprod(np.hstack([np.ones((n, 1)), 1.0 + rets]), axis=1)
    prices = BlockPrices(p=p)

    sigma = []
    for _ in range(T):
        A = rng.standard_normal((n, n))
        raw = A @ A.T
        # rescale so the average variance sits near the 1e-4 daily scale
        cov = raw * (1e-4 * n / max(np.trace(raw), 1e-12)) + 1e-4 * np.eye(n)
        sigma.append(psd_repair(cov))
    covs = CovarianceSeries(sigma=np.array(sigma))

    params = FrictionParams(q=q, delta=0.001, rho_c=0.0001, rho_s=0.000025, u=_U)
    return ProblemSpec(k=1, B=B, C=1, params=params,
                       prices=prices, covariances=covs, signed_risk=signed_risk)


def synthetic_spec(
    n: int,
    T: int,
    k: int = 3,
    B: int = 60,
    C: int = 10,
    q: float = 1e-4,
    seed: int = 0,
) -> ProblemSpec:
    """Full-scale instance on synthetic geometric-random-walk prices, u = 100,000.

    The correlation is a normalised Wishart matrix from n Gaussian samples
    of n assets, so it is PSD but nearly singular (smallest eigenvalue about
    1.8e-6 at n = 200); it is scaled by random daily-return volatilities
    and jittered per period.  Generation is O(T n^2) after one n x n
    product, so experiment-sized builds (n in the hundreds) stay fast.
    """
    rng = np.random.default_rng(seed)
    rets = rng.normal(loc=0.0002, scale=0.01, size=(n, T))
    p = _U * np.cumprod(np.hstack([np.ones((n, 1)), 1.0 + rets]), axis=1)
    prices = BlockPrices(p=p)

    sigma = np.empty((T, n, n))
    base = rng.normal(scale=1.0, size=(n, n))
    cov0 = base @ base.T  # the Wishart seed, made the base covariance in place
    del base
    d = np.sqrt(np.diagonal(cov0))
    cov0 /= np.outer(d, d)
    vols = rng.uniform(0.005, 0.02, size=n)
    cov0 *= np.outer(vols, vols)
    for t in range(T):
        jitter = 1.0 + 0.05 * rng.standard_normal()
        np.multiply(cov0, max(jitter, 0.5), out=sigma[t])
    covs = CovarianceSeries(sigma=sigma)

    params = FrictionParams(q=q, delta=0.001, rho_c=0.0001, rho_s=0.000025, u=_U)
    return ProblemSpec(k=k, B=B, C=C, params=params, prices=prices, covariances=covs)


def random_sparse_qubo(num_vars: int, seed: int = 0) -> SparseQubo:
    """Random upper-triangular QUBO for solver and conversion tests.

    Every diagonal entry and each off-diagonal one with probability 1/2
    is a standard normal draw, and so is the offset.
    """
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(num_vars):
        for j in range(i, num_vars):
            if i == j or rng.random() < 0.5:
                rows.append(i)
                cols.append(j)
                vals.append(float(rng.normal()))
    return SparseQubo(
        num_vars=num_vars,
        rows=np.array(rows), cols=np.array(cols), vals=np.array(vals),
        offset=float(rng.normal()),
    )


def write_price_csv(path, tickers: list[str], dates: list[dt.date],
                    close: np.ndarray) -> None:
    """Write a ``date,ticker,close`` CSV in the ingestion format."""
    close = np.asarray(close, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "ticker", "close"])
        for di, date in enumerate(dates):
            for ti, ticker in enumerate(tickers):
                writer.writerow([date.isoformat(), ticker, repr(float(close[ti, di]))])
