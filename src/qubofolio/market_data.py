"""Price ingestion, capital-unit block normalization, and rolling covariance estimation.

All functions here are pure: they take immutable inputs and return new
objects, so they are safe to call concurrently.
"""
from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MarketDataError",
    "PriceTable",
    "BlockPrices",
    "CovarianceSeries",
    "load_prices",
    "normalize_blocks",
    "estimate_covariance",
    "psd_repair",
]


class MarketDataError(ValueError):
    """Raised on malformed price files or insufficient history."""


@dataclass(frozen=True)
class PriceTable:
    """Aligned close prices: one row per ticker, one column per trading date."""

    tickers: list[str]
    dates: list[dt.date]
    close: np.ndarray  # shape (n_tickers, n_dates), strictly positive

    def __post_init__(self):
        close = np.asarray(self.close, dtype=float)
        object.__setattr__(self, "close", close)
        if close.shape != (len(self.tickers), len(self.dates)):
            raise MarketDataError(
                f"close matrix shape {close.shape} does not match "
                f"{len(self.tickers)} tickers x {len(self.dates)} dates"
            )
        if close.size and not np.all(np.isfinite(close) & (close > 0)):
            raise MarketDataError("all close prices must be finite and strictly positive")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise MarketDataError("dates must be strictly increasing")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)


@dataclass(frozen=True)
class BlockPrices:
    """Per-asset block values in currency, T+1 time columns."""

    p: np.ndarray  # shape (n_assets, T + 1)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 2 or p.shape[1] < 2:
            raise MarketDataError("block prices need at least 2 time columns")
        if not np.isfinite(p).all():
            raise MarketDataError("block prices hold non-finite entries")


@dataclass(frozen=True)
class CovarianceSeries:
    """One return-covariance matrix per investment period."""

    sigma: np.ndarray  # shape (T, n, n)

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sigma)
        if sigma.ndim != 3 or sigma.shape[1] != sigma.shape[2]:
            raise MarketDataError("sigma must be a stack of square matrices")
        asym = _max_asymmetry(sigma)
        if not np.isfinite(asym):  # a non-finite entry makes its Sigma - Sigma' entry NaN or inf
            raise MarketDataError("covariance matrices hold non-finite entries")
        if asym > 1e-12:
            raise MarketDataError(f"covariance matrices not symmetric (max dev {asym:.2e})")


def _max_asymmetry(sigma: np.ndarray) -> float:
    """max |Sigma_t - Sigma_t'| over the stack, one step at a time in one (n, n) buffer.

    np.max keeps a NaN deviation, which Python's max would drop.
    """
    buf = np.empty(sigma.shape[1:])
    dev = np.zeros(len(sigma))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the caller reports
        for t, s in enumerate(sigma):
            np.subtract(s, s.T, out=buf)
            np.abs(buf, out=buf)
            dev[t] = buf.max(initial=0.0)
    return float(dev.max(initial=0.0))


def load_prices(path) -> PriceTable:
    """Read every row of a ``date,ticker,close`` CSV into an aligned PriceTable.

    Tickers that do not cover every date in the file are dropped with a
    warning rather than imputed.  A repeated (date, ticker) row is an error.
    """
    by_ticker: dict[str, dict[dt.date, tuple[float, int]]] = {}  # (close, line number)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise MarketDataError(f"cannot open price file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["date", "ticker", "close"]:
            raise MarketDataError(f"{path}: expected header 'date,ticker,close', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                date = dt.date.fromisoformat(row[0].strip())
                ticker = row[1].strip()
                close = float(row[2])
            except (IndexError, ValueError) as exc:
                raise MarketDataError(f"{path}:{lineno}: unparseable row {row!r}: {exc}") from exc
            if not 0 < close < math.inf:
                raise MarketDataError(f"{path}:{lineno}: non-positive or non-finite close {close}")
            first = by_ticker.setdefault(ticker, {}).setdefault(date, (close, lineno))[1]
            if first != lineno:
                raise MarketDataError(f"{path}:{lineno}: repeats {ticker} on {date}, "
                                      f"first given on line {first}")

    all_dates = sorted({d for series in by_ticker.values() for d in series})
    if not all_dates:
        raise MarketDataError(f"{path}: no price rows")

    kept: list[str] = []
    dropped: list[str] = []
    for ticker in sorted(by_ticker):
        if len(by_ticker[ticker]) == len(all_dates):
            kept.append(ticker)
        else:
            dropped.append(ticker)
    if dropped:
        warnings.warn(f"dropped tickers with missing dates: {dropped}", stacklevel=2)
    if not kept:
        raise MarketDataError("no ticker covers all dates")

    close = np.array([[by_ticker[t][d][0] for d in all_dates] for t in kept])
    return PriceTable(tickers=kept, dates=all_dates, close=close)


def normalize_blocks(
    table: PriceTable, u: float, horizon: int, raw_prices: bool = False
) -> BlockPrices:
    """Convert the table's last ``horizon + 1`` closes into block values worth ``u`` at period 1.

    Period t maps to date index ``len(dates) - (horizon + 1) + (t - 1)``,
    the anchor estimate_covariance uses, so the final date is the forward
    price of step T.  With ``raw_prices`` the normalization is bypassed
    and closes pass through.
    """
    if u <= 0:
        raise MarketDataError("capital unit u must be positive")
    if horizon < 1:
        raise MarketDataError("horizon must be at least 1")
    if horizon >= len(table.dates):
        raise MarketDataError(f"need {horizon + 1} trading dates, have {len(table.dates)}")
    window = table.close[:, len(table.dates) - (horizon + 1) :]
    if raw_prices:
        return BlockPrices(p=window.copy())
    return BlockPrices(p=u * window / window[:, :1])


def psd_repair(mat: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues at zero; returns a symmetric PSD matrix."""
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals.min(initial=0.0) >= 0.0:
        return sym
    repaired = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return 0.5 * (repaired + repaired.T)


def estimate_covariance(table: PriceTable, window: int, horizon: int) -> CovarianceSeries:
    """Trailing-window sample covariance of daily simple returns, one matrix per period.

    Periods are anchored at the end of the table: period t sits at date
    index ``len(dates) - (horizon + 1) + (t - 1)`` so the final date is the
    forward-price date of the last period.  The covariance at period t is
    estimated from the ``window`` daily returns ending at that date.
    """
    if window < 2:
        raise MarketDataError("covariance window must be at least 2 days")
    m = len(table.dates)
    if m < window + horizon + 1:
        raise MarketDataError(
            f"need at least {window + horizon + 1} dates for window={window}, "
            f"horizon={horizon}; have {m}"
        )
    returns = table.close[:, 1:] / table.close[:, :-1] - 1.0  # column d = return into date d+1
    sigma = []
    for t in range(1, horizon + 1):
        date_idx = m - (horizon + 1) + (t - 1)
        # returns ending at date_idx occupy return columns [date_idx - window, date_idx)
        chunk = returns[:, date_idx - window : date_idx]
        cov = np.cov(chunk, ddof=1) if table.n_assets > 1 else np.atleast_2d(np.var(chunk, ddof=1))
        sigma.append(psd_repair(cov))
    return CovarianceSeries(sigma=np.array(sigma))
