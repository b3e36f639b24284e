"""Price CSV ingestion end to end: write a synthetic price file, load it,
normalize blocks, estimate rolling covariances, and build a spec from it.

Run: python3 demos/02_market_data_pipeline.py
"""
import datetime as dt
import tempfile
from pathlib import Path

import numpy as np

from qubofolio import build_qubo, estimate_covariance, load_prices, normalize_blocks, spec_from_json
from qubofolio.toy import write_price_csv

rng = np.random.default_rng(0)
tickers = ["ALPHA", "BETA", "GAMMA"]
m = 80
dates = [dt.date(2024, 1, 1) + dt.timedelta(days=i) for i in range(m)]
close = 100.0 * np.cumprod(1 + rng.normal(0.0003, 0.012, size=(3, m)), axis=1)

workdir = Path(tempfile.mkdtemp())
csv_path = workdir / "prices.csv"
write_price_csv(csv_path, tickers, dates, close)
print(f"wrote {csv_path} ({m} dates x {len(tickers)} tickers)")

table = load_prices(csv_path)
print(f"loaded tickers: {table.tickers}")

# the price and covariance windows both end at the table's last date
T, u = 5, 100_000.0
blocks = normalize_blocks(table, u=u, horizon=T)
print(f"block values at period 1 (all equal u={u:,.0f}): {blocks.p[:, 0]}")

covs = estimate_covariance(table, window=40, horizon=T)
print(f"covariance stack shape: {covs.sigma.shape}, "
      f"daily vols at t=1: {np.sqrt(np.diagonal(covs.sigma[0]))}")

# the same pipeline runs through the JSON spec interface
doc = {
    "n": 3, "T": T, "k": 1, "B": 3, "C": 2,
    "q": 1e-4, "delta": 0.001, "rho_c": 0.0001, "rho_s": 0.000025, "u": u,
    "price_csv": str(csv_path), "cov_window": 40,
}
spec = spec_from_json(doc)
qubo = build_qubo(spec)
print(f"spec from price_csv: {qubo.num_vars} variables")
