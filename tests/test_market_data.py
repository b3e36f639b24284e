"""CSV ingestion, block normalization, and rolling covariance estimation."""
import datetime as dt
import tracemalloc

import numpy as np
import pytest

from qubofolio import market_data
from qubofolio.market_data import (
    BlockPrices,
    CovarianceSeries,
    MarketDataError,
    PriceTable,
    estimate_covariance,
    load_prices,
    normalize_blocks,
    psd_repair,
)
from qubofolio.toy import write_price_csv


def _dates(count, start=dt.date(2020, 1, 1)):
    return [start + dt.timedelta(days=i) for i in range(count)]


@pytest.fixture
def price_csv(tmp_path):
    dates = _dates(8)
    close = np.array([
        [100.0, 101.0, 99.5, 102.0, 103.0, 101.5, 104.0, 105.0],
        [50.0, 50.5, 51.0, 49.0, 48.5, 50.0, 51.5, 52.0],
    ])
    path = tmp_path / "prices.csv"
    write_price_csv(path, ["AAA", "BBB"], dates, close)
    return path, dates, close


def test_load_prices_happy_path(price_csv):
    path, dates, close = price_csv
    table = load_prices(path)
    assert table.tickers == ["AAA", "BBB"]
    assert table.dates == dates
    assert np.allclose(table.close, close)


def test_load_prices_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,symbol,price\n2020-01-01,A,1.0\n")
    with pytest.raises(MarketDataError, match="header"):
        load_prices(path)


def test_load_prices_reports_bad_row_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,ticker,close\n2020-01-01,A,1.0\n2020-01-02,A,oops\n")
    with pytest.raises(MarketDataError, match=":3"):
        load_prices(path)


def test_load_prices_rejects_nonpositive_close(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,ticker,close\n2020-01-01,A,-3.0\n")
    with pytest.raises(MarketDataError, match="non-positive"):
        load_prices(path)


@pytest.mark.parametrize("close", ["inf", "nan"])
def test_load_prices_rejects_non_finite_close(tmp_path, close):
    path = tmp_path / "bad.csv"
    path.write_text(f"date,ticker,close\n2020-01-01,A,1.0\n2020-01-02,A,{close}\n")
    with pytest.raises(MarketDataError, match=":3: non-positive or non-finite"):
        load_prices(path)


def test_load_prices_rejects_a_repeated_row(tmp_path):
    path = tmp_path / "repeated.csv"
    path.write_text("date,ticker,close\n2024-01-02,A,101\n2024-01-03,A,102\n"
                    "2024-01-02,A,999\n")
    with pytest.raises(MarketDataError, match=":4: repeats A on 2024-01-02, first given on line 2"):
        load_prices(path)


def test_load_prices_drops_incomplete_ticker_with_warning(tmp_path):
    path = tmp_path / "gappy.csv"
    rows = ["date,ticker,close"]
    for i, date in enumerate(_dates(5)):
        rows.append(f"{date},FULL,{100 + i}")
        if i != 2:
            rows.append(f"{date},GAPPY,{50 + i}")
    path.write_text("\n".join(rows) + "\n")
    with pytest.warns(UserWarning, match="GAPPY"):
        table = load_prices(path)
    assert table.tickers == ["FULL"]


def test_load_prices_rejects_a_file_of_no_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("date,ticker,close\n")
    with pytest.raises(MarketDataError, match=r"empty\.csv: no price rows$"):
        load_prices(path)


def test_load_prices_rejects_a_file_in_which_no_ticker_covers_every_date(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("date,ticker,close\n2020-01-01,A,1.0\n2020-01-02,B,2.0\n")
    with pytest.warns(UserWarning, match=r"dropped tickers with missing dates: \['A', 'B'\]"):
        with pytest.raises(MarketDataError, match="^no ticker covers all dates$"):
            load_prices(path)


def test_price_table_validates_dates_and_shape():
    with pytest.raises(MarketDataError):
        PriceTable(tickers=["A"], dates=_dates(2), close=np.ones((1, 3)))
    dates = _dates(2)
    with pytest.raises(MarketDataError):
        PriceTable(tickers=["A"], dates=[dates[1], dates[0]], close=np.ones((1, 2)))
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(MarketDataError, match="finite and strictly positive"):
            PriceTable(tickers=["A"], dates=dates, close=np.array([[1.0, bad]]))


def test_normalize_blocks_scales_first_column_to_u(price_csv):
    path, dates, close = price_csv
    table = load_prices(path)
    blocks = normalize_blocks(table, u=100_000.0, horizon=3)
    assert blocks.p.shape == (2, 4)
    assert np.allclose(blocks.p[:, 0], 100_000.0)
    # the window is the table's last 4 dates; relative moves are preserved
    assert np.allclose(blocks.p / blocks.p[:, :1], close[:, 4:] / close[:, 4:5])


def test_normalize_blocks_raw_passthrough(price_csv):
    path, dates, close = price_csv
    table = load_prices(path)
    blocks = normalize_blocks(table, u=1.0, horizon=2, raw_prices=True)
    assert np.array_equal(blocks.p, close[:, 5:])


def test_normalize_blocks_requires_enough_dates(price_csv):
    path, dates, _ = price_csv
    table = load_prices(path)
    assert normalize_blocks(table, u=1.0, horizon=7).p.shape == (2, 8)
    with pytest.raises(MarketDataError, match="need 9 trading dates, have 8"):
        normalize_blocks(table, u=1.0, horizon=8)


def test_normalize_blocks_rejects_a_zero_horizon(price_csv):
    with pytest.raises(MarketDataError, match="^horizon must be at least 1$"):
        normalize_blocks(load_prices(price_csv[0]), u=1.0, horizon=0)


def test_estimate_covariance_rejects_a_one_day_window(price_csv):
    with pytest.raises(MarketDataError, match="^covariance window must be at least 2 days$"):
        estimate_covariance(load_prices(price_csv[0]), window=1, horizon=2)


@pytest.mark.parametrize("u", [0.0, -1.0])
def test_normalize_blocks_rejects_a_non_positive_u(price_csv, u):
    table = load_prices(price_csv[0])
    with pytest.raises(MarketDataError, match="capital unit u must be positive"):
        normalize_blocks(table, u=u, horizon=3)


def test_price_and_covariance_windows_end_at_the_last_date(price_csv):
    path, dates, close = price_csv
    table = load_prices(path)
    horizon, window = 3, 2
    blocks = normalize_blocks(table, u=1.0, horizon=horizon, raw_prices=True)
    sigma = estimate_covariance(table, window=window, horizon=horizon).sigma
    returns = close[:, 1:] / close[:, :-1] - 1.0
    first = len(dates) - (horizon + 1)  # date index of period 1
    assert np.array_equal(blocks.p, close[:, first:])
    # period t's covariance uses the `window` returns ending at period t's date
    for t in range(horizon):
        chunk = returns[:, first + t - window : first + t]
        assert np.allclose(sigma[t], np.cov(chunk, ddof=1))


def test_psd_repair_clips_negative_eigenvalues():
    mat = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    fixed = psd_repair(mat)
    vals = np.linalg.eigvalsh(fixed)
    assert vals.min() >= -1e-12
    assert np.allclose(fixed, fixed.T)


def test_psd_repair_leaves_psd_input_alone():
    mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.allclose(psd_repair(mat), mat)


def test_estimate_covariance_single_asset_matches_manual_window(tmp_path):
    rng = np.random.default_rng(0)
    m = 12
    close = 100.0 * np.cumprod(1 + rng.normal(0, 0.01, size=(1, m)), axis=1)
    path = tmp_path / "one.csv"
    write_price_csv(path, ["ONE"], _dates(m), close)
    table = load_prices(path)
    window, horizon = 5, 3
    series = estimate_covariance(table, window=window, horizon=horizon)
    assert series.sigma.shape == (horizon, 1, 1)
    returns = close[0, 1:] / close[0, :-1] - 1.0
    for t in range(1, horizon + 1):
        # period t anchored so the final date is the last period's forward price
        date_idx = m - (horizon + 1) + (t - 1)
        chunk = returns[date_idx - window : date_idx]
        assert series.sigma[t - 1, 0, 0] == pytest.approx(np.var(chunk, ddof=1))


def test_estimate_covariance_matrices_are_symmetric_psd(tmp_path):
    rng = np.random.default_rng(1)
    m, n = 40, 4
    close = 50.0 * np.cumprod(1 + rng.normal(0, 0.02, size=(n, m)), axis=1)
    path = tmp_path / "multi.csv"
    write_price_csv(path, [f"T{i}" for i in range(n)], _dates(m), close)
    series = estimate_covariance(load_prices(path), window=20, horizon=5)
    for sigma in series.sigma:
        assert np.allclose(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-12


def test_estimate_covariance_requires_enough_history(tmp_path):
    close = np.linspace(100, 110, 6)[None, :]
    path = tmp_path / "short.csv"
    write_price_csv(path, ["A"], _dates(6), close)
    table = load_prices(path)
    with pytest.raises(MarketDataError, match="at least"):
        estimate_covariance(table, window=5, horizon=3)


def test_covariance_series_rejects_asymmetry():
    sigma = np.zeros((1, 2, 2))
    sigma[0, 0, 1] = 1.0
    with pytest.raises(MarketDataError, match="symmetric"):
        CovarianceSeries(sigma=sigma)


@pytest.mark.parametrize("shape", [(1, 2, 3), (2, 2), (2,)], ids=["non-square", "2-d", "1-d"])
def test_covariance_series_rejects_a_stack_of_non_square_matrices(shape):
    with pytest.raises(MarketDataError, match="^sigma must be a stack of square matrices$"):
        CovarianceSeries(sigma=np.zeros(shape))


def test_block_prices_validation():
    with pytest.raises(MarketDataError, match="at least 2 time columns"):
        BlockPrices(p=np.ones((2, 1)))
    with pytest.raises(MarketDataError, match="at least 2 time columns"):
        BlockPrices(p=np.ones(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(1, 0, 0), (1, 0, 1)], ids=["diagonal", "pair"])
def test_covariance_series_rejects_non_finite(entry, value):
    sigma = np.tile(np.eye(2), (2, 1, 1))
    t, i, j = entry
    sigma[t, i, j] = sigma[t, j, i] = value  # symmetric, so only finiteness can reject it
    with pytest.raises(MarketDataError, match="non-finite"):
        CovarianceSeries(sigma=sigma)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_block_prices_rejects_non_finite(value):
    p = np.ones((2, 3))
    p[1, 2] = value
    with pytest.raises(MarketDataError, match="non-finite"):
        BlockPrices(p=p)


EXP2_N, EXP2_T = 499, 15


def _exp2_sigma(seed: int) -> np.ndarray:
    """An exactly symmetric (T, n, n) stack at the paper's exp2 size."""
    a = np.random.default_rng(seed).standard_normal((EXP2_T, EXP2_N, EXP2_N))
    return a + a.transpose(0, 2, 1)


@pytest.mark.parametrize("scale", [1e-13, 1e-9], ids=["accepted", "rejected"])
def test_covariance_asymmetry_equals_whole_stack_reference(scale):
    sigma = _exp2_sigma(0)
    noise = np.random.default_rng(1).standard_normal((EXP2_N, EXP2_N))
    sigma[-1] += scale * noise  # only the last step is asymmetric
    reference = np.abs(sigma - sigma.transpose(0, 2, 1)).max()
    assert reference > 0.0
    assert market_data._max_asymmetry(sigma) == reference
    if reference > 1e-12:
        with pytest.raises(MarketDataError, match=f"max dev {reference:.2e}"):
            CovarianceSeries(sigma=sigma)
    else:
        stored = CovarianceSeries(sigma=sigma).sigma
        assert np.array_equal(stored, stored.transpose(0, 2, 1))
        assert np.array_equal(stored, 0.5 * (sigma + sigma.transpose(0, 2, 1)))


def test_an_exactly_symmetric_covariance_stack_is_stored_as_given():
    sigma = _exp2_sigma(3)
    assert CovarianceSeries(sigma=sigma).sigma is sigma


def test_covariance_check_allocates_two_matrices_at_most():
    sigma = _exp2_sigma(2)
    tracemalloc.start()
    try:
        CovarianceSeries(sigma=sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * EXP2_N**2 * 8


def test_load_prices_skips_blank_and_whitespace_rows(price_csv, tmp_path):
    path, _, _ = price_csv
    header, *rows = path.read_text().splitlines()
    padded = tmp_path / "padded.csv"
    padded.write_text(header + "\n\n" + "".join(row + "\n   \n\t\n" for row in rows) + "\n")
    table, expected = load_prices(padded), load_prices(path)
    assert table.tickers == expected.tickers and table.dates == expected.dates
    assert np.array_equal(table.close, expected.close)
