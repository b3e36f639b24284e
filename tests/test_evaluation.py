"""Gap, time-to-solution, economic metrics, and Pareto sweeps."""
import numpy as np
import pytest

from qubofolio.market_data import BlockPrices, CovarianceSeries
from qubofolio.model import FrictionParams, ProblemSpec, Trajectory, encode_assignment
from qubofolio.evaluation import (
    DEFAULT_Q_GRID,
    SOLVERS,
    EvaluationError,
    ParetoRow,
    ParetoTable,
    economic_metrics,
    gap,
    risk_quadratic,
    sweep_q,
)
from qubofolio import evaluation as evaluation_module
from qubofolio import qubo as qubo_module
from qubofolio.qubo import objective_breakdown
from qubofolio.solvers import SolveBudget
from qubofolio.toy import cash_only_bits, random_sparse_qubo, synthetic_spec, toy_spec


def _flat_spec(T=2, delta=0.001, u=100_000.0):
    """n=1 instance with perfectly flat prices and zero covariance."""
    params = FrictionParams(q=0.0, delta=delta, rho_c=0.0, rho_s=0.0, u=u)
    prices = BlockPrices(p=np.full((1, T + 1), u))
    covs = CovarianceSeries(sigma=np.zeros((T, 1, 1)))
    return ProblemSpec(k=1, B=1, C=1, params=params, prices=prices, covariances=covs)


def test_gap_published_values():
    assert gap(-953_432, -988_003) == pytest.approx(3.626, abs=1e-3)
    assert gap(-1_000, -108_821) == pytest.approx(10_782, abs=1)


def test_gap_identical_bound_is_zero():
    assert gap(-7.25, -7.25) == 0.0


def test_gap_scale_invariance():
    for c in (0.5, 3.0, 1e6):
        assert gap(-953_432 * c, -988_003 * c) == pytest.approx(
            gap(-953_432, -988_003), rel=1e-12)


def test_gap_zero_objective_rejected():
    with pytest.raises(EvaluationError):
        gap(0.0, -1.0)


def test_tts_is_last_improvement_timestamp():
    sq = random_sparse_qubo(10, seed=2)
    for name, solve in SOLVERS.items():
        report = solve(sq, SolveBudget(seed=0, max_iterations=200))
        assert report.tts == report.trace[-1][0], name


def test_cash_only_metrics():
    spec = toy_spec(n=2, T=2, seed=0)
    metrics = economic_metrics(spec, cash_only_bits(spec))
    assert metrics.total_transaction_cost == 0.0
    assert metrics.total_short_cost == 0.0
    assert metrics.liquidation_cost == 0.0
    assert metrics.sharpe_annualized is None  # no-risk marker
    # interest only: rho_c * u * C per step
    expected = spec.params.rho_c * spec.params.u * spec.C * spec.T
    assert metrics.net_profit == pytest.approx(expected)
    assert metrics.feasible


def test_single_block_flat_prices_costs_two_delta_charges():
    spec = _flat_spec()
    # one long block held at both steps; the slacks are left at zero
    bits = encode_assignment(spec, Trajectory(long=np.array([[1], [1]]), short=np.array([[0], [0]]),
                                              asset_slack=np.array([0, 0]),
                                              cash_units=np.array([0, 0])))
    metrics = economic_metrics(spec, bits)
    # one delta*u charge on entry plus one on liquidation; holding is free
    assert metrics.total_transaction_cost + metrics.liquidation_cost == \
        pytest.approx(2 * spec.params.delta * spec.params.u)
    assert metrics.gross_profit == 0.0


def test_metrics_component_identity():
    spec = toy_spec(n=3, T=2, q=1e-4, seed=6)
    rng = np.random.default_rng(7)
    for _ in range(10):
        bits = rng.integers(0, 2, spec.layout.total).astype(np.int8)
        m = economic_metrics(spec, bits)
        lhs = m.net_profit
        rhs = (m.gross_profit - m.total_transaction_cost - m.total_short_cost
               + m.total_cash_interest - m.liquidation_cost)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_metrics_reconcile_with_objective_breakdown():
    spec = toy_spec(n=2, T=2, q=1e-4, seed=8)
    rng = np.random.default_rng(9)
    for _ in range(5):
        bits = rng.integers(0, 2, spec.layout.total).astype(np.int8)
        m = economic_metrics(spec, bits)
        parts = objective_breakdown(spec, bits)
        assert m.gross_profit == pytest.approx(-parts["profit"], rel=1e-9, abs=1e-9)
        assert m.total_transaction_cost == pytest.approx(parts["transaction"],
                                                         rel=1e-9, abs=1e-9)
        assert m.total_short_cost == pytest.approx(parts["short_cost"],
                                                   rel=1e-9, abs=1e-9)
        assert m.total_cash_interest == pytest.approx(-parts["cash_interest"],
                                                      rel=1e-9, abs=1e-9)
        assert m.liquidation_cost == pytest.approx(parts["liquidation"],
                                                   rel=1e-9, abs=1e-9)


def test_sharpe_requires_two_periods():
    spec = toy_spec(n=1, T=1, seed=0)
    metrics = economic_metrics(spec, cash_only_bits(spec))
    assert metrics.sharpe_annualized is None


def test_sharpe_annualization_convention():
    spec = toy_spec(n=2, T=2, q=1e-5, seed=4)
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, spec.layout.total).astype(np.int8)
    m = economic_metrics(spec, bits)
    if m.sharpe_annualized is not None:
        from qubofolio.qubo import step_components

        comp = step_components(spec, bits)
        pnl = (comp["gross_profit"] - comp["transaction"] - comp["short_cost"]
               + comp["cash_interest"] - comp["liquidation"])
        r = pnl / (spec.C * spec.params.u)
        expected = np.mean(r - spec.params.rho_c) / np.std(r, ddof=1) * np.sqrt(252)
        assert m.sharpe_annualized == pytest.approx(expected, rel=1e-12)


def test_sweep_default_grid_monotone_risk_and_profit():
    spec = toy_spec(n=2, T=2, seed=3)
    table = sweep_q(spec, DEFAULT_Q_GRID, "exact", SolveBudget(time_limit=60))
    assert len(table.rows) == 8
    assert table.succeeded == 8
    risks = [row.risk_term for row in table.rows]
    profits = [row.profit for row in table.rows]
    assert all(a >= b - 1e-9 for a, b in zip(risks, risks[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(profits, profits[1:]))


def test_sweep_rows_are_in_q_order_and_unique():
    spec = toy_spec(seed=1)
    table = sweep_q(spec, [1e-3, 0.0, 1e-5], "exact", SolveBudget())
    assert [row.q for row in table.rows] == [0.0, 1e-5, 1e-3]
    with pytest.raises(EvaluationError):
        ParetoTable(rows=(table.rows[0], table.rows[0]))


def test_sweep_failed_rows_are_marked_and_skipped():
    spec = toy_spec(seed=1)
    import qubofolio.evaluation as ev

    calls = {"n": 0}
    original = ev.SOLVERS["exact"]

    def flaky(qubo, budget):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("synthetic failure")
        return original(qubo, budget)

    ev.SOLVERS["exact"] = flaky
    try:
        table = sweep_q(spec, [0.0, 1e-5, 1e-3], "exact", SolveBudget())
    finally:
        ev.SOLVERS["exact"] = original
    assert table.succeeded == 2
    failed = [row for row in table.rows if row.failed]
    assert len(failed) == 1 and "synthetic failure" in failed[0].error


def test_sweep_rejects_empty_or_unknown():
    spec = toy_spec(seed=0)
    with pytest.raises(EvaluationError):
        sweep_q(spec, [], "exact")
    with pytest.raises(EvaluationError):
        sweep_q(spec, [0.0], "gurobi")


def test_sweep_rejects_a_repeated_q_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setitem(evaluation_module.SOLVERS, "exact",
                        lambda qubo, budget: calls.append(qubo))
    with pytest.raises(EvaluationError, match="repeats a value"):
        sweep_q(toy_spec(seed=0), [1e-3, 0.0, 1e-3], "exact")
    assert calls == []


def test_pareto_csv_format(tmp_path):
    spec = toy_spec(seed=2)
    table = sweep_q(spec, [0.0, 1e-2], "exact", SolveBudget())
    path = tmp_path / "pareto.csv"
    table.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "q,solver,objective,lower_bound,gap_pct,tts_s,profit,risk_term"
    assert len(lines) == 3
    assert "," in lines[1] and " " not in lines[1]


def test_risk_quadratic_independent_of_q():
    bits = cash_only_bits(toy_spec(seed=5))
    values = [risk_quadratic(toy_spec(q=q, seed=5), bits) for q in (0.0, 1e-4, 1e-2)]
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[1] == pytest.approx(values[2], rel=1e-12)


def test_exact_sweep_rows_have_zero_gap():
    table = sweep_q(toy_spec(n=3, T=2, B=2, seed=0), DEFAULT_Q_GRID, "exact")
    assert [row.gap_pct for row in table.rows] == [0.0] * len(DEFAULT_Q_GRID)


def test_economic_metrics_resolves_no_penalty(monkeypatch):
    spec = toy_spec(n=3, T=2, q=1e-3, seed=7)
    bits = np.random.default_rng(7).integers(0, 2, spec.layout.total)
    breakdown = objective_breakdown(spec, bits)
    metrics = economic_metrics(spec, bits)
    calls = []
    builds = []
    resolve = qubo_module.resolve_penalty
    build = qubo_module.build_qubo

    def counting_resolve(*args):
        calls.append(args)
        return resolve(*args)

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(qubo_module, "resolve_penalty", counting_resolve)
    monkeypatch.setattr(qubo_module, "build_qubo", counting_build)
    monkeypatch.setattr(evaluation_module, "build_qubo", counting_build)
    assert economic_metrics(spec, bits) == metrics
    assert calls == [] and builds == []
    assert objective_breakdown(spec, bits) == breakdown
    assert len(calls) == 1 and len(builds) == 1


def test_equal_returns_have_zero_variance():
    # every all-cash return is 1e-4, yet np.mean rounds them to 1.0000000000000002e-4
    spec = synthetic_spec(n=2, T=7, seed=1)
    metrics = economic_metrics(spec, cash_only_bits(spec))
    assert metrics.realized_variance == 0.0
    assert metrics.sharpe_annualized is None
