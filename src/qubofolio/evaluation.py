"""Computational and economic metrics: optimality gap, per-period P&L,
Sharpe ratio, and Pareto sweeps over the risk-aversion weight q.
"""
from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec, is_feasible
from .qubo import _bits_by_step, _cash_flows, _step_terms, build_qubo
from .solvers import SolveBudget, solve_abs, solve_bnb, solve_exact, solve_sa

__all__ = [
    "EvaluationError",
    "Metrics",
    "ParetoRow",
    "ParetoTable",
    "gap",
    "economic_metrics",
    "risk_quadratic",
    "sweep_q",
    "SOLVERS",
]

DEFAULT_Q_GRID = (0.0, 1e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2)

SOLVERS = {
    "exact": solve_exact,
    "bnb": solve_bnb,
    "sa": solve_sa,
    "abs": solve_abs,
}


class EvaluationError(ValueError):
    """Raised on undefined metrics (zero objective gap) and bad sweep arguments."""


def gap(objective: float, lower_bound: float) -> float:
    """Optimality gap in percent: 100 * |objective - lower_bound| / |objective|."""
    if objective == 0:
        raise EvaluationError("gap undefined for zero objective")
    return 100.0 * abs(objective - lower_bound) / abs(objective)


@dataclass(frozen=True)
class Metrics:
    """Economic summary of one executed trading strategy.

    Component identity: net_profit = gross_profit - total_transaction_cost
    - total_short_cost + total_cash_interest - liquidation_cost.
    Equal per-step returns (e.g. all-cash) have zero variance: realized_variance
    is 0.0 and sharpe_annualized is None.
    """

    gross_profit: float
    net_profit: float
    realized_variance: float
    sharpe_annualized: float | None
    total_transaction_cost: float
    total_short_cost: float
    total_cash_interest: float
    liquidation_cost: float
    feasible: bool

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def economic_metrics(spec: ProblemSpec, bits) -> Metrics:
    """Per-period P&L and its summary statistics for a bit assignment.

    Daily return r_t = P&L_t / (C * u); the annualized Sharpe ratio is
    mean(r_t - rho_c) / std(r_t, unbiased) * sqrt(252).  Requires T >= 2
    for the Sharpe ratio (the standard deviation needs two samples).
    """
    comp = _cash_flows(spec, _bits_by_step(spec, bits))
    pnl = (comp["gross_profit"] - comp["transaction"] - comp["short_cost"]
           + comp["cash_interest"] - comp["liquidation"])
    capital = spec.C * spec.params.u
    returns = pnl / capital

    # np.mean can round equal returns to a different value and so give them a tiny std.
    sharpe: float | None = None
    variance = 0.0
    if spec.T >= 2 and np.ptp(returns) != 0.0:
        variance = float(np.var(returns, ddof=1))
        std = float(np.std(returns, ddof=1))
        sharpe = float(np.mean(returns - spec.params.rho_c) / std * math.sqrt(252.0))
    return Metrics(
        gross_profit=float(comp["gross_profit"].sum()),
        net_profit=float(pnl.sum()),
        realized_variance=variance,
        sharpe_annualized=sharpe,
        total_transaction_cost=float(comp["transaction"].sum()),
        total_short_cost=float(comp["short_cost"].sum()),
        total_cash_interest=float(comp["cash_interest"].sum()),
        liquidation_cost=float(comp["liquidation"].sum()),
        feasible=is_feasible(spec, bits),
    )


def risk_quadratic(spec: ProblemSpec, bits) -> float:
    """The quadratic risk term R(x) with unit weight (independent of q)."""
    unit = dataclasses.replace(build_qubo(spec, include_penalty=False), scale=1.0)
    risk, _ = _step_terms(unit, _bits_by_step(spec, bits))
    return float(risk.sum())


@dataclass(frozen=True)
class ParetoRow:
    q: float
    solver: str
    objective: float | None
    lower_bound: float | None
    gap_pct: float | None
    tts_s: float | None
    profit: float | None
    risk_term: float | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class ParetoTable:
    rows: tuple[ParetoRow, ...]

    def __post_init__(self):
        keys = [(row.q, row.solver) for row in self.rows]
        if len(set(keys)) != len(keys):
            raise EvaluationError("Pareto rows must be unique by (q, solver)")

    @property
    def succeeded(self) -> int:
        return sum(not row.failed for row in self.rows)

    def write_csv(self, path) -> None:
        def cell(value):
            return "" if value is None else repr(float(value))

        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["q", "solver", "objective", "lower_bound",
                             "gap_pct", "tts_s", "profit", "risk_term"])
            for row in self.rows:
                writer.writerow([
                    repr(float(row.q)),
                    row.solver + ("!failed" if row.failed else ""),
                    cell(row.objective), cell(row.lower_bound),
                    cell(row.gap_pct), cell(row.tts_s),
                    cell(row.profit), cell(row.risk_term),
                ])


def sweep_q(spec: ProblemSpec, q_list, solver: str,
            budget: SolveBudget | None = None) -> ParetoTable:
    """One solve per q with an identical budget and seed; rows in q order.

    The profit column is the scalarized income q*R - E (so it excludes the
    risk term) and risk_term is the unweighted quadratic risk R; both are
    non-increasing in q for exact solves.  Solver failures mark the row
    failed and the sweep continues.
    """
    if not q_list:
        raise EvaluationError("q_list must be non-empty")
    if len(set(q_list)) != len(q_list):
        raise EvaluationError(f"q_list repeats a value: {sorted(q_list)}")
    if solver not in SOLVERS:
        raise EvaluationError(f"unknown solver {solver!r}; choose from {sorted(SOLVERS)}")
    budget = budget or SolveBudget()
    solve = SOLVERS[solver]
    rows = []
    for q in sorted(q_list):
        q_spec = dataclasses.replace(spec, params=dataclasses.replace(spec.params, q=q))
        try:
            qubo = build_qubo(q_spec)
            report = solve(qubo, budget)
            obj = report.best_energy
            lb = report.lower_bound
            row_gap = gap(obj, lb) if (lb is not None and obj != 0) else None
            risk = risk_quadratic(q_spec, report.best)
            rows.append(ParetoRow(
                q=q, solver=solver, objective=obj, lower_bound=lb,
                gap_pct=row_gap, tts_s=report.tts,
                profit=q * risk - obj, risk_term=risk,
            ))
        except Exception as exc:  # keep sweeping; the row records the failure
            rows.append(ParetoRow(q=q, solver=solver, objective=None,
                                  lower_bound=None, gap_pct=None, tts_s=None,
                                  profit=None, risk_term=None, error=str(exc)))
    return ParetoTable(rows=tuple(rows))
