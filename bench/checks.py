"""Correctness checks and the ledger that counts operations.

An operation is one call the benchmark makes into qubofolio (or one CLI
command).  It fails when it raises, exits non-zero, or when a check on its
output fires.  Failures the program documents (a size limit raising
``QuboError``, the CLI's exit 3 for a size cap) are recorded as failed
operations with their error text; any other failure is also a check
failure, which makes the run incorrect.  Every check function returns
``None`` when the output is right and a one-line problem otherwise.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Op:
    name: str
    problems: list[str] = field(default_factory=list)
    error: str | None = None  # documented failure: the operation gave no result

    def check(self, problem: str | None) -> None:
        if problem:
            self.problems.append(problem)

    def fail(self, error: str) -> None:
        """Record a documented failure (the program refused the input as specified)."""
        self.error = error


class Ledger:
    """Counts operations attempted, operations failed, and check failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []  # (op, reason), one per failed op
        self.check_failures: list[tuple[str, str]] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.check_failures

    @contextmanager
    def op(self, name: str, expected: tuple[type[BaseException], ...] = ()):
        """Run one operation; ``expected`` lists documented exception types."""
        rec = Op(name)
        self.attempted += 1
        try:
            yield rec
        except expected as exc:
            rec.fail(f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # any other error is a wrong output, never skipped
            rec.problems.append(f"unexpected {type(exc).__name__}: {exc}")
        self._record(rec)

    def _record(self, rec: Op) -> None:
        for problem in rec.problems:
            self.check_failures.append((rec.name, problem))
        if rec.problems:
            self.failures.append((rec.name, "; ".join(rec.problems)))
        elif rec.error is not None:
            self.failures.append((rec.name, rec.error))


# --- checks ------------------------------------------------------------------


def close(what: str, got: float, want: float, rel: float, abs_tol: float = 0.0) -> str | None:
    if math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol):
        return None
    return f"{what}: got {got!r}, want {want!r} (rel tol {rel:g})"


def cash_energy(got: float, want: float) -> str | None:
    """All-cash energy equals the cash interest, -rho_c * u * C * T."""
    return close("cash-only energy", got, want, rel=1e-6)


def reported_energy(report, recomputed: float) -> str | None:
    """A report's best_energy equals energy(qubo, best) recomputed."""
    return close(f"{report.solver_name} best_energy vs recomputed energy",
                 float(report.best_energy), recomputed, rel=1e-9, abs_tol=1e-9)


def stopped_on_budget(report, max_iterations: int) -> str | None:
    """The solve ended on its iteration budget, not on its time limit."""
    if report.iterations == max_iterations:
        return None
    return (f"{report.solver_name} stopped after {report.iterations} of "
            f"{max_iterations} iterations (time limit hit?)")


def report_round_trip(report, report_cls) -> str | None:
    """SolveReport survives to_json -> JSON text -> from_json -> to_json."""
    doc = report.to_json()
    again = report_cls.from_json(json.loads(json.dumps(doc))).to_json()
    if again != doc:
        diff = sorted(k for k in doc if doc[k] != again.get(k))
        return f"{report.solver_name} report JSON round trip changed {diff}"
    return None


def exact_matches_bnb(exact, bnb) -> str | None:
    """Exhaustive enumeration and exhausted branch and bound agree."""
    problem = close("bnb vs exact optimum", float(bnb.best_energy),
                    float(exact.best_energy), rel=1e-9, abs_tol=1e-9)
    if problem:
        return problem
    if bnb.lower_bound is None or not math.isclose(bnb.lower_bound, bnb.best_energy,
                                                   rel_tol=1e-9, abs_tol=1e-9):
        return f"bnb lower bound {bnb.lower_bound!r} does not certify {bnb.best_energy!r}"
    return None


def ground_matches_exact(ground_energy: float, scale: float, exact_energy: float) -> str | None:
    """Diagonalised ground energy, rescaled, equals the exact QUBO optimum."""
    return close("diagonalize_cost ground x scale vs exact optimum",
                 ground_energy * scale, exact_energy, rel=1e-9, abs_tol=1e-9)


def local_minimum(deltas: np.ndarray, scale: float) -> str | None:
    """A descent result has no improving single flip."""
    worst = float(np.min(deltas))
    if worst >= -1e-9 * max(scale, 1.0):
        return None
    return f"descent result has an improving flip of {worst!r}"


def breakdown_total(breakdown: dict[str, float], energy: float) -> str | None:
    """Objective components sum to the QUBO energy of the same bits."""
    return close("objective_breakdown total vs energy", math.fsum(breakdown.values()),
                 energy, rel=1e-6, abs_tol=1e-6)


def metrics_consistent(m, feasible: bool) -> str | None:
    """Economic metrics: feasibility flag and the net-profit identity."""
    if bool(m.feasible) != feasible:
        return f"metrics.feasible={m.feasible} but is_feasible={feasible}"
    net = (m.gross_profit - m.total_transaction_cost - m.total_short_cost
           + m.total_cash_interest - m.liquidation_cost)
    return close("net_profit identity", m.net_profit, net, rel=1e-9, abs_tol=1e-6)


def quantum_doc(doc: dict, ground_energy: float) -> str | None:
    """A simulator run document is a valid distribution over basis states."""
    p = doc["ground_probability"]
    if not 0.0 <= p <= 1.0 + 1e-12:
        return f"{doc['algo']} ground probability {p!r} outside [0, 1]"
    if doc["expectation"] < ground_energy - 1e-9 * max(1.0, abs(ground_energy)):
        return f"{doc['algo']} expectation {doc['expectation']!r} below ground {ground_energy!r}"
    return None


def exit_code(command: str, got: int, allowed: tuple[int, ...]) -> str | None:
    """A CLI command exits with one of the codes its contract allows."""
    if got in allowed:
        return None
    return f"{command} exited {got}, contract allows {allowed}"
