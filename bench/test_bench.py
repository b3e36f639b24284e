"""Tests of the benchmark's own machinery: span arithmetic, metric names,
and that every correctness check fires on a corrupted output."""
from __future__ import annotations

import dataclasses
import json
import os
import types

import numpy as np
import pytest

import qubofolio as qf

import checks
import metrics
from checks import Ledger
from spans import Span, Tracer, layer_self_times, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- spans ---------------------------------------------------------------------


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, "run")


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, "bench.round", 0.0, 10.0),
        _span(1, "solvers.solve_sa", 1.0, 3.0, parent=0),
        _span(2, "qubo.energy", 2.0, 5.0, parent=0),  # overlaps span 1
        _span(3, "qubo.energy", 1.5, 2.5, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0)  # children cover [1, 5]
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    layers = layer_self_times(spans)
    assert layers["qubo"] == (2, pytest.approx(4.0))
    assert layers["bench"] == (1, pytest.approx(6.0))


def test_tracer_wraps_module_functions_and_restores_them():
    mod = types.ModuleType("fake")
    mod.__all__ = ["outer", "inner", "CONST"]
    mod.CONST = 3

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    inner.__module__ = outer.__module__ = "fake"
    mod.inner, mod.outer = inner, outer
    tracer = Tracer("run-1")
    with tracer.installed({"fake": mod}):
        with tracer.span("bench.round"):
            assert mod.outer(1) == 4
    assert mod.outer is outer and mod.inner is inner
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("bench.round", None), ("fake.outer", 0), ("fake.inner", 1)]
    assert all(s.run_id == "run-1" and s.end >= s.start for s in tracer.spans)
    with tracer.span("bench.after"):  # uninstalled: records nothing
        pass
    assert len(tracer.spans) == 3


# --- metric names and BENCHMARK.json ----------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    for registry in (metrics.END_TO_END, metrics.DETAIL, metrics.PER_LAYER):
        for name, (unit, better) in registry.items():
            assert metrics.NAME_RE.match(name), name
            assert metrics.UNIT_RE.match(unit), (name, unit)
            assert better in ("lower", "higher")
    assert set(metrics.QUALITY) < set(metrics.DETAIL)


def test_benchmark_json_matches_the_registry():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_round_counts_follow_seconds_not_the_clock():
    import workloads

    assert [workloads.rounds_for(name, 10) for name in workloads.WORKLOADS] == [2, 1, 1, 1]
    assert workloads.rounds_for("exp1-search", 1) == 1


def test_per_layer_metrics_cover_the_registry_without_spans():
    import run
    import workloads

    res = workloads.Result("toy-quantum", 1, [0.1], [1.0], [1.1], [0.1], [1.0], 10.0, {},
                           Ledger(), Tracer("r"), {}, {})
    out = run.per_layer_metrics(res)
    assert set(out) == set(metrics.PER_LAYER)
    assert out["trace.overhead_s"] == pytest.approx(0.1)


# --- correctness checks fire on corrupted outputs -------------------------------------


@pytest.fixture(scope="module")
def toy():
    spec = qf.toy_spec(n=2, T=2, seed=3)
    qubo = qf.build_qubo(spec)
    return spec, qubo, qf.solve_exact(qubo), qf.solve_bnb(qubo)


def test_reported_energy_fires_on_a_flipped_bit(toy):
    _, qubo, exact, _ = toy
    assert checks.reported_energy(exact, qf.energy(qubo, exact.best)) is None
    bad = exact.best.copy()
    bad[0] ^= 1
    assert checks.reported_energy(exact, qf.energy(qubo, bad))


def test_round_trip_fires_when_json_loses_information(toy):
    _, _, exact, _ = toy

    class Lossy(qf.SolveReport):
        @classmethod
        def from_json(cls, doc):
            rep = qf.SolveReport.from_json(doc)
            return dataclasses.replace(rep, best=1 - rep.best)

    assert checks.report_round_trip(exact, qf.SolveReport) is None
    assert checks.report_round_trip(exact, Lossy)


def test_budget_check_fires_on_a_short_run(toy):
    _, _, exact, _ = toy
    assert checks.stopped_on_budget(exact, exact.iterations) is None
    assert checks.stopped_on_budget(exact, exact.iterations + 1)


def test_exact_vs_bnb_and_ground_checks_fire(toy):
    _, qubo, exact, bnb = toy
    assert checks.exact_matches_bnb(exact, bnb) is None
    assert checks.exact_matches_bnb(exact, dataclasses.replace(bnb, best_energy=bnb.best_energy + 1))
    assert checks.exact_matches_bnb(exact, dataclasses.replace(bnb, lower_bound=None))
    ising, scale = qf.normalize_ising(qf.to_ising(qubo))
    ground = qf.diagonalize_cost(ising).ground_energy
    assert checks.ground_matches_exact(ground, scale, exact.best_energy) is None
    assert checks.ground_matches_exact(ground, scale * 1.001, exact.best_energy)


def test_cash_descent_breakdown_and_metric_checks_fire(toy):
    spec, qubo, exact, _ = toy
    assert checks.cash_energy(-1000.0004, -1000.0) is None
    assert checks.cash_energy(-1000.01, -1000.0)
    x = qf.local_descent(qubo, exact.best)
    assert checks.local_minimum(qf.delta_energies(qubo, x), qubo.penalty_weight) is None
    assert checks.local_minimum(np.array([0.0, -1.0]), 1.0)
    e = qf.energy(qubo, exact.best)
    breakdown = qf.objective_breakdown(spec, exact.best)
    assert checks.breakdown_total(breakdown, e) is None
    assert checks.breakdown_total({**breakdown, "risk": breakdown["risk"] + 1.0}, e)
    m = qf.economic_metrics(spec, exact.best)
    feasible = qf.is_feasible(spec, exact.best)
    assert checks.metrics_consistent(m, feasible) is None
    assert checks.metrics_consistent(m, not feasible)
    assert checks.metrics_consistent(dataclasses.replace(m, net_profit=m.net_profit + 5.0), feasible)


def test_quantum_and_exit_code_checks_fire():
    doc = {"algo": "anneal", "ground_probability": 0.5, "expectation": -0.5}
    assert checks.quantum_doc(doc, -1.0) is None
    assert checks.quantum_doc({**doc, "ground_probability": 1.5}, -1.0)
    assert checks.quantum_doc({**doc, "expectation": -2.0}, -1.0)
    assert checks.exit_code("solve", 3, (0, 3)) is None
    assert checks.exit_code("solve", 1, (0, 3))


def test_ledger_counts_documented_and_unexpected_failures():
    ledger = Ledger()
    with ledger.op("ok") as op:
        op.check(None)
    with ledger.op("size cap", expected=(qf.QuboError,)):
        raise qf.QuboError("too big")
    with ledger.op("crash", expected=(qf.QuboError,)):
        raise KeyError("boom")
    with ledger.op("wrong") as op:
        op.check("bad value")
        op.check("another bad value")
    assert ledger.attempted == 4
    assert ledger.failed == 3
    assert [name for name, _ in ledger.failures] == ["size cap", "crash", "wrong"]
    assert [name for name, _ in ledger.check_failures] == ["crash", "wrong", "wrong"]
    assert not ledger.correct
