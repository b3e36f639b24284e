"""The streamed export of a BlockQubo against the concatenated one.

`write_qubo_text` of a BlockQubo and `build --bqp` write one step at a
time; their bytes must equal those written from `to_sparse` and from a
whole `json.dump` document.  Streaming also keeps the writer's memory
flat in the horizon T, and importing the package or its CLI leaves the
simulator and scipy unloaded.
"""
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qubofolio
from qubofolio import qubo as qubo_module
from qubofolio.cli import main
from qubofolio.model import spec_to_json
from qubofolio.qubo import _one_block, build_qubo, to_sparse, write_qubo_text
from qubofolio.toy import synthetic_spec, toy_spec
from test_qubo import build_bqp


def _with_p(spec, P):
    return dataclasses.replace(spec, params=dataclasses.replace(spec.params, P=P))


SPECS = {
    "toy-signed-T1": lambda: toy_spec(n=2, T=1, seed=1),
    "toy-signed-T2": lambda: toy_spec(n=3, T=2, seed=2),
    "toy-unsigned-T1": lambda: toy_spec(n=3, T=1, seed=3, signed_risk=False),
    "toy-unsigned-T2": lambda: toy_spec(n=2, T=2, seed=4, signed_risk=False),
    "toy-q0": lambda: toy_spec(n=3, T=2, q=0.0, seed=5),
    "synthetic-explicit-P": lambda: _with_p(synthetic_spec(n=20, T=6, seed=6), 12345.5),
}


@pytest.fixture(params=[False, True], ids=["chunks", "small-chunks"])
def chunks(request, monkeypatch):
    """The writer's default chunk size, or 7 lines so chunks also break inside a step."""
    if request.param:
        monkeypatch.setattr(qubo_module, "_CHUNK_LINES", 7)


def _problems():
    for name, make in SPECS.items():
        spec = make()
        yield f"{name}-penalty", build_qubo(spec)
        yield f"{name}-free", build_qubo(spec, include_penalty=False)
    A = np.random.default_rng(7).normal(size=(9, 9))
    yield "one-block", _one_block((A + A.T) / 2.0, 0.75)


PROBLEMS = dict(_problems())


@pytest.mark.parametrize("name", PROBLEMS)
def test_streamed_qubo_text_equals_to_sparse_bytes(tmp_path, chunks, name):
    qubo = PROBLEMS[name]
    streamed, concatenated = tmp_path / "streamed.qubo", tmp_path / "concatenated.qubo"
    num_terms = write_qubo_text(qubo, streamed)
    assert num_terms == write_qubo_text(to_sparse(qubo), concatenated)
    assert streamed.read_bytes() == concatenated.read_bytes()
    header, *lines = streamed.read_text().splitlines()
    assert int(header.split()[3]) == num_terms == len(lines)
    assert all(float(line.split()[2]) != 0.0 for line in lines)  # q = 0 leaves zero risk entries


def _reference_bqp_json(spec) -> dict:
    """The BQP document as the CLI built it whole, before the terms were streamed."""
    bqp = build_bqp(spec)
    obj = bqp.objective

    def row_doc(kind, step, row):
        idx, coef, rhs = row
        return {"kind": kind, "step": step,
                "indices": [int(i) for i in idx],
                "coeffs": [float(c) for c in coef],
                "rhs": int(rhs)}

    constraints = []
    for t, row in enumerate(bqp.asset_rows, start=1):
        constraints.append(row_doc("asset", t, row))
    for t, row in enumerate(bqp.cash_rows, start=1):
        constraints.append(row_doc("cash", t, row))
    return {
        "objective": {
            "num_vars": obj.num_vars,
            "offset": obj.offset,
            "terms": [[int(i), int(j), float(v)]
                      for i, j, v in zip(obj.rows, obj.cols, obj.vals)],
        },
        "constraints": constraints,
    }


@pytest.mark.parametrize("name", SPECS)
def test_build_bqp_equals_whole_json_dump(tmp_path, chunks, name):
    spec = SPECS[name]()
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(spec_to_json(spec)))
    out = tmp_path / "p.qubo"
    assert main(["build", "--config", str(config), "--out", str(out), "--bqp"]) == 0
    reference = tmp_path / "reference.json"
    with open(reference, "w", encoding="utf-8") as fh:
        json.dump(_reference_bqp_json(spec), fh)
        fh.write("\n")
    assert (tmp_path / "p.qubo.bqp.json").read_bytes() == reference.read_bytes()


def _write_peak(qubo, path) -> int:
    tracemalloc.start()
    try:
        write_qubo_text(qubo, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_write_memory_does_not_grow_with_T(tmp_path):
    short = build_qubo(synthetic_spec(n=40, T=4, seed=1))
    long = build_qubo(synthetic_spec(n=40, T=16, seed=1))
    peaks = [_write_peak(qubo, tmp_path / "q.qubo") for qubo in (short, long)]
    assert max(peaks) <= 1.5 * min(peaks), peaks


QUANTUM_NAMES = ["AnnealSchedule", "DiagonalCost", "QaoaParams", "QuantumSimError",
                 "anneal_run", "diagonalize_cost", "normalize_ising", "qaoa_optimize",
                 "qaoa_run", "vqe_run"]


def _fresh_python(code: str) -> str:
    """Stdout of code run in a new interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qubofolio.__file__))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


@pytest.mark.parametrize("module", ["qubofolio", "qubofolio.cli"])
def test_import_leaves_scipy_and_simulator_unloaded(module):
    out = _fresh_python(f"import sys, {module}\n"
                        "loaded = ('scipy', 'qubofolio.quantum')\n"
                        "print(sorted(m for m in loaded if m in sys.modules))")
    assert out.strip() == "[]"


def test_simulator_names_resolve_from_the_package():
    """Each name resolves on first use, by `from qubofolio import` and as an attribute."""
    out = _fresh_python(
        "import qubofolio\n"
        f"for name in {QUANTUM_NAMES!r}:\n"
        "    namespace = {}\n"
        "    exec(f'from qubofolio import {name}', namespace)\n"
        "    from qubofolio import quantum\n"
        "    assert namespace[name] is getattr(qubofolio, name) is getattr(quantum, name), name\n"
        "print('ok')\n")
    assert out.strip() == "ok"


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qubofolio.no_such_name
