"""The streamed export of a BlockQubo against the concatenated one.

`write_qubo_text` of a BlockQubo and `build --bqp` write one band of a
step's rows at a time; their bytes must equal those written from
`to_sparse`, from the reference triplets of whole (w, w) blocks and from
a whole `json.dump` document, at the default band height and at 7 rows.
Every band is formed in the same scratch, so a copy of each band's terms
must equal the reference's.  Streaming also keeps the writer's memory flat
in the horizon T, its bands' flat in the step width, and the rest bounded
by the chunk.  Importing the package, its CLI or its simulator leaves scipy
unloaded, and so does a QAOA optimization.
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
from qubofolio.market_data import CovarianceSeries
from qubofolio.model import spec_to_json
from qubofolio.qubo import (
    SparseQubo,
    _one_block,
    build_qubo,
    to_ising,
    to_sparse,
    write_ising_text,
    write_qubo_text,
)
from qubofolio.toy import synthetic_spec, toy_spec
from test_qubo import build_bqp, reference_to_sparse


def _with_p(spec, P):
    return dataclasses.replace(spec, params=dataclasses.replace(spec.params, P=P))


def _skewed(spec, eps):
    """spec with each Sigma_t above its diagonal raised by eps, inside the 1e-12 asymmetry
    the covariance check allows; the spec stores the symmetric part."""
    sigma = spec.covariances.sigma
    skew = eps * np.triu(np.ones(sigma.shape[1:]), 1)
    return dataclasses.replace(spec, covariances=CovarianceSeries(sigma=sigma + skew))


SPECS = {
    "toy-signed-T1": lambda: toy_spec(n=2, T=1, seed=1),
    "toy-signed-T2": lambda: toy_spec(n=3, T=2, seed=2),
    "toy-unsigned-T1": lambda: toy_spec(n=3, T=1, seed=3, signed_risk=False),
    "toy-unsigned-T2": lambda: toy_spec(n=2, T=2, seed=4, signed_risk=False),
    "toy-q0": lambda: toy_spec(n=3, T=2, q=0.0, seed=5),
    "synthetic-explicit-P": lambda: _with_p(synthetic_spec(n=20, T=6, seed=6), 12345.5),
    "synthetic-w14": lambda: synthetic_spec(n=2, T=3, k=2, B=4, C=4, seed=8),
    "toy-skewed-sigma": lambda: _skewed(toy_spec(n=3, T=2, seed=9), 5e-13),
}


@pytest.fixture(params=[(None, None), (7, None), (None, 7), (7, 7)],
                ids=["chunks", "small-chunks", "chunks-small-bands", "small-chunks-small-bands"])
def sizes(request, monkeypatch):
    """The writer's default chunk size and band height, or 7 of either or both.

    At 7 lines, chunks also break inside a step.  At 7 rows, bands split the
    8-, 9- and 130-wide steps, and the 14-wide steps of synthetic-w14 end
    exactly where their second band does.
    """
    lines, rows = request.param
    if lines:
        monkeypatch.setattr(qubo_module, "_CHUNK_LINES", lines)
    if rows:
        monkeypatch.setattr(qubo_module, "_band_rows", lambda w: rows)


def _problems():
    for name, make in SPECS.items():
        spec = make()
        yield f"{name}-penalty", build_qubo(spec)
        yield f"{name}-free", build_qubo(spec, include_penalty=False)
    A = np.random.default_rng(7).normal(size=(9, 9))
    yield "one-block", _one_block((A + A.T) / 2.0, 0.75)


PROBLEMS = dict(_problems())


@pytest.mark.parametrize("name", PROBLEMS)
def test_materialised_block_equals_its_transpose_bit_for_bit(name):
    """So one former serves rows and columns alike: the flip kernel reads row j as column j."""
    qubo = PROBLEMS[name]
    for t in range(qubo.wp.shape[0]):
        D = qubo_module._block_rows(qubo, t, slice(None))
        assert np.array_equal(D.view(np.int64), D.T.view(np.int64))


@pytest.mark.parametrize("height", [None, 7], ids=["bands", "small-bands"])
@pytest.mark.parametrize("name", PROBLEMS)
def test_band_scratch_is_reused_without_stale_terms(monkeypatch, height, name):
    """Every band is formed in the same scratch: a copy of each band's triplets, kept
    as it is yielded, and to_sparse both equal the whole-block reference triplets."""
    if height:
        monkeypatch.setattr(qubo_module, "_band_rows", lambda w: height)
    qubo = PROBLEMS[name]
    kept = [[part.copy() for part in band[:3]] for band in qubo_module._sparse_bands(qubo)]
    ref_rows, ref_cols, ref_vals, _ = reference_to_sparse(qubo)
    sparse = to_sparse(qubo)
    for rows, cols, vals in ([np.concatenate(parts) for parts in zip(*kept)],
                             (sparse.rows, sparse.cols, sparse.vals)):
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
        assert np.array_equal(vals.view(np.int64), ref_vals.view(np.int64))


def _reference_sparse(qubo) -> SparseQubo:
    """The triplets of test_qubo's whole-block reference export as a SparseQubo."""
    rows, cols, vals, offset = reference_to_sparse(qubo)
    return SparseQubo(num_vars=qubo.num_vars, rows=rows, cols=cols, vals=vals, offset=offset)


@pytest.mark.parametrize("name", PROBLEMS)
def test_streamed_qubo_text_equals_to_sparse_bytes(tmp_path, sizes, name):
    qubo = PROBLEMS[name]
    streamed, concatenated = tmp_path / "streamed.qubo", tmp_path / "concatenated.qubo"
    reference = tmp_path / "reference.qubo"
    num_terms = write_qubo_text(qubo, streamed)
    assert num_terms == write_qubo_text(to_sparse(qubo), concatenated)
    write_qubo_text(_reference_sparse(qubo), reference)
    assert streamed.read_bytes() == concatenated.read_bytes() == reference.read_bytes()
    header, *lines = streamed.read_text().splitlines()
    assert int(header.split()[3]) == num_terms == len(lines)
    assert all(float(line.split()[2]) != 0.0 for line in lines)  # q = 0 leaves zero risk entries


@pytest.mark.parametrize("name", PROBLEMS)
def test_ising_text_equals_whole_block_reference_bytes(tmp_path, sizes, name):
    qubo = PROBLEMS[name]
    write_ising_text(to_ising(qubo), tmp_path / "banded.ising")
    write_ising_text(to_ising(_reference_sparse(qubo)), tmp_path / "reference.ising")
    assert (tmp_path / "banded.ising").read_bytes() == (tmp_path / "reference.ising").read_bytes()


def _reference_bqp_json(spec) -> dict:
    """The BQP document as the CLI built it whole, before the terms were streamed.

    Its terms are test_qubo's whole-block reference export of the penalty-free objective.
    """
    bqp = build_bqp(spec)
    rows, cols, vals, offset = reference_to_sparse(build_qubo(spec, include_penalty=False))

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
            "num_vars": bqp.objective.num_vars,
            "offset": offset,
            "terms": [[int(i), int(j), float(v)] for i, j, v in zip(rows, cols, vals)],
        },
        "constraints": constraints,
    }


@pytest.mark.parametrize("name", SPECS)
def test_build_bqp_equals_whole_json_dump(tmp_path, sizes, name):
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


def _peak(export) -> int:
    tracemalloc.start()
    try:
        export()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _write_peak(qubo, path) -> int:
    return _peak(lambda: write_qubo_text(qubo, path))


def test_streamed_write_memory_does_not_grow_with_T(tmp_path):
    short = build_qubo(synthetic_spec(n=40, T=4, seed=1))
    long = build_qubo(synthetic_spec(n=40, T=16, seed=1))
    peaks = [_write_peak(qubo, tmp_path / "q.qubo") for qubo in (short, long)]
    assert max(peaks) <= 1.5 * min(peaks), peaks


def test_streamed_write_memory_does_not_grow_with_the_step_width(tmp_path):
    """A band holds about _BAND_BYTES whatever the step width, so past one band a step
    forming and extracting the bands holds about as much at any w: whole (w, w) tables
    would make it grow as w^2, bands of a fixed row count as w.  The writer adds its
    step's table of value texts, 32 bytes a distinct value, which does grow.  Measured
    above the BlockQubo at w = 250 and 970: bands 1.81 and 2.16 MB, the write 3.07 and
    4.29 MB (26,264 distinct values a step at 970; bands of 256 rows gave 6.60 and
    18.85 MB)."""
    narrow = build_qubo(synthetic_spec(n=40, T=2, seed=1))
    wide = build_qubo(synthetic_spec(n=160, T=2, seed=1))
    widths = [qubo.wp.shape[1] for qubo in (narrow, wide)]
    assert qubo_module._band_rows(widths[0]) == widths[0], widths  # one band a step
    assert qubo_module._band_rows(widths[1]) < widths[1] // 8, widths  # many bands a step
    bands = [_peak(lambda: sum(1 for _ in qubo_module._sparse_bands(qubo)))
             for qubo in (narrow, wide)]
    assert bands[1] <= 1.25 * bands[0], (bands, widths)
    peaks = [_write_peak(qubo, tmp_path / "q.qubo") for qubo in (narrow, wide)]
    assert peaks[1] <= 1.5 * peaks[0], (peaks, widths)


def test_writer_working_set_is_bounded_by_the_chunk(tmp_path, monkeypatch):
    """Above its BlockQubo and the peak of forming the same bands, writing an export of
    12 chunks holds less than 128 bytes a chunk line: one record buffer and a piece's
    temporaries.  Measured: 116 bytes a line (16,384-line chunks, 189,306 terms)."""
    monkeypatch.setattr(qubo_module, "_CHUNK_LINES", 1 << 14)
    qubo = build_qubo(synthetic_spec(n=40, T=6, seed=1))
    tracemalloc.start()
    try:
        terms = qubo_module._checked_count(qubo)[0]  # forms the kernel and every band
        tracemalloc.reset_peak()
        qubo_module._checked_count(qubo)
        band_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        write_qubo_text(qubo, tmp_path / "q.qubo")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms > 11 * qubo_module._CHUNK_LINES
    assert peak - band_peak < 128 * qubo_module._CHUNK_LINES, (peak, band_peak)


QUANTUM_NAMES = ["AnnealSchedule", "DiagonalCost", "QaoaParams", "QuantumSimError",
                 "anneal_run", "diagonalize_cost", "normalize_ising", "qaoa_optimize",
                 "qaoa_run"]


def _fresh_python(code: str) -> str:
    """Stdout of code run in a new interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qubofolio.__file__))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


@pytest.mark.parametrize("module", ["qubofolio", "qubofolio.cli", "qubofolio.quantum"])
def test_import_leaves_scipy_unloaded(module):
    out = _fresh_python(f"import sys, {module}\n"
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_qaoa_optimize_leaves_scipy_optimize_unloaded():
    out = _fresh_python("import sys\n"
                        "from qubofolio.quantum import qaoa_optimize\n"
                        "from qubofolio.qubo import to_ising\n"
                        "from qubofolio.toy import random_sparse_qubo\n"
                        "qaoa_optimize(to_ising(random_sparse_qubo(3, seed=1)), layers=1,"
                        " restarts=1, maxiter=20)\n"
                        "print('scipy.optimize' in sys.modules)")
    assert out.strip() == "False"


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
