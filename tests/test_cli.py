"""End-to-end CLI: subcommands, file formats, determinism, exit codes."""
import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qubofolio.cli import main
from qubofolio.model import spec_to_json
from qubofolio.qubo import (build_qubo, read_qubo_text, to_ising, to_sparse, write_ising_text,
                            write_qubo_text)
from qubofolio.solvers import SolveReport
from qubofolio.toy import random_sparse_qubo, toy_spec, write_price_csv


def run(*argv):
    return main(list(argv))


@pytest.fixture
def toy_qubo(tmp_path):
    path = tmp_path / "toy.qubo"
    assert run("build", "--toy", "--out", str(path)) == 0
    return path


def test_build_toy_header_declares_twelve_variables(toy_qubo):
    header = toy_qubo.read_text().splitlines()[0].split()
    assert header[:3] == ["p", "qubo", "12"]


def test_build_minimal_config_header(tmp_path):
    spec = toy_spec(n=1, T=1, seed=0)
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(spec_to_json(spec)))
    out = tmp_path / "tiny.qubo"
    assert run("build", "--config", str(config), "--out", str(out)) == 0
    assert out.read_text().splitlines()[0].split()[:3] == ["p", "qubo", "4"]


def test_build_roundtrip_parse_serialize_fixpoint(tmp_path, toy_qubo):
    parsed = read_qubo_text(toy_qubo)
    again = tmp_path / "again.qubo"
    write_qubo_text(parsed, again)
    assert toy_qubo.read_bytes() == again.read_bytes()


def test_build_writes_ising_and_bqp(tmp_path):
    out = tmp_path / "toy.qubo"
    assert run("build", "--toy", "--out", str(out), "--ising", "--bqp") == 0
    ising_lines = (tmp_path / "toy.qubo.ising").read_text().splitlines()
    assert ising_lines[0].startswith("p ising 12 ")
    bqp = json.loads((tmp_path / "toy.qubo.bqp.json").read_text())
    assert bqp["objective"]["num_vars"] == 12
    assert len(bqp["constraints"]) == 2 * 2  # two rows per step


def test_build_invalid_spec_exits_2(tmp_path):
    config = tmp_path / "bad.json"
    doc = spec_to_json(toy_spec(seed=0))
    doc["C"] = doc["B"] + 1  # violates C <= B
    config.write_text(json.dumps(doc))
    assert run("build", "--config", str(config), "--out", str(tmp_path / "x.qubo")) == 2


@pytest.mark.parametrize("path, value", [
    (("covariances", 0, 0, 1), float("nan")),
    (("prices", 0, 1), float("inf")),
    (("delta",), float("nan")),
], ids=["nan-covariance", "inf-price", "nan-delta"])
def test_build_non_finite_spec_exits_2(tmp_path, capsys, path, value):
    doc = spec_to_json(toy_spec(n=2, T=2, seed=0))
    *outer, last = path
    entry = doc
    for key in outer:
        entry = entry[key]
    entry[last] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))  # NaN and Infinity, which json.load reads back
    out = tmp_path / "x.qubo"
    assert run("build", "--config", str(config), "--out", str(out)) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_build_non_finite_close_exits_2(tmp_path, capsys):
    n, T, window = 3, 2, 5
    dates = [dt.date(2024, 1, 1) + dt.timedelta(days=i) for i in range(window + T + 1)]
    close = 100.0 + np.arange(n * len(dates), dtype=float).reshape(n, len(dates))
    close[1, 1] = np.inf  # a covariance-window date, before the block-price window
    write_price_csv(tmp_path / "prices.csv", ["A", "B", "C"], dates, close)
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(dict(n=n, T=T, k=1, B=3, C=2, q=0.01, delta=0.001, rho_c=0.0,
                                      rho_s=0.0, u=1000.0, cov_window=window,
                                      price_csv=str(tmp_path / "prices.csv"))))
    assert run("build", "--config", str(config), "--out", str(tmp_path / "x.qubo")) == 2
    assert "non-finite close" in capsys.readouterr().err


def test_build_bad_json_exits_4(tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    assert run("build", "--config", str(config), "--out", str(tmp_path / "x.qubo")) == 4


def test_solve_exact_lower_bound_equals_best(tmp_path, toy_qubo):
    out = tmp_path / "report.json"
    assert run("solve", "--qubo", str(toy_qubo), "--solver", "exact",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["lower_bound"] == doc["best_energy"]
    assert doc["solver"] == "exact"


def test_solve_abs_matches_exact(tmp_path, toy_qubo):
    exact = tmp_path / "exact.json"
    approx = tmp_path / "abs.json"
    run("solve", "--qubo", str(toy_qubo), "--solver", "exact", "--out", str(exact))
    assert run("solve", "--qubo", str(toy_qubo), "--solver", "abs",
               "--time-limit", "5", "--max-iterations", "300",
               "--out", str(approx)) == 0
    e = json.loads(exact.read_text())["best_energy"]
    a = json.loads(approx.read_text())["best_energy"]
    assert a == pytest.approx(e, abs=1e-9)


def test_solve_is_deterministic_across_runs(tmp_path, toy_qubo):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert run("solve", "--qubo", str(toy_qubo), "--solver", "sa",
                   "--seed", "9", "--max-iterations", "20000",
                   "--out", str(out)) == 0
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    assert a["best_energy"] == b["best_energy"]
    assert a["bits"] == b["bits"]


def test_solve_cap_violation_exits_3(tmp_path):
    big = tmp_path / "big.qubo"
    write_qubo_text(random_sparse_qubo(28, seed=0), big)
    assert run("solve", "--qubo", str(big), "--solver", "exact",
               "--out", str(tmp_path / "r.json")) == 3


def test_solve_unparseable_exits_4(tmp_path):
    bad = tmp_path / "garbage.qubo"
    bad.write_text("this is not a qubo\n")
    assert run("solve", "--qubo", str(bad), "--solver", "exact",
               "--out", str(tmp_path / "r.json")) == 4


@pytest.mark.parametrize("argv", [
    ["solve", "--solver", "abs"], ["solve", "--solver", "bnb"], ["solve", "--solver", "exact"],
    ["solve", "--solver", "sa"], ["quantum", "--algo", "anneal"], ["quantum", "--algo", "qaoa"],
    ["quantum", "--algo", "vqe"]], ids=lambda argv: argv[-1])
def test_zero_variable_file_gives_the_empty_assignment_at_the_offset(tmp_path, argv):
    qubo, out = tmp_path / "zero.qubo", tmp_path / "r.json"
    qubo.write_text("p qubo 0 0 1.5\n")
    assert run(*argv, "--qubo", str(qubo), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    if argv[0] == "solve":
        assert doc["best_energy"] == 1.5 and doc["bits"] == ""
    else:
        assert doc["qubits"] == 0 and doc["ground_energy"] == 1.5
        assert doc["expectation"] == pytest.approx(1.5, rel=1e-12)
        assert doc["best_bits"] == ""  # 0 qubits spell the empty state, as solve does
        assert doc["samples_hist"] == ({} if argv[-1] == "vqe" else {"": 1024})


@pytest.mark.parametrize("solver", ["abs", "bnb", "sa", "exact"])
def test_a_file_whose_energies_overflow_exits_3(tmp_path, solver):
    """Finite values whose energies overflow hit the magnitude cap at once, in a fresh process.

    Before the cap, abs and bnb descended on NaN deltas with no end and sa found no energy.
    """
    path = tmp_path / "huge.qubo"
    path.write_text("p qubo 2 3 0.0\n0 0 1e308\n0 1 1e308\n1 1 1e308\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "qubofolio.cli", "solve", "--qubo", str(path),
                           "--solver", solver, "--time-limit", "5",
                           "--out", str(tmp_path / "r.json")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: magnitude cap") and "Traceback" not in proc.stderr
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("kind,argv", [
    ("qubo", ["quantum", "--algo", "anneal"]), ("qubo", ["quantum", "--algo", "qaoa"]),
    ("qubo", ["quantum", "--algo", "vqe"]), ("qubo", ["solve", "--solver", "sa"]),
    ("ising", ["quantum", "--algo", "anneal"])],
    ids=["anneal", "qaoa", "vqe", "sa", "ising-anneal"])
def test_a_file_whose_repeated_terms_overflow_exits_3(tmp_path, capsys, kind, argv):
    """Two finite terms that sum to inf reached the simulator as NaN and crashed it.

    The sum and the scaling warn nothing, so stderr is the one error line.
    """
    path = tmp_path / f"repeated.{kind}"
    path.write_text(f"p {kind} 2 3 0.0\n0 0 1e308\n0 0 1e308\n1 1 1.0\n")
    assert run(*argv, "--qubo", str(path), "--out", str(tmp_path / "r.json")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: magnitude cap") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_quantum_anneal_two_qubits(tmp_path):
    qubo = tmp_path / "two.qubo"
    write_qubo_text(random_sparse_qubo(2, seed=3), qubo)
    out = tmp_path / "anneal.json"
    assert run("quantum", "--qubo", str(qubo), "--algo", "anneal",
               "--tau", "50", "--dt", "0.01", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["ground_probability"] >= 0.99


def test_quantum_qaoa_zero_layers_uniform(tmp_path):
    qubo = tmp_path / "four.qubo"
    sq = random_sparse_qubo(4, seed=5)
    write_qubo_text(sq, qubo)
    out = tmp_path / "qaoa.json"
    assert run("quantum", "--qubo", str(qubo), "--algo", "qaoa",
               "--layers", "0", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    from qubofolio.quantum import diagonalize_cost, normalize_ising
    from qubofolio.qubo import to_ising

    scaled, scale = normalize_ising(to_ising(sq))
    mean_e = float(diagonalize_cost(scaled).energies.mean()) * scale
    assert doc["expectation"] == pytest.approx(mean_e, rel=1e-9)


def test_quantum_vqe_zero_layers_runs_the_start_state(tmp_path):
    """VQE's start state is |0...0>: no angles, and the energy of basis state 0."""
    qubo = tmp_path / "four.qubo"
    sq = random_sparse_qubo(4, seed=5)
    write_qubo_text(sq, qubo)
    out = tmp_path / "vqe.json"
    assert run("quantum", "--qubo", str(qubo), "--algo", "vqe",
               "--layers", "0", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    from qubofolio.quantum import diagonalize_cost, normalize_ising

    scaled, scale = normalize_ising(to_ising(sq))
    assert doc["params"] == {"layers": 0, "theta": []}
    assert doc["expectation"] == float(diagonalize_cost(scaled).energies[0]) * scale
    assert doc["best_bits"] == "0000"


def test_quantum_toy_anneal_agrees_with_exact(tmp_path, toy_qubo):
    exact = tmp_path / "exact.json"
    run("solve", "--qubo", str(toy_qubo), "--solver", "exact", "--out", str(exact))
    out = tmp_path / "anneal.json"
    assert run("quantum", "--qubo", str(toy_qubo), "--algo", "anneal",
               "--tau", "50", "--dt", "0.01", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    from qubofolio.qubo import dense_energies, to_dense
    from qubofolio.solvers import rle_decode

    A, off = to_dense(read_qubo_text(toy_qubo))
    bits = np.array([int(c) for c in doc["best_bits"]], dtype=float)
    anneal_e = float(dense_energies(A, off, bits[None, :])[0])
    exact_e = json.loads(exact.read_text())["best_energy"]
    assert anneal_e == pytest.approx(exact_e, rel=1e-9)


def test_quantum_cap_exceeded_exits_3(tmp_path):
    qubo = tmp_path / "twenty-one.qubo"
    write_qubo_text(random_sparse_qubo(21, seed=0), qubo)
    assert run("quantum", "--qubo", str(qubo), "--algo", "anneal",
               "--out", str(tmp_path / "r.json")) == 3


@pytest.mark.parametrize("kind", ["qubo", "ising"])
def test_quantum_huge_header_exits_3(tmp_path, capsys, kind):
    path = tmp_path / f"huge.{kind}"
    path.write_text(f"p {kind} 1000000000000 0 0.0\n")
    assert run("quantum", "--qubo", str(path), "--algo", "anneal",
               "--out", str(tmp_path / "r.json")) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["solve", "--solver", "sa", "--max-iterations", "0"],
    ["solve", "--solver", "bnb", "--max-iterations", "0"],
    ["solve", "--solver", "abs", "--max-iterations", "0"],
    ["solve", "--solver", "abs", "--max-iterations", "-5"],
    ["solve", "--time-limit", "0"],
    ["sweep", "--time-limit", "0"],
    ["sweep", "--max-iterations", "0"],
], ids=["sa-zero-iterations", "bnb-zero-iterations", "abs-zero-iterations",
        "negative-iterations", "solve-zero-time", "sweep-zero-time", "sweep-zero-iterations"])
def test_non_positive_budget_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--toy", "--out", str(tmp_path / "r.out"))
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(f"must be positive, got {argv[-1]!r}")


@pytest.mark.parametrize("argv, what", [
    (["--algo", "anneal", "--shots", "-5"], "non-negative"),
    (["--algo", "qaoa", "--layers", "-1"], "non-negative"),
    (["--algo", "vqe", "--layers", "-3"], "non-negative"),
    (["--algo", "anneal", "--tau", "-1"], "positive and finite"),
    (["--algo", "anneal", "--dt", "0"], "positive and finite"),
    (["--algo", "anneal", "--tau", "inf"], "positive and finite"),
    (["--algo", "anneal", "--dt", "inf"], "positive and finite"),
], ids=["negative-shots", "qaoa-negative-layers", "vqe-negative-layers",
        "negative-tau", "zero-dt", "infinite-tau", "infinite-dt"])
def test_quantum_invalid_flag_exits_2(tmp_path, capsys, argv, what):
    with pytest.raises(SystemExit) as exc:
        run("quantum", *argv, "--toy", "--out", str(tmp_path / "r.json"))
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(f"must be {what}, got {argv[-1]!r}")
    assert not (tmp_path / "r.json").exists()


def test_quantum_anneal_step_not_below_tau_exits_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run("quantum", "--toy", "--algo", "anneal", "--tau", "0.01", "--dt", "0.02",
               "--out", str(out)) == 2
    assert "--dt 0.02 must be smaller than --tau 0.01" in capsys.readouterr().err
    assert not out.exists()


def test_quantum_vqe_writes_its_restart_trace_in_model_units(tmp_path):
    out = tmp_path / "vqe.json"
    assert run("quantum", "--toy", "--algo", "vqe", "--layers", "1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert min(doc["restart_trace"]) == doc["expectation"]
    assert abs(doc["expectation"]) > 1.0  # the normalized model is O(1); the toy's is currency


def test_sweep_toy_default_grid(tmp_path):
    out = tmp_path / "pareto.csv"
    assert run("sweep", "--toy", "--solver", "exact", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q,solver,objective,lower_bound,gap_pct,tts_s,profit,risk_term"
    assert len(lines) == 9  # header + the eight standard q values


def test_sweep_passes_its_budget_to_sweep_q(tmp_path, monkeypatch):
    from qubofolio import cli
    from qubofolio.evaluation import sweep_q

    budgets = []

    def recording_sweep(spec, q_list, solver, budget):
        budgets.append(budget)
        return sweep_q(spec, q_list, solver, budget)

    monkeypatch.setattr(cli, "sweep_q", recording_sweep)
    out = tmp_path / "pareto.csv"
    assert run("sweep", "--toy", "--solver", "abs", "--q", "0,1e-3", "--max-iterations", "3",
               "--time-limit", "30", "--seed", "4", "--out", str(out)) == 0
    [budget] = budgets
    assert (budget.max_iterations, budget.time_limit, budget.seed) == (3, 30.0, 4)
    assert len(out.read_text().splitlines()) == 3


def test_sweep_all_failed_exits_5(tmp_path):
    # 46-variable instance: every exact row hits the enumeration cap
    spec = toy_spec(n=3, T=2, seed=0)
    doc = spec_to_json(spec)
    doc["k"] = 3
    doc["B"] = 4
    doc["C"] = 2
    config = tmp_path / "big.json"
    config.write_text(json.dumps(doc))
    assert run("sweep", "--config", str(config), "--solver", "exact",
               "--q", "0.0,1e-4", "--out", str(tmp_path / "p.csv")) == 5


def test_report_prints_breakdown_and_writes_metrics(tmp_path, toy_qubo, capsys):
    solution = tmp_path / "exact.json"
    run("solve", "--qubo", str(toy_qubo), "--solver", "exact", "--out", str(solution))
    metrics_path = tmp_path / "metrics.json"
    assert run("report", "--solution", str(solution), "--toy",
               "--out", str(metrics_path)) == 0
    printed = capsys.readouterr().out
    assert "cash_interest" in printed
    assert "feasible: True" in printed
    doc = json.loads(metrics_path.read_text())
    assert doc["feasible"] is True
    assert "objective_breakdown" in doc


def test_report_layout_mismatch_exits_6(tmp_path, toy_qubo):
    solution = tmp_path / "exact.json"
    run("solve", "--qubo", str(toy_qubo), "--solver", "exact", "--out", str(solution))
    # toy with n=3 has a 16-variable layout, not 12
    assert run("report", "--solution", str(solution), "--toy", "--toy-n", "3") == 6


@pytest.mark.parametrize("command", [["solve", "--solver", "exact"], ["quantum", "--algo", "anneal"]])
def test_missing_qubo_file_exits_4(tmp_path, command):
    assert run(*command, "--qubo", str(tmp_path / "missing.qubo"),
               "--out", str(tmp_path / "r.json")) == 4


@pytest.mark.parametrize("content", [
    b"p qubo 2 -1 0.0\n",
    b"p qubo 2 100000000000000 0.0\n",
    b"p qubo 2 1 0.0\n0 0 1.0\n1 1 -5.0\n",
    b"p qubo 2 1 0.0\n0 0 nan\n",
    b"p qubo 2 1 inf\n0 0 1.0\n",
    b"\xff\xfe\n",
    b"p qubo 2 1 0.0\n0 1 2.0 junk\n",
], ids=["negative-count", "count-beyond-file", "extra-term", "nan-value", "inf-offset",
        "not-utf8", "extra-field"])
def test_malformed_qubo_file_exits_4(tmp_path, content):
    path = tmp_path / "bad.qubo"
    path.write_bytes(content)
    assert run("solve", "--qubo", str(path), "--solver", "exact",
               "--out", str(tmp_path / "r.json")) == 4


def _solution_file(tmp_path, doc):
    """`report` on the toy with `doc` as its solution file."""
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(doc))
    return ["report", "--toy", "--solution", str(path)]


def _solution_with_bits(tmp_path, bits):
    """`report` on the toy with a solution file whose run-length bits are `bits`."""
    doc = SolveReport(best=np.zeros(12, dtype=np.int8), best_energy=0.0, lower_bound=None,
                      trace=[], iterations=0, solver_name="exact", seed=0).to_json()
    return _solution_file(tmp_path, {**doc, "bits": bits})


def _config_bytes(tmp_path, data: bytes):
    """`build` from a config file holding `data`."""
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    return ["build", "--config", str(path), "--out", str(tmp_path / "out.qubo")]


def _config_with(tmp_path, **fields):
    """`build` from the toy's spec JSON with `fields` overridden."""
    doc = {**spec_to_json(toy_spec(seed=0)), **fields}
    return _config_bytes(tmp_path, json.dumps(doc).encode())


def _csv_config_with(tmp_path, **fields):
    """`build` from a three-asset price CSV config with `fields` added."""
    n, T, window = 3, 2, 5
    dates = [dt.date(2024, 1, 1) + dt.timedelta(days=i) for i in range(window + T + 1)]
    close = 100.0 + np.arange(n * len(dates), dtype=float).reshape(n, len(dates)) ** 1.5
    write_price_csv(tmp_path / "prices.csv", ["A", "B", "C"], dates, close)
    doc = dict(n=n, T=T, k=1, B=3, C=2, q=0.01, delta=0.001, rho_c=0.0, rho_s=0.0, u=1000.0,
               cov_window=window, price_csv=str(tmp_path / "prices.csv"), **fields)
    return _config_bytes(tmp_path, json.dumps(doc).encode())


def _csv_config_not_utf8(tmp_path):
    """`build` from the three-asset price CSV config with a Latin-1 ticker row appended."""
    argv = _csv_config_with(tmp_path)
    with open(tmp_path / "prices.csv", "ab") as fh:
        fh.write(b"2024-01-01,\xe9,100.0\n")
    return argv


def _csv_config_with_repeated_row(tmp_path):
    """`build` from the three-asset price CSV config with its first row given again."""
    argv = _csv_config_with(tmp_path)
    csv_path = tmp_path / "prices.csv"
    first_row = csv_path.read_text().splitlines()[1]
    with open(csv_path, "a", encoding="utf-8") as fh:
        fh.write(first_row + "\n")
    return argv


def _solve_an_ising_file(tmp_path):
    """`solve` given the toy's Ising export, which it does not take."""
    path = tmp_path / "toy.ising"
    write_ising_text(to_ising(build_qubo(toy_spec())), path)
    return ["solve", "--qubo", str(path), "--out", str(tmp_path / "out.qubo")]


def _csv_config_with_inline_arrays(tmp_path):
    """`build` from the price CSV config that also carries inline arrays of the same shape."""
    doc = spec_to_json(toy_spec(n=3, T=2, seed=0))
    return _csv_config_with(tmp_path, prices=doc["prices"], covariances=doc["covariances"])


@pytest.mark.parametrize("flags", [{}, {"raw_prices": False}, {"raw_prices": True},
                                   {"signed_risk": False}, {"signed_risk": True}])
def test_json_flags_accept_true_false_and_absent(tmp_path, flags):
    assert run(*_csv_config_with(tmp_path, **flags)) == 0


@pytest.mark.parametrize("code, argv", [
    (4, lambda tmp: ["sweep", "--toy", "--q", "1e-3,1e-3", "--out", str(tmp / "p.csv")]),
    (4, lambda tmp: ["sweep", "--toy", "--q", ",", "--out", str(tmp / "p.csv")]),
    (4, lambda tmp: ["sweep", "--toy", "--q", "abc", "--out", str(tmp / "p.csv")]),
    (2, lambda tmp: ["sweep", "--toy", "--q", "1e-3,nan", "--out", str(tmp / "p.csv")]),
    (4, _solve_an_ising_file),
    (2, lambda tmp: ["build", "--toy", "--toy-n", "4", "--out", str(tmp / "out.qubo")]),
    (2, lambda tmp: ["build", "--toy", "--toy-t", "0", "--out", str(tmp / "out.qubo")]),
    # 10^14 bits: decoding them would need 91 TiB
    (6, lambda tmp: _solution_with_bits(tmp, "0x100000000000000")),
    (4, lambda tmp: _solution_with_bits(tmp, "0x6 2x6")),
    (4, lambda tmp: _solution_with_bits(tmp, "0x12 1x0")),
    (4, lambda tmp: _solution_with_bits(tmp, "0x-1 1x13")),
    (4, lambda tmp: _solution_with_bits(tmp, 12)),
    (4, lambda tmp: _solution_file(tmp, [])),
    (2, lambda tmp: _config_with(tmp, k=1.7, B=1.9)),
    (2, lambda tmp: _config_with(tmp, T=2.5)),
    (2, lambda tmp: _config_with(tmp, signed_risk="false")),
    (2, lambda tmp: _config_with(tmp, signed_risk=0)),
    (2, lambda tmp: _csv_config_with(tmp, raw_prices="false")),
    (2, lambda tmp: _csv_config_with(tmp, raw_prices=0)),
    (2, lambda tmp: _config_with(tmp, q=True)),
    (2, lambda tmp: _config_with(tmp, delta="0.001")),
    (2, lambda tmp: _config_with(tmp, rho_c=False)),
    (2, lambda tmp: _config_with(tmp, rho_s="0")),
    (2, lambda tmp: _config_with(tmp, u=None)),
    (2, lambda tmp: _config_with(tmp, P="1e6")),
    (2, _csv_config_with_repeated_row),
    (2, _csv_config_with_inline_arrays),
    (4, lambda tmp: ["build", "--config", str(tmp), "--out", str(tmp / "out.qubo")]),
    (4, lambda tmp: _config_bytes(tmp, b'{"n": "\xff"}')),
    (4, lambda tmp: ["report", "--toy", "--solution", str(tmp)]),
    (2, lambda tmp: _config_bytes(tmp, b"5")),
    (2, lambda tmp: _config_bytes(tmp, b"null")),
    (2, lambda tmp: _config_bytes(tmp, b'"spec"')),
    (2, _csv_config_not_utf8),
], ids=["sweep-repeated-q", "sweep-empty-q", "sweep-q-not-a-number", "sweep-nan-q",
        "solve-ising-file", "toy-n-too-large", "toy-t-zero",
        "solution-bits-beyond-memory", "solution-bit-two", "solution-empty-run",
        "solution-negative-run", "solution-bits-not-text", "solution-not-a-report",
        "fractional-k-and-B", "fractional-T", "signed-risk-string", "signed-risk-zero",
        "raw-prices-string", "raw-prices-zero", "q-bool", "delta-string", "rho-c-bool",
        "rho-s-string", "u-null", "P-string", "csv-repeated-row",
        "csv-and-inline-prices", "config-directory", "config-not-utf8", "solution-directory",
        "config-number", "config-null", "config-string", "csv-not-utf8"])
def test_bad_input_exits_with_its_documented_code(tmp_path, capsys, code, argv):
    assert run(*argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not any(tmp_path.glob("out.qubo")) and not any(tmp_path.glob("p.csv"))
