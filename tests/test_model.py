"""Variable layout, the count view at the bit boundary, and spec (de)serialization."""
import dataclasses
import functools
import json

import numpy as np
import pytest

from qubofolio.market_data import BlockPrices, CovarianceSeries
from qubofolio.model import (
    FrictionParams,
    ModelError,
    ProblemSpec,
    Trajectory,
    constraint_residuals,
    decode_assignment,
    encode_assignment,
    VariableLayout,
    is_feasible,
    spec_from_json,
    spec_to_json,
)
from qubofolio.toy import cash_only_bits, synthetic_spec, toy_spec


def test_layout_counts_experiment_sizes():
    # T * (2kn + floor(log2 B) + 1 + floor(log2 C) + 1)
    assert VariableLayout(n=200, T=10, k=3, B=60, C=10).total == 12_100
    assert VariableLayout(n=499, T=15, k=3, B=60, C=10).total == 45_060


def test_layout_counts_minimal():
    lay = VariableLayout(n=1, T=1, k=1, B=1, C=1)
    # 2 trading bits + 1 asset slack + 1 cash slack
    assert lay.total == 4
    assert lay.nb == 1 and lay.nc == 1


def test_layout_slack_widths():
    lay = VariableLayout(n=2, T=3, k=2, B=60, C=10)
    assert lay.nb == 6  # floor(log2 60) + 1
    assert lay.nc == 4  # floor(log2 10) + 1
    assert lay.step_width == 2 * 4 + 6 + 4
    assert lay.total == 3 * lay.step_width


def test_layout_rejects_bad_parameters():
    with pytest.raises(ModelError):
        VariableLayout(n=0, T=1, k=1, B=1, C=1)
    with pytest.raises(ModelError):
        VariableLayout(n=1, T=1, k=1, B=2, C=3)  # C > B


@pytest.mark.parametrize("value", [2, 0.5, 256, -1])
def test_assignment_readers_reject_entries_other_than_zero_and_one(value):
    spec = toy_spec(n=2, T=2, seed=1)
    bits = cash_only_bits(spec).astype(float)
    bits[0] = value
    for reader in (constraint_residuals, decode_assignment, is_feasible):
        with pytest.raises(ModelError, match="0 or 1"):
            reader(spec, bits)
    assert constraint_residuals(spec, cash_only_bits(spec).astype(bool)).tolist() == [[0, 0]] * 2


def test_friction_params_validation():
    with pytest.raises(ModelError):
        FrictionParams(q=-1.0, delta=0.0, rho_c=0.0, rho_s=0.0, u=1.0)
    with pytest.raises(ModelError):
        FrictionParams(q=0.0, delta=0.0, rho_c=0.0, rho_s=0.0, u=0.0)
    with pytest.raises(ModelError):
        FrictionParams(q=0.0, delta=0.0, rho_c=0.0, rho_s=0.0, u=1.0, P=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["q", "delta", "rho_c", "rho_s", "u", "P"])
def test_friction_params_reject_non_finite(name, value):
    fields = dict(q=0.0, delta=0.0, rho_c=0.0, rho_s=0.0, u=1.0, P=None)
    fields[name] = value
    with pytest.raises(ModelError, match=f"{name} must be finite"):
        FrictionParams(**fields)


def test_spec_shape_validation():
    params = FrictionParams(q=0.0, delta=0.0, rho_c=0.0, rho_s=0.0, u=1.0)
    prices = BlockPrices(p=np.ones((2, 3)))
    spec = ProblemSpec(k=1, B=1, C=1, params=params, prices=prices,
                       covariances=CovarianceSeries(sigma=np.zeros((2, 2, 2))))
    assert (spec.n, spec.T) == (2, 2)
    with pytest.raises(ModelError, match=r"covariances shape \(3, 2, 2\), expected \(2, 2, 2\)"):
        ProblemSpec(k=1, B=1, C=1, params=params, prices=prices,
                    covariances=CovarianceSeries(sigma=np.zeros((3, 2, 2))))


@pytest.mark.parametrize("sizes, message", [
    (dict(k=0, B=1, C=1), "k must be >= 1"),
    (dict(k=1, B=0, C=1), "B must be >= 1"),
    (dict(k=1, B=1, C=0), "C must be >= 1"),
    (dict(k=1, B=2, C=3), "C=3 exceeds B=2"),
], ids=["zero-k", "zero-B", "zero-C", "C-above-B"])
def test_spec_checks_every_size_rule_at_construction(sizes, message):
    params = FrictionParams(q=0.0, delta=0.0, rho_c=0.0, rho_s=0.0, u=1.0)
    with pytest.raises(ModelError, match=message):
        ProblemSpec(**sizes, params=params, prices=BlockPrices(p=np.ones((2, 3))),
                    covariances=CovarianceSeries(sigma=np.zeros((2, 2, 2))))


@pytest.mark.parametrize("field, value", [("n", 3), ("T", 1)])
def test_spec_from_json_checks_n_and_T_against_inline_prices(field, value):
    doc = spec_to_json(toy_spec(n=2, T=2, seed=0))
    doc[field] = value
    with pytest.raises(ModelError, match=r"prices shape \(2, 3\), expected"):
        spec_from_json(doc)


@pytest.mark.parametrize("field", ["n", "T", "k", "B", "C"])
@pytest.mark.parametrize("value", [1.7, "2", True, None], ids=["fraction", "string", "bool", "null"])
def test_spec_from_json_rejects_sizes_that_are_not_whole_numbers(field, value):
    doc = spec_to_json(toy_spec(n=2, T=2, seed=0))
    doc[field] = value
    with pytest.raises(ModelError, match=f"{field} must be a whole number"):
        spec_from_json(doc)


@pytest.mark.parametrize("field", ["q", "delta", "rho_c", "rho_s", "u", "P"])
@pytest.mark.parametrize("value", ["0.001", True, False], ids=["string", "true", "false"])
def test_spec_from_json_reads_parameters_as_json_numbers_only(field, value):
    doc = spec_to_json(toy_spec(n=2, T=2, seed=0))
    doc[field] = value
    with pytest.raises(ModelError, match=f"{field} must be a number"):
        spec_from_json(doc)


def test_spec_from_json_accepts_integer_parameters():
    doc = {**spec_to_json(toy_spec(n=2, T=2, seed=0)), "u": 100_000, "P": 5, "q": 0}
    params = spec_from_json(doc).params
    assert (params.u, params.P, params.q) == (100_000.0, 5.0, 0.0)
    assert all(isinstance(v, float) for v in (params.u, params.P, params.q))


def test_spec_from_json_accepts_a_whole_float_size():
    doc = spec_to_json(toy_spec(n=2, T=2, B=2, seed=0))
    doc["B"] = 2.0
    spec = spec_from_json(doc)
    assert spec.B == 2 and isinstance(spec.B, int)


def test_cash_only_is_feasible_with_zero_residuals():
    spec = toy_spec(seed=0)
    bits = cash_only_bits(spec)
    res = constraint_residuals(spec, bits)
    assert np.all(res == 0)
    assert is_feasible(spec, bits)


def test_all_zero_assignment_is_infeasible():
    spec = toy_spec(seed=0)
    bits = np.zeros(spec.layout.total, dtype=np.int8)
    res = constraint_residuals(spec, bits)
    # nothing absorbs the budgets: residuals are exactly B and C
    assert np.all(res[:, 0] == spec.B)
    assert np.all(res[:, 1] == spec.C)
    assert not is_feasible(spec, bits)


def test_decode_assignment_shapes_and_content():
    spec = synthetic_spec(n=2, T=2, k=3, B=6, C=3, seed=1)
    lay = spec.layout
    x = np.zeros((lay.T, lay.step_width), dtype=np.int8)
    x[0, [0, 2]] = 1  # step 1: blocks 0 and 2 of asset 0 long
    x[1, lay.kn + lay.k + 1] = 1  # step 2: block 1 of asset 1 short
    x[0, 2 * lay.kn + np.array([0, 2])] = 1  # asset slack 1 + 4
    x[1, 2 * lay.kn + lay.nb + 1] = 1  # cash slack 2
    traj = decode_assignment(spec, x.ravel())
    assert traj.long.tolist() == [[2, 0], [0, 0]]
    assert traj.short.tolist() == [[0, 0], [0, 1]]
    assert traj.net_position.tolist() == [[2, 0], [0, -1]]
    assert traj.asset_slack.tolist() == [5, 0]
    assert traj.cash_units.tolist() == [0, 2]


def _random_counts(spec, rng) -> Trajectory:
    """Counts in 0..k, about half of them 0; each slack takes its residual when that is in
    range, so the draws mix feasible and infeasible points."""
    lay = spec.layout
    held = rng.integers(0, lay.k + 1, size=(2, lay.T, lay.n))
    long, short = held * rng.integers(0, 2, size=held.shape)
    slacks = []
    for residual, top in ((spec.B - (long + short).sum(axis=1), 2**lay.nb - 1),
                          (spec.C - (long - short).sum(axis=1), 2**lay.nc - 1)):
        in_range = (residual >= 0) & (residual <= top)
        slacks.append(np.where(in_range, residual, rng.integers(0, top + 1, size=lay.T)))
    return Trajectory(long=long, short=short, asset_slack=slacks[0], cash_units=slacks[1])


@pytest.mark.parametrize("make", [
    lambda: toy_spec(n=3, T=2, B=2, seed=3),
    lambda: synthetic_spec(n=3, T=2, k=3, B=12, C=5, seed=2),
    lambda: synthetic_spec(n=2, T=3, k=2, B=7, C=4, seed=5),
], ids=["toy", "synthetic-k3", "synthetic-k2"])
def test_decode_inverts_encode_on_random_counts(make):
    spec = make()
    rng = np.random.default_rng(11)
    feasible = []
    for _ in range(200):
        traj = _random_counts(spec, rng)
        bits = encode_assignment(spec, traj)
        assert bits.dtype == np.int8 and bits.shape == (spec.layout.total,)
        again = decode_assignment(spec, bits)
        for name in ("long", "short", "asset_slack", "cash_units"):
            assert np.array_equal(getattr(again, name), getattr(traj, name)), name
        assert np.array_equal(encode_assignment(spec, again), bits)
        feasible.append(is_feasible(spec, bits))
    assert any(feasible) and not all(feasible)


def test_encode_assignment_sets_the_first_blocks_and_binary_slacks():
    spec = synthetic_spec(n=2, T=1, k=3, B=6, C=3, seed=1)
    assert (spec.layout.nb, spec.layout.nc) == (3, 2)
    traj = Trajectory(long=np.array([[2, 0]]), short=np.array([[0, 3]]),
                      asset_slack=np.array([1]), cash_units=np.array([2]))
    long, short, asset_slack, cash = [1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1], [1, 0, 0], [0, 1]
    assert encode_assignment(spec, traj).tolist() == long + short + asset_slack + cash


@pytest.mark.parametrize("name, value, match", [
    ("long", [[4, 0], [0, 0]], r"long must be integers in 0..3 of shape \(2, 2\)"),
    ("long", [[-1, 0], [0, 0]], r"long must be integers in 0..3 of shape \(2, 2\)"),
    ("short", [[0, 0], [0, 4]], r"short must be integers in 0..3 of shape \(2, 2\)"),
    ("short", [[0, 0], [0, 1.0]], r"short must be integers in 0..3 .* got float64"),
    ("asset_slack", [8, 0], r"asset_slack must be integers in 0..7 of shape \(2,\)"),
    ("asset_slack", [0, -1], r"asset_slack must be integers in 0..7 of shape \(2,\)"),
    ("cash_units", [0, 4], r"cash_units must be integers in 0..3 of shape \(2,\)"),
    ("cash_units", [-1, 0], r"cash_units must be integers in 0..3 of shape \(2,\)"),
    ("long", [[0, 0]], r"long must be .* of shape \(2, 2\), got int64 of shape \(1, 2\)"),
    ("cash_units", [0, 0, 0], r"cash_units must be .* got int64 of shape \(3,\)"),
])
def test_encode_assignment_range_and_shape_checks(name, value, match):
    spec = synthetic_spec(n=2, T=2, k=3, B=6, C=3, seed=1)  # slacks 0..7 and 0..3
    none = np.zeros((2, 2), dtype=np.int64)
    fields = dict(long=none, short=none, asset_slack=np.array([6, 6]), cash_units=np.array([3, 3]))
    assert is_feasible(spec, encode_assignment(spec, Trajectory(**fields)))
    fields[name] = np.array(value)
    with pytest.raises(ModelError, match=match):
        encode_assignment(spec, Trajectory(**fields))


def _cash_only_reference(spec) -> np.ndarray:
    """The all-cash bits set one slack bit at a time from the flat layout."""
    lay = spec.layout
    bits = np.zeros(lay.total, dtype=np.int8)
    for t in range(lay.T):
        first = t * lay.step_width + 2 * lay.kn
        for b in range(lay.nb):
            bits[first + b] = (spec.B >> b) & 1
        for c in range(lay.nc):
            bits[first + lay.nb + c] = (spec.C >> c) & 1
    return bits


@pytest.mark.parametrize("make", [*(functools.partial(toy_spec, n=3, T=2, B=1 + seed % 3, seed=seed)
                                    for seed in range(20)),
                                  lambda: synthetic_spec(200, 10, seed=1),
                                  lambda: synthetic_spec(499, 15, seed=1)],
                         ids=[*(f"toy-{seed}" for seed in range(20)), "exp1", "exp2"])
def test_cash_only_bits_equal_the_per_bit_reference(make):
    spec = make()
    bits = cash_only_bits(spec)
    assert bits.dtype == np.int8 and bits.tobytes() == _cash_only_reference(spec).tobytes()
    traj = decode_assignment(spec, bits)
    assert not traj.long.any() and not traj.short.any()
    assert (traj.asset_slack == spec.B).all() and (traj.cash_units == spec.C).all()


def test_spec_json_roundtrip():
    spec = toy_spec(n=2, T=2, seed=4)
    doc = spec_to_json(spec)
    again = spec_from_json(doc)
    assert again.n == spec.n and again.T == spec.T
    assert np.allclose(again.prices.p, spec.prices.p)
    assert np.allclose(again.covariances.sigma, spec.covariances.sigma)
    assert again.params == spec.params
    assert again.signed_risk == spec.signed_risk


def test_spec_from_json_file(tmp_path):
    spec = toy_spec(seed=2)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    again = spec_from_json(str(path))
    assert again.layout.total == spec.layout.total


def test_spec_from_json_rejects_missing_fields():
    doc = spec_to_json(toy_spec(seed=0))
    del doc["prices"]
    with pytest.raises(ModelError):
        spec_from_json(doc)


def test_assignment_length_checked():
    spec = toy_spec(seed=0)
    with pytest.raises(ModelError):
        constraint_residuals(spec, np.zeros(3, dtype=np.int8))


def test_layout_is_built_once_and_replace_rebuilds_an_equal_one():
    spec = toy_spec(n=3, T=2, B=2, seed=4)
    assert spec.layout is spec.layout
    copy = dataclasses.replace(spec, params=dataclasses.replace(spec.params, q=1.0))
    a, b = spec.layout, copy.layout
    assert repr(a) == repr(b)
    for name in ("asset_of", "tau_of", "slack_weight"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
