"""Variable layout, encoding bijection, and spec (de)serialization."""
import dataclasses
import json

import numpy as np
import pytest

from qubofolio.market_data import BlockPrices, CovarianceSeries
from qubofolio.model import (
    ASSET_SLACK,
    CASH_SLACK,
    LONG,
    SHORT,
    FrictionParams,
    ModelError,
    ProblemSpec,
    constraint_residuals,
    decode,
    decode_assignment,
    encode,
    encode_slack,
    is_feasible,
    layout,
    spec_from_json,
    spec_to_json,
)
from qubofolio.toy import cash_only_bits, toy_spec


def test_layout_counts_experiment_sizes():
    # T * (2kn + floor(log2 B) + 1 + floor(log2 C) + 1)
    assert layout(200, 10, 3, 60, 10).total == 12_100
    assert layout(499, 15, 3, 60, 10).total == 45_060


def test_layout_counts_minimal():
    lay = layout(1, 1, 1, 1, 1)
    # 2 trading bits + 1 asset slack + 1 cash slack
    assert lay.total == 4
    assert lay.nb == 1 and lay.nc == 1


def test_layout_slack_widths():
    lay = layout(2, 3, 2, 60, 10)
    assert lay.nb == 6  # floor(log2 60) + 1
    assert lay.nc == 4  # floor(log2 10) + 1
    assert lay.step_width == 2 * 4 + 6 + 4
    assert lay.total == 3 * lay.step_width


def test_layout_rejects_bad_parameters():
    with pytest.raises(ModelError):
        layout(0, 1, 1, 1, 1)
    with pytest.raises(ModelError):
        layout(1, 1, 1, 2, 3)  # C > B


def test_encode_decode_bijection():
    lay = layout(3, 2, 2, 5, 3)
    seen = set()
    for t in range(1, lay.T + 1):
        for asset in range(lay.n):
            for block in range(lay.k):
                for direction in (LONG, SHORT):
                    idx = encode(lay, t, asset, block, direction)
                    role = decode(lay, idx)
                    assert (role.kind, role.t, role.asset, role.block) == (
                        direction, t, asset, block)
                    seen.add(idx)
        for bit in range(lay.nb):
            idx = encode_slack(lay, t, ASSET_SLACK, bit)
            role = decode(lay, idx)
            assert (role.kind, role.t, role.bit) == (ASSET_SLACK, t, bit)
            seen.add(idx)
        for bit in range(lay.nc):
            idx = encode_slack(lay, t, CASH_SLACK, bit)
            role = decode(lay, idx)
            assert (role.kind, role.t, role.bit) == (CASH_SLACK, t, bit)
            seen.add(idx)
    assert seen == set(range(lay.total))


def test_encode_range_checks():
    lay = layout(2, 2, 1, 1, 1)
    with pytest.raises(ModelError):
        encode(lay, 3, 0, 0, LONG)
    with pytest.raises(ModelError):
        encode(lay, 1, 2, 0, LONG)
    with pytest.raises(ModelError):
        encode_slack(lay, 1, ASSET_SLACK, lay.nb)
    with pytest.raises(ModelError):
        decode(lay, lay.total)


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
    spec = toy_spec(n=2, T=2, seed=1)
    lay = spec.layout
    bits = np.zeros(lay.total, dtype=np.int8)
    bits[encode(lay, 1, 0, 0, LONG)] = 1
    bits[encode(lay, 2, 1, 0, SHORT)] = 1
    traj = decode_assignment(spec, bits)
    assert traj.long_blocks.shape == (2, 2, 1)
    assert traj.long_blocks[0, 0, 0] == 1
    assert traj.short_blocks[1, 1, 0] == 1
    assert traj.net_position[0, 0] == 1
    assert traj.net_position[1, 1] == -1


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
