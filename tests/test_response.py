"""Response-transform tests: published table values, properties, error paths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairagg.errors import DomainError
from fairagg.response import (
    CdfFamily,
    CdfKind,
    ResponseBounds,
    _cdf_values,
    erf,
    transform_losses,
)

REFERENCE_LOSSES = np.array([0.01, 0.10, 0.02])

# Transformed responses at bounds [0, 1], rounded to 2 decimals.
REFERENCE_TABLE = {
    CdfFamily.WEIBULL: [0.05, 1.00, 0.19],
    CdfFamily.FRECHET: [0.01, 0.65, 0.11],
    CdfFamily.GUMBEL: [0.12, 0.76, 0.18],
    CdfFamily.EXPONENTIAL: [0.21, 0.90, 0.37],
    CdfFamily.LOGISTIC: [0.32, 0.79, 0.37],
    CdfFamily.NORMAL: [0.22, 0.90, 0.29],
}


def cdf_at(kind: CdfKind, x: float) -> float:
    """The CDF at one exact point, by the evaluator transform_losses uses."""
    return float(_cdf_values(kind, np.array([x], dtype=float))[0])


def test_cdf_pointwise_values():
    assert cdf_at(CdfKind(CdfFamily.EXPONENTIAL), 1.0) == pytest.approx(1 - math.exp(-1))
    assert cdf_at(CdfKind(CdfFamily.LOGISTIC), 1.0) == pytest.approx(0.5)
    assert round(cdf_at(CdfKind(CdfFamily.WEIBULL), 2.31), 2) == 1.00
    assert cdf_at(CdfKind(CdfFamily.WEIBULL), 2.31) == pytest.approx(0.9952, abs=1e-4)


def test_cdf_rejects_negative_input():
    with pytest.raises(DomainError):
        transform_losses(np.array([-0.1]), CdfKind(CdfFamily.NORMAL), ResponseBounds(0.0, 1.0))


def test_cdf_shape_defaults():
    assert CdfKind(CdfFamily.WEIBULL).shape == 2.0
    for family in (CdfFamily.FRECHET, CdfFamily.GUMBEL, CdfFamily.LOGISTIC, CdfFamily.NORMAL):
        assert CdfKind(family).shape == 1.0
    assert CdfKind(CdfFamily.EXPONENTIAL).shape is None


def test_cdf_parameter_validation():
    with pytest.raises(DomainError):
        CdfKind(CdfFamily.WEIBULL, scale=0.0)
    with pytest.raises(DomainError):
        CdfKind(CdfFamily.NORMAL, shape=-1.0)
    with pytest.raises(DomainError):
        CdfKind(CdfFamily.EXPONENTIAL, shape=2.0)


@pytest.mark.parametrize("family", list(CdfFamily))
def test_cdf_monotone_and_bounded(family):
    kind = CdfKind(family)
    xs = np.linspace(0.0, 6.0, 200)
    values = [cdf_at(kind, float(x)) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def agrees_at_2dp(value: float, printed: float) -> bool:
    # The reference table mixes print conventions (0.9951 appears as 1.00,
    # 0.2951 as 0.29), so accept a value that rounds or truncates to the
    # printed entry.
    return round(value, 2) == printed or math.floor(value * 100.0) / 100.0 == printed


@pytest.mark.parametrize("family,expected", sorted(REFERENCE_TABLE.items(), key=lambda kv: kv[0].value))
def test_reference_transform_table(family, expected):
    out = transform_losses(REFERENCE_LOSSES, CdfKind(family), ResponseBounds(0.0, 1.0))
    assert all(agrees_at_2dp(v, e) for v, e in zip(out, expected))


def test_equal_losses_collapse_to_center():
    kind = CdfKind(CdfFamily.GUMBEL)
    out = transform_losses(np.array([0.3, 0.3, 0.3]), kind, ResponseBounds(0.0, 1.0))
    np.testing.assert_allclose(out, cdf_at(kind, 1.0))


def test_all_zero_losses_score_at_ratio_one():
    # The limit of equal losses: every ratio is 1, as for any equal losses.
    bounds = ResponseBounds(0.1, 0.4)
    for family in CdfFamily:
        for n in (1, 3):
            np.testing.assert_array_equal(
                transform_losses(np.zeros(n), CdfKind(family), bounds),
                transform_losses(np.ones(n), CdfKind(family), bounds),
            )


def test_negative_losses_rejected():
    with pytest.raises(DomainError):
        transform_losses(np.array([0.1, -0.2]), CdfKind(CdfFamily.NORMAL), ResponseBounds(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=50.0), min_size=1, max_size=12),
    st.sampled_from(list(CdfFamily)),
)
def test_outputs_always_within_bounds(losses, family):
    bounds = ResponseBounds(0.1, 0.7)
    out = transform_losses(np.array(losses), CdfKind(family), bounds)
    assert np.all(out >= bounds.c1 - 1e-12)
    assert np.all(out <= bounds.c2 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=50.0), min_size=2, max_size=10),
    st.permutations(range(10)),
    st.sampled_from(list(CdfFamily)),
)
def test_permutation_equivariance(losses, perm, family):
    arr = np.array(losses)
    order = np.array([i for i in perm if i < arr.size])
    kind = CdfKind(family)
    bounds = ResponseBounds(0.0, 0.5)
    direct = transform_losses(arr[order], kind, bounds)
    permuted = transform_losses(arr, kind, bounds)[order]
    np.testing.assert_allclose(direct, permuted)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=10),
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from(list(CdfFamily)),
)
def test_scale_invariance(losses, factor, family):
    arr = np.array(losses)
    kind = CdfKind(family)
    bounds = ResponseBounds(0.0, 1.0)
    base = transform_losses(arr, kind, bounds)
    scaled = transform_losses(factor * arr, kind, bounds)
    np.testing.assert_allclose(base, scaled, atol=1e-9, rtol=1e-7)


def test_order_preservation():
    rng = np.random.default_rng(0)
    for family in CdfFamily:
        losses = rng.uniform(0.01, 5.0, size=20)
        out = transform_losses(losses, CdfKind(family), ResponseBounds(0.0, 1.0))
        order = np.argsort(losses)
        assert np.all(np.diff(out[order]) >= -1e-12)


def scalar_cdf(kind: CdfKind, x: float) -> float:
    """Reference CDF at one point, written with ``math`` and explicit guards."""
    a, b = kind.scale, kind.shape
    if kind.family is CdfFamily.WEIBULL:
        return 1.0 - math.exp(-((x / a) ** b))
    if kind.family is CdfFamily.FRECHET:
        if x == 0.0:
            return 0.0
        inner = -b * math.log(x / a)
        return 0.0 if inner > 700.0 else math.exp(-math.exp(inner))
    if kind.family is CdfFamily.GUMBEL:
        inner = -(x - a) / b
        return 0.0 if inner > 700.0 else math.exp(-math.exp(inner))
    if kind.family is CdfFamily.EXPONENTIAL:
        return 1.0 - math.exp(-a * x)
    if kind.family is CdfFamily.LOGISTIC:
        inner = -(x - a) / b
        return 0.0 if inner > 700.0 else 1.0 / (1.0 + math.exp(inner))
    return 0.5 * (1.0 + math.erf((x - a) / (b * math.sqrt(2.0))))


_LOSS = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-40, max_value=1e-30),  # ratios deep in the lower tail
    st.floats(min_value=1e-3, max_value=50.0),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_LOSS, min_size=0, max_size=12),
    st.floats(min_value=1e-3, max_value=50.0),
    st.sampled_from(list(CdfFamily)),
    st.floats(min_value=0.05, max_value=5.0),
    st.one_of(st.sampled_from([1e-3, 0.01]), st.floats(min_value=0.05, max_value=10.0)),
)
# Overflow guards: Frechet at a zero loss and far below the scale, Gumbel and
# Logistic with a tiny shape.
@example([0.0, 1e-35], 1.0, CdfFamily.FRECHET, 1.0, 10.0)
@example([0.0, 0.1], 1.0, CdfFamily.GUMBEL, 1.0, 1e-3)
@example([0.0, 0.1], 1.0, CdfFamily.LOGISTIC, 1.0, 1e-3)
def test_vectorized_transform_matches_pointwise_cdf(losses, positive, family, scale, shape):
    kind = CdfKind(family, scale, None if family is CdfFamily.EXPONENTIAL else shape)
    arr = np.array(losses + [positive])
    # On [0, 1] the response is the CDF value itself.
    out = transform_losses(arr, kind, ResponseBounds(0.0, 1.0))
    ratios = arr / arr.mean()
    few_ulp = 4 * np.finfo(float).eps
    expected = np.array([scalar_cdf(kind, float(r)) for r in ratios])
    np.testing.assert_allclose(out, expected, rtol=0.0, atol=few_ulp)
    pointwise = np.array([cdf_at(kind, float(r)) for r in ratios])
    np.testing.assert_allclose(out, pointwise, rtol=0.0, atol=few_ulp)


def test_erf_matches_math_erf():
    few_ulp = 4 * np.finfo(float).eps
    xs = np.linspace(-5.0, 5.0, 2001)
    out = erf(xs)
    assert out.shape == xs.shape and out.dtype == np.float64
    expected = np.array([math.erf(float(x)) for x in xs])
    np.testing.assert_allclose(out, expected, rtol=0.0, atol=few_ulp)
    scalar = erf(0.5)
    assert scalar.shape == () and abs(float(scalar) - math.erf(0.5)) <= few_ulp


def test_bounds_validation_and_presets():
    with pytest.raises(DomainError):
        ResponseBounds(-0.1, 0.5)
    with pytest.raises(DomainError):
        ResponseBounds(0.5, 0.5)
    assert ResponseBounds.cross_silo(10) == ResponseBounds(0.0, 0.1)
    assert ResponseBounds.cross_device(0.01) == ResponseBounds(0.0, 0.01)


@pytest.mark.parametrize("k", [0, -3])
def test_cross_silo_bounds_need_a_client(k):
    with pytest.raises(DomainError, match="at least one client"):
        ResponseBounds.cross_silo(k)

