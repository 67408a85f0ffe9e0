"""Plumbing of the cross-check battery: selection, pinned bounds, sensitivity."""

import math

import numpy as np
import pytest

from lorentzcc import (
    CHECK_NAMES,
    CheckResult,
    DivisorOfZero,
    HyperbolicNumber,
    InvalidMotion,
    MetricField,
    NoGeodesic,
    NoRealIntersection,
    PolarForm,
    SurfaceSpec,
    geodesic_family,
    inverse,
    limiting_intersections,
    polar,
    run_all,
    verify,
)


def test_check_names_are_stable():
    assert CHECK_NAMES == (
        "profile_curvature",
        "closed_form_consistency",
        "oracle_equivalence",
        "motion_invariance",
        "two_point_solver",
        "distance_benchmark",
        "limiting_orthogonality",
        "beltrami_fields",
        "worldline_invariant",
        "algebra_properties",
    )


def test_every_pinned_tolerance_is_finite_and_positive():
    # so a check that measured inf or NaN can never pass
    for name, (_, tol) in verify._CHECKS.items():
        assert 0.0 < tol < math.inf, name


def test_subset_selection_keeps_battery_order():
    results = run_all(
        seed=3, scale=0.02, names=("algebra_properties", "distance_benchmark")
    )
    assert [r.name for r in results] == ["distance_benchmark", "algebra_properties"]
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.passed for r in results)


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_all(names=("algebra_properties", "nope"))


@pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0, -1.0])
def test_scale_must_be_positive_and_finite(scale):
    # inf once overflowed in int(round(...)); 0 and -1 ran the floor workloads
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        run_all(scale=scale, names=("algebra_properties",))


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
def test_seed_must_be_a_non_negative_integer(seed, error):
    # the string-seeded streams would take either silently
    with pytest.raises(error):
        run_all(seed=seed, names=("algebra_properties",))


@pytest.mark.parametrize("name", ["def-pos", "def-neg", "lorentz-pos", "lorentz-neg"])
@pytest.mark.parametrize("eps", [0.05, 0.5, 1.2, -0.05, -0.5, -1.2])
def test_battery_u_window_lies_inside_the_family_window(name, eps):
    fam = geodesic_family(SurfaceSpec.from_name(name), eps, 0.3)
    lo, hi = verify._u_window(fam)
    w_lo, w_hi = fam.window
    assert w_lo < lo < hi < w_hi


def test_linspace_is_numpy_linspace_bit_for_bit():
    rng = np.random.default_rng(61)
    for _ in range(2000):
        lo, hi = rng.uniform(-1.0, 1.0, size=2) * 10.0 ** rng.integers(-3, 4)
        start, stop, n = float(lo), float(hi), int(rng.integers(2, 500))
        assert verify._linspace(start, stop, n) == np.linspace(start, stop, n).tolist()
    assert verify._linspace(0.3, 0.3, 5) == np.linspace(0.3, 0.3, 5).tolist()


def _no_geodesic(spec, z1, z2):
    raise NoGeodesic("no pair is joinable")


def _never_crosses(conic):
    raise NoRealIntersection("no conic meets the curve")


def _first_hit_only(conic):
    return limiting_intersections(conic)[:1]


def _lorentz_pos_crosses(conic):
    try:
        return limiting_intersections(conic)
    except NoRealIntersection:
        return []


def _accepts_null(exc_type, fn, answer):
    def lenient(z):
        try:
            return fn(z)
        except exc_type:
            return answer
    return lenient


@pytest.mark.parametrize(
    "name, attr, replacement, detail",
    [
        ("two_point_solver", "solve_two_point", _no_geodesic, "def-pos"),
        ("limiting_orthogonality", "limiting_intersections", _never_crosses,
         "unexpectedly missed the limiting curve"),
        ("limiting_orthogonality", "limiting_intersections", _first_hit_only,
         "expected 2 limiting-curve crossings, got 1"),
        ("limiting_orthogonality", "limiting_intersections", _lorentz_pos_crosses,
         "unexpectedly crossed the limiting curve at 0 points"),
        ("algebra_properties", "polar",
         _accepts_null(DivisorOfZero, polar, PolarForm(0.0, 0.0, None, 1)),
         "polar form failed to reject the null element"),
        ("algebra_properties", "inverse",
         _accepts_null(DivisorOfZero, inverse, HyperbolicNumber(0.0, 0.0)),
         "inverse failed to reject the divisor of zero"),
    ],
    ids=["no geodesic", "missed", "one crossing", "lorentz-pos crossed",
         "null polar", "null inverse"],
)
def test_check_that_cannot_measure_fails_under_any_tolerance(
    monkeypatch, name, attr, replacement, detail
):
    monkeypatch.setattr(verify, attr, replacement)
    (res,) = run_all(seed=3, scale=0.02, names=(name,))
    assert not res.passed
    assert res.measured == math.inf
    assert res.tolerance == verify._CHECKS[name][1]
    assert res.errors == ()
    assert detail in res.detail
    assert res.summary_line().startswith(f"[FAIL] {name}: measured inf")


def test_motion_invariance_shortfall_fails_under_any_tolerance(monkeypatch):
    def invalid(alpha, beta, spec):
        raise InvalidMotion("no motion is valid")

    monkeypatch.setattr(verify, "BilinearMotion", invalid)
    (res,) = run_all(seed=3, scale=0.02, names=("motion_invariance",))
    assert not res.passed
    assert res.measured == math.inf
    assert res.tolerance == verify._CHECKS["motion_invariance"][1]
    assert res.errors == ()
    assert "def-pos" in res.detail
    assert res.summary_line().startswith("[FAIL] motion_invariance: measured inf")


def test_measured_is_the_worst_named_sub_error():
    results = run_all(seed=3, scale=0.02)
    assert [r.name for r in results] == list(CHECK_NAMES)
    for res in results:
        assert res.errors, res.name
        assert res.measured == max(v / b for _, v, b in res.errors)
        assert res.passed == (res.measured <= res.tolerance)
        for name, _, _ in res.errors:
            assert name in res.detail


def test_nan_probe_fails_the_check(monkeypatch):
    # max(0.0, nan) is 0.0, so a check whose every probe read NaN once passed
    monkeypatch.setattr(verify, "isothermal_curvature", lambda *a, **k: math.nan)
    (res,) = run_all(seed=3, scale=0.02, names=("profile_curvature",))
    assert not res.passed
    assert math.isnan(res.measured)


def test_nan_second_sub_error_fails_the_check(monkeypatch):
    # the arc-length sub-error comes second, where max() dropped a NaN
    monkeypatch.setattr(verify, "arc_length", lambda field, points: math.nan)
    (res,) = run_all(seed=3, scale=0.02, names=("closed_form_consistency",))
    assert res.errors[1][0] == "polyline arc-length error"
    assert math.isnan(res.errors[1][1])
    assert not res.passed
    assert math.isnan(res.measured)


@pytest.mark.parametrize("seed", [2, 4, 7])
def test_two_point_solver_passes_at_small_scale(seed):
    # the 400-segment midpoint quadrature alone read up to 2.3e-6 here
    (res,) = run_all(seed=seed, scale=0.05, names=("two_point_solver",))
    assert res.passed, res.detail


def test_results_are_reproducible():
    a = run_all(seed=11, scale=0.02, names=("worldline_invariant",))
    b = run_all(seed=11, scale=0.02, names=("worldline_invariant",))
    assert a[0].measured == b[0].measured
    assert a[0].summary_line() == b[0].summary_line()


def test_metric_perturbation_is_detected():
    """The closed-form and integrator routes must disagree if the metric
    is quietly rescaled; that is the whole point of keeping them separate."""
    (clean,) = run_all(seed=5, scale=0.05, names=("oracle_equivalence",))
    (tampered,) = run_all(
        seed=5, scale=0.05, names=("oracle_equivalence",), perturb=1e-3
    )
    assert clean.passed
    assert not tampered.passed
    assert tampered.measured > 100.0 * clean.measured


def test_metric_perturbation_fails_profile_curvature():
    """A factor ``c lambda`` has curvature ``K / c``, so a rescale by
    ``1 + 1e-3`` reads about 1e-3 against the tolerance of 1e-6."""
    (clean,) = run_all(seed=5, scale=0.05, names=("profile_curvature",))
    (tampered,) = run_all(seed=5, scale=0.05, names=("profile_curvature",), perturb=1e-3)
    assert clean.passed
    assert not tampered.passed
    assert tampered.measured == pytest.approx(1e-3 / (1.0 + 1e-3), rel=1e-3)


def test_metric_built_for_a_shifted_radius_fails_profile_curvature(monkeypatch):
    """A metric built for ``R (1 + d)`` has curvature ``K / (1 + d)^2``;
    d = 1e-6 reads about 2e-6 against the tolerance of 1e-6."""

    def shifted(spec, chart):
        radius = spec.radius * (1.0 + 1e-6)
        return MetricField(SurfaceSpec(spec.signature, spec.curvature_sign, radius), chart)

    (clean,) = run_all(seed=5, names=("profile_curvature",))
    monkeypatch.setattr(verify, "MetricField", shifted)
    (tampered,) = run_all(seed=5, names=("profile_curvature",))
    assert clean.passed
    assert not tampered.passed, tampered.detail


def test_position_dependent_metric_tampering_is_detected(monkeypatch):
    """A constant rescale leaves every Christoffel symbol unchanged; a factor
    that varies with position changes the geodesics themselves."""
    factor = MetricField.factor
    monkeypatch.setattr(
        MetricField, "factor", lambda self, a, b: factor(self, a, b) * (1.0 + 1e-4 * a)
    )
    (tampered,) = run_all(seed=5, scale=0.05, names=("oracle_equivalence",))
    assert not tampered.passed
    assert tampered.measured > 100.0 * tampered.tolerance


def test_limiting_hits_are_checked_not_trusted(monkeypatch):
    """A crossing moved off both curves fails the check."""
    intersections = verify.limiting_intersections

    def tampered(conic):
        return [(x * (1.0 + 1e-9), y) for x, y in intersections(conic)]

    (clean,) = run_all(seed=5, scale=0.05, names=("limiting_orthogonality",))
    monkeypatch.setattr(verify, "limiting_intersections", tampered)
    (res,) = run_all(seed=5, scale=0.05, names=("limiting_orthogonality",))
    assert clean.passed
    assert not res.passed, res.detail
    assert [name for name, _, _ in res.errors] == [
        "normalized gradient pairing",
        "hit residual on both curves",
    ]


def test_summary_line_format():
    (res,) = run_all(seed=3, scale=0.02, names=("distance_benchmark",))
    line = res.summary_line()
    assert line.startswith("[PASS] distance_benchmark: measured ")
    assert "(tolerance 1.0e-09)" in line
