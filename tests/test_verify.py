"""Plumbing of the cross-check battery: selection, overrides, sensitivity."""

import math

import pytest

from lorentzcc import (
    CHECK_NAMES,
    DEFAULT_TOLERANCES,
    CheckResult,
    MetricField,
    NoGeodesic,
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
    assert set(DEFAULT_TOLERANCES) == set(CHECK_NAMES)


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


def test_unknown_tolerance_rejected():
    with pytest.raises(ValueError, match="unknown"):
        run_all(tolerances={"nope": 1.0})


def test_tolerance_override_can_fail_a_check():
    (res,) = run_all(
        seed=3,
        scale=0.02,
        names=("algebra_properties",),
        tolerances={"algebra_properties": 1e-30},
    )
    assert not res.passed
    assert res.tolerance == 1e-30
    assert "[FAIL]" in res.summary_line()


def test_check_that_cannot_measure_fails_under_any_tolerance(monkeypatch):
    def no_geodesic(spec, z1, z2):
        raise NoGeodesic("no pair is joinable")

    monkeypatch.setattr(verify, "solve_two_point", no_geodesic)
    (res,) = run_all(
        seed=3,
        scale=0.02,
        names=("two_point_solver",),
        tolerances={"two_point_solver": math.inf},
    )
    assert not res.passed
    assert res.measured == math.inf
    assert res.tolerance == math.inf
    assert "def-pos" in res.detail
    assert res.summary_line().startswith("[FAIL] two_point_solver: measured inf")


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


def test_summary_line_format():
    (res,) = run_all(seed=3, scale=0.02, names=("distance_benchmark",))
    line = res.summary_line()
    assert line.startswith("[PASS] distance_benchmark: measured ")
    assert "(tolerance 1.0e-09)" in line
