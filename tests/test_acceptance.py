"""Acceptance battery: the ten headline guarantees, at full workload.

Each test runs one named check from the verification battery at its default
seed, scale, and pinned tolerance, and prints the measured summary line so
the numbers are visible in verbose test output.  These are the same checks
exposed by ``lorentzcc verify``.
"""

import pytest

from lorentzcc import CHECK_NAMES, run_all


@pytest.fixture(scope="module")
def battery():
    """One full run of all checks; tests pick their result out of it."""
    results = run_all()
    return {res.name: res for res in results}


def _assert_passed(battery, name):
    res = battery[name]
    print(res.summary_line())
    assert res.measured <= res.tolerance, res.summary_line()
    assert res.passed


def test_battery_has_ten_checks():
    assert len(CHECK_NAMES) == 10


def test_01_profile_curvature_recovered(battery):
    """Profiles r(u) = R sin(u/R) and R sinh(u/R) give K = +-1/R^2 to 1e-6."""
    _assert_passed(battery, "profile_curvature")


def test_02_parametric_geodesics_match_conics(battery):
    """Sampled parametric geodesics satisfy their conic equation and their
    arc length matches the parameter interval on all four surfaces."""
    _assert_passed(battery, "closed_form_consistency")


def test_03_closed_forms_match_numeric_integration(battery):
    """RK4 driven by central differences of ln(lambda) stays within 1e-5 of
    the closed-form tracks in the Cartesian chart."""
    _assert_passed(battery, "oracle_equivalence")


def test_04_motions_preserve_the_line_element(battery):
    """Random bilinear motions preserve ds^2 and two-point abscissas."""
    _assert_passed(battery, "motion_invariance")


def test_05_two_point_solver_normal_form(battery):
    """solve_two_point sends z1 to 0 and z2 to (l, 0); the conic through the
    pair contains both and the distance matches quadrature."""
    _assert_passed(battery, "two_point_solver")


def test_06_distance_benchmark(battery):
    """Center-to-(0.5, 0) distance equals ln 3 on both negative-curvature
    surfaces, by closed form and by quadrature, to 1e-9."""
    _assert_passed(battery, "distance_benchmark")


def test_07_limiting_curve_orthogonality(battery):
    """Geodesics that reach the limiting curve cross it orthogonally in the
    ambient pairing; positive-curvature Lorentz geodesics never reach it."""
    _assert_passed(battery, "limiting_orthogonality")


def test_08_arc_fields_solve_the_beltrami_equation(battery):
    """Delta_1 tau = 1 normalization holds for the flat line families and
    the curved tau fields."""
    _assert_passed(battery, "beltrami_fields")


def test_09_worldline_invariant(battery):
    """Uniformly accelerated worldlines satisfy their hyperbola invariant;
    completed-square forms match the conic residuals."""
    _assert_passed(battery, "worldline_invariant")


def test_10_number_algebra_properties(battery):
    """Split-complex arithmetic: modulus multiplicativity, inverses,
    exponential law, polar round trips, null-line rejection."""
    _assert_passed(battery, "algebra_properties")
