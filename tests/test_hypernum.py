"""Algebra of hyperbolic (split-complex) and ordinary complex pairs.

The hyperbolic product has an independent matrix model: x + hy maps to
[[x, y], [y, x]] and multiplication becomes the matrix product.  Several
tests lean on that model instead of the closed-form component formulas.
"""

import cmath
import math

import numpy as np
import pytest

from lorentzcc import (
    ComplexNumber,
    DivisorOfZero,
    DomainError,
    HyperbolicNumber,
    PolarForm,
    Sector,
    conj,
    hyper_exp,
    inverse,
    mul,
    polar,
    square_modulus,
)
from lorentzcc.hypernum import cos_sin, inverse_parts, is_null


def _as_matrix(z):
    if isinstance(z, HyperbolicNumber):
        return np.array([[z.x, z.y], [z.y, z.x]])
    return np.array([[z.x, -z.y], [z.y, z.x]])


class TestProduct:
    def test_worked_hyperbolic_product(self):
        # (2 + h)(3 + 2h) = 6 + 2 + (4 + 3)h
        z = mul(HyperbolicNumber(2.0, 1.0), HyperbolicNumber(3.0, 2.0))
        assert z == HyperbolicNumber(8.0, 7.0)

    def test_worked_complex_product(self):
        z = mul(ComplexNumber(2.0, 1.0), ComplexNumber(3.0, 2.0))
        assert z == ComplexNumber(4.0, 7.0)

    @pytest.mark.parametrize("cls", [HyperbolicNumber, ComplexNumber])
    def test_matches_matrix_model(self, cls):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = cls(*rng.uniform(-3.0, 3.0, size=2))
            b = cls(*rng.uniform(-3.0, 3.0, size=2))
            left = _as_matrix(mul(a, b))
            right = _as_matrix(a) @ _as_matrix(b)
            assert left == pytest.approx(right, abs=1e-12)

    @pytest.mark.parametrize("cls", [HyperbolicNumber, ComplexNumber])
    def test_each_plane_keeps_its_textbook_bits(self, cls):
        # the shared formulas multiply by unit = +-1, which is exact
        rng = np.random.default_rng(16)
        for _ in range(200):
            a = cls(*rng.uniform(-3.0, 3.0, size=2))
            b = cls(*rng.uniform(-3.0, 3.0, size=2))
            if cls is HyperbolicNumber:
                want = (a.x * b.x + a.y * b.y, a.x * b.y + a.y * b.x)
                d = a.x * a.x - a.y * a.y
            else:
                want = (a.x * b.x - a.y * b.y, a.x * b.y + a.y * b.x)
                d = a.x * a.x + a.y * a.y
            assert mul(a, b) == cls(*want)
            assert square_modulus(a) == d

    def test_mixed_types_rejected(self):
        with pytest.raises(TypeError, match="cannot multiply"):
            mul(HyperbolicNumber(1.0, 0.0), ComplexNumber(1.0, 0.0))

    def test_scalar_and_vector_operators(self):
        a = HyperbolicNumber(1.0, 2.0)
        b = HyperbolicNumber(0.5, -1.0)
        assert a + b == HyperbolicNumber(1.5, 1.0)
        assert a - b == HyperbolicNumber(0.5, 3.0)
        assert -a == HyperbolicNumber(-1.0, -2.0)
        assert 2.0 * a == HyperbolicNumber(2.0, 4.0)
        # mul is the one product: a number has no * or / of its own
        with pytest.raises(TypeError):
            a * b
        with pytest.raises(TypeError):
            a * 2.0
        with pytest.raises(TypeError):
            a / 2.0


class TestModulusAndConjugate:
    def test_square_modulus_is_signed(self):
        assert square_modulus(HyperbolicNumber(2.0, 3.0)) == pytest.approx(-5.0)
        assert square_modulus(HyperbolicNumber(3.0, 2.0)) == pytest.approx(5.0)
        assert square_modulus(ComplexNumber(3.0, 4.0)) == pytest.approx(25.0)

    def test_z_times_conj_is_square_modulus(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            z = HyperbolicNumber(*rng.uniform(-2.0, 2.0, size=2))
            w = mul(z, conj(z))
            assert w.x == pytest.approx(square_modulus(z), abs=1e-12)
            assert w.y == pytest.approx(0.0, abs=1e-12)

    def test_square_modulus_multiplicative(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = HyperbolicNumber(*rng.uniform(-2.0, 2.0, size=2))
            b = HyperbolicNumber(*rng.uniform(-2.0, 2.0, size=2))
            lhs = square_modulus(mul(a, b))
            rhs = square_modulus(a) * square_modulus(b)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestInverse:
    def test_worked_inverse(self):
        # (5 + 3h)^-1 = (5 - 3h)/16
        w = inverse(HyperbolicNumber(5.0, 3.0))
        assert w.x == pytest.approx(0.3125)
        assert w.y == pytest.approx(-0.1875)

    @pytest.mark.parametrize("cls", [HyperbolicNumber, ComplexNumber])
    def test_round_trip(self, cls):
        rng = np.random.default_rng(14)
        count = 0
        while count < 100:
            z = cls(*rng.uniform(-2.0, 2.0, size=2))
            if is_null(z):
                continue
            w = mul(z, inverse(z))
            assert w.x == pytest.approx(1.0, abs=1e-10)
            assert w.y == pytest.approx(0.0, abs=1e-10)
            count += 1

    def test_null_has_no_inverse(self):
        with pytest.raises(DivisorOfZero):
            inverse(HyperbolicNumber(1.0, 1.0))
        with pytest.raises(DivisorOfZero, match="no inverse"):
            inverse(ComplexNumber(0.0, 0.0))

    @pytest.mark.parametrize(
        "z",
        [
            ComplexNumber(1e160, 0.0),
            ComplexNumber(-3e200, 2.0),
            HyperbolicNumber(2e159, 1e159),  # inf - inf: D reads NaN
            HyperbolicNumber(1e200, 0.0),
        ],
    )
    def test_overflowing_modulus_rejected(self, z):
        # x / D with D = inf would read a silent (0, -0)
        with pytest.raises(DomainError, match="not finite"):
            inverse(z)

    def test_small_number_has_an_inverse(self):
        # D = 1e-14 once fell under the absolute guard |D| <= 1e-12
        w = inverse(HyperbolicNumber(1e-7, 0.0))
        assert (w.x, w.y) == (pytest.approx(1e7, rel=1e-15), -0.0)

    @pytest.mark.parametrize("unit", [1.0, -1.0])
    @pytest.mark.parametrize("x, y", [(1e-170, 0.0), (1e-160, 3e-161), (2e-155, 0.0)])
    def test_underflowing_modulus_rejected(self, unit, x, y):
        # x / D with D = 0 divides by zero, and a subnormal D keeps a few digits
        with pytest.raises(DomainError, match="underflows"):
            inverse_parts(unit, x, y)

    def test_near_null_rejected_by_relative_tolerance(self):
        # the angle t = 1 - y / x = 1e-14 lies inside the null rule's 5e-13
        x = 10.0
        z = HyperbolicNumber(x, x * (1.0 - 1e-14))
        with pytest.raises(DivisorOfZero):
            inverse(z)


class TestCosSin:
    def test_each_unit_is_its_own_pair(self):
        for t in (-2.5, -0.3, 0.0, 0.7, 4.0):
            assert cos_sin(1.0, t) == (math.cosh(t), math.sinh(t))
            assert cos_sin(-1.0, t) == (math.cos(t), math.sin(t))

    @pytest.mark.parametrize("unit", [1.0, -1.0])
    def test_non_finite_argument_rejected(self, unit):
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="not finite"):
                cos_sin(unit, t)

    def test_overflow_rejected(self):
        # cosh overflows past |t| ~ 710.5; cos and sin stay bounded
        for t in (711.0, -1000.0):
            with pytest.raises(DomainError, match="not finite"):
                cos_sin(1.0, t)
            assert cos_sin(-1.0, t) == (math.cos(t), math.sin(t))


class TestNullLines:
    def test_is_null_on_the_lines(self):
        assert is_null(HyperbolicNumber(0.7, 0.7))
        assert is_null(HyperbolicNumber(-1.2, 1.2))
        assert is_null(HyperbolicNumber(0.0, 0.0))
        assert not is_null(HyperbolicNumber(0.7, 0.6))

    @pytest.mark.parametrize("scale", [1e-300, 1e-7, 1.0, 1e7, 1e300])
    def test_rule_reads_the_direction_not_the_size(self, scale):
        # the angle t = 1 - min / max decides, at every size; small numbers
        # were once null under an absolute |D| <= 1e-12
        for x, y, null in [
            (1.0, 1.0, True),
            (-1.0, 1.0, True),
            (1.0, 1.0 - 2e-13, True),
            (1.0, 1.0 - 1e-12, False),
            (1.0, 0.0, False),
        ]:
            assert is_null(HyperbolicNumber(scale * x, scale * y)) is null

    @pytest.mark.parametrize(
        "x, y, null",
        [
            (1e200, 1e200, True),  # |inf - inf| = nan once read "not null"
            (-1.5e308, 1.5e308, True),  # x + y itself overflows
            # the angle rule calls this null; the old |D| <= 1e-12 did not,
            # because D ~ 2e185 grows with the size
            (1e200, 1e200 * (1.0 + 1e-15), True),
            (1.7976931348623157e308, 1e300, False),
        ],
    )
    def test_rule_holds_where_d_overflows(self, x, y, null):
        assert is_null(HyperbolicNumber(x, y)) is null

    def test_complex_null_is_only_zero(self):
        assert is_null(ComplexNumber(0.0, 0.0))
        assert not is_null(ComplexNumber(1e-30, 0.0))


class TestPolar:
    @pytest.mark.parametrize(
        "z, sector, sign",
        [
            (HyperbolicNumber(2.0, 1.0), Sector.RIGHT, 1),
            (HyperbolicNumber(-2.0, 1.0), Sector.LEFT, -1),
            (HyperbolicNumber(1.0, 2.0), Sector.UP, 1),
            (HyperbolicNumber(1.0, -2.0), Sector.DOWN, -1),
        ],
    )
    def test_sector_assignment(self, z, sector, sign):
        p = polar(z)
        assert p.sector is sector
        assert p.sign == sign
        assert p.rho == pytest.approx(math.sqrt(3.0))

    def test_right_sector_values(self):
        p = polar(HyperbolicNumber(2.0, 1.0))
        assert p.theta == pytest.approx(math.atanh(0.5))
        assert p.rho == pytest.approx(math.sqrt(3.0))

    def test_reconstruct_round_trip(self):
        rng = np.random.default_rng(15)
        done = 0
        while done < 300:
            z = HyperbolicNumber(*rng.uniform(-4.0, 4.0, size=2))
            if is_null(z) or abs(abs(z.x) - abs(z.y)) < 1e-3:
                continue
            w = polar(z).reconstruct()
            assert w.x == pytest.approx(z.x, rel=1e-9, abs=1e-12)
            assert w.y == pytest.approx(z.y, rel=1e-9, abs=1e-12)
            done += 1

    @pytest.mark.parametrize("sector", [Sector.RIGHT, Sector.UP, None])
    def test_reconstruct_overflow_is_a_domain_error(self, sector):
        # cosh(800) overflows: once a bare OverflowError, not a GeometryError
        theta = math.inf if sector is None else 800.0
        with pytest.raises(DomainError, match="not finite"):
            PolarForm(1.0, theta, sector, 1).reconstruct()

    def test_complex_polar_round_trip(self):
        p = polar(ComplexNumber(-1.0, 1.0))
        assert p.rho == pytest.approx(math.sqrt(2.0))
        assert p.theta == pytest.approx(3.0 * math.pi / 4.0)
        w = p.reconstruct()
        assert w.x == pytest.approx(-1.0)
        assert w.y == pytest.approx(1.0)

    def test_null_rejected(self):
        with pytest.raises(DivisorOfZero, match="null"):
            polar(HyperbolicNumber(0.3, 0.3))
        with pytest.raises(DivisorOfZero, match="null"):
            polar(ComplexNumber(0.0, 0.0))

    @pytest.mark.parametrize(
        "z, rho, sector, sign",
        [
            # (x - y)(x + y) overflows; the modulus once read inf
            (HyperbolicNumber(1e200, 0.0), 1e200, Sector.RIGHT, 1),
            (HyperbolicNumber(0.0, -1e200), 1e200, Sector.DOWN, -1),
            (HyperbolicNumber(-5e200, 3e200), 4e200, Sector.LEFT, -1),
            (HyperbolicNumber(3e200, 5e200), 4e200, Sector.UP, 1),
            (HyperbolicNumber(1.7976931348623157e308, 1e300), 1.7976931348623157e308,
             Sector.RIGHT, 1),
            # D underflows to 0 or to a subnormal; once null under |D| <= 1e-12
            (HyperbolicNumber(5e-170, 3e-170), 4e-170, Sector.RIGHT, 1),
            (HyperbolicNumber(-1e-160, 0.0), 1e-160, Sector.LEFT, -1),
            (HyperbolicNumber(3e-155, 5e-155), 4e-155, Sector.UP, 1),
        ],
    )
    def test_finite_modulus_where_d_leaves_the_float_range(self, z, rho, sector, sign):
        p = polar(z)
        assert (p.sector, p.sign) == (sector, sign)
        assert p.rho == pytest.approx(rho, rel=1e-15)
        assert math.isfinite(p.theta)

    def test_null_line_where_d_overflows(self):
        # once a bare ValueError from atanh(1)
        with pytest.raises(DivisorOfZero, match="null"):
            polar(HyperbolicNumber(1e200, 1e200))

    @pytest.mark.parametrize(
        "z",
        [
            HyperbolicNumber(math.nan, 0.0),  # once a bare ZeroDivisionError
            HyperbolicNumber(math.inf, 1.0),  # once a divisor of zero, off every null line
            ComplexNumber(math.nan, 0.0),  # the complex two once answered
            ComplexNumber(math.inf, 0.0),
        ],
    )
    def test_non_finite_is_a_domain_error(self, z):
        with pytest.raises(DomainError) as info:
            polar(z)
        assert info.type is DomainError


class TestExponential:
    @pytest.mark.parametrize(
        "w",
        [
            HyperbolicNumber(1000.0, 0.0),  # once a bare OverflowError
            HyperbolicNumber(709.0, 2.0),  # once answered inf
            ComplexNumber(1000.0, 0.5),
            HyperbolicNumber(math.nan, 0.0),
            HyperbolicNumber(-math.inf, 0.0),  # once answered (0, 0)
        ],
    )
    def test_non_finite_argument_or_image_is_a_domain_error(self, w):
        with pytest.raises(DomainError):
            hyper_exp(w)

    def test_hyperbolic_components(self):
        w = hyper_exp(HyperbolicNumber(0.5, 0.3))
        assert w.x == pytest.approx(math.exp(0.5) * math.cosh(0.3))
        assert w.y == pytest.approx(math.exp(0.5) * math.sinh(0.3))

    def test_complex_matches_cmath(self):
        w = hyper_exp(ComplexNumber(0.5, 0.3))
        ref = cmath.exp(0.5 + 0.3j)
        assert w.x == pytest.approx(ref.real)
        assert w.y == pytest.approx(ref.imag)

    def test_additivity(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            a = HyperbolicNumber(*rng.uniform(-1.5, 1.5, size=2))
            b = HyperbolicNumber(*rng.uniform(-1.5, 1.5, size=2))
            lhs = hyper_exp(a + b)
            rhs = mul(hyper_exp(a), hyper_exp(b))
            scale = max(1.0, abs(lhs.x), abs(lhs.y))
            assert abs(lhs.x - rhs.x) / scale < 1e-13
            assert abs(lhs.y - rhs.y) / scale < 1e-13

    def test_square_modulus_of_exp(self):
        # D(exp(x + hy)) = e^{2x}, independent of y
        rng = np.random.default_rng(17)
        for _ in range(100):
            w = HyperbolicNumber(*rng.uniform(-1.5, 1.5, size=2))
            assert square_modulus(hyper_exp(w)) == pytest.approx(
                math.exp(2.0 * w.x), rel=1e-12
            )


class TestArgument:
    def test_complex_argument(self):
        assert polar(ComplexNumber(1.0, 1.0)).theta == pytest.approx(math.pi / 4.0)

    def test_hyperbolic_argument(self):
        assert polar(HyperbolicNumber(2.0, 1.0)).theta == pytest.approx(math.atanh(0.5))
        # the up sector measures its angle from the y axis
        assert polar(HyperbolicNumber(1.0, 2.0)).theta == pytest.approx(math.atanh(0.5))
