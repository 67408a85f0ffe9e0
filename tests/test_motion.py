"""Rigid motions: the flat plane group and the four bilinear model groups."""

import copy
import dataclasses
import math
import pickle
import random
import sys

import numpy as np
import pytest

from lorentzcc import cli, motion
from lorentzcc.hypernum import cos_sin, is_null, polar_parts
from lorentzcc import (
    SURFACE_NAMES,
    BilinearMotion,
    Chart,
    CoincidentPoints,
    ComplexNumber,
    DivisorOfZero,
    DomainError,
    GeometryError,
    HyperbolicNumber,
    InvalidMotion,
    MapsToInfinity,
    MetricField,
    NoGeodesic,
    OutOfDisk,
    PlaneMotion,
    Sector,
    SurfaceSpec,
    TwoPointSolution,
    apply,
    arc_length,
    conj,
    cross_ratio,
    geodesic_distance,
    geodesic_through,
    hyper_exp,
    inverse,
    inverse_motion,
    mul,
    number_for,
    plane_apply,
    polar,
    solve_two_point,
    square_modulus,
)


def _draw_model_point(rng, spec, bound=0.4):
    """Random model point, kept clear of null lines on Lorentz surfaces."""
    while True:
        x, y = rng.uniform(-bound, bound, size=2)
        if abs(x) + abs(y) < 1e-2:
            continue
        if spec.metric_sign < 0 and abs(abs(x) - abs(y)) < 0.05 * (abs(x) + abs(y)):
            continue
        return number_for(spec, float(x), float(y))


class TestPlaneMotions:
    def test_interval_preserved(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            theta = rng.uniform(-1.5, 1.5)
            a = hyper_exp(HyperbolicNumber(0.0, float(theta)))  # D(a) = 1
            b = HyperbolicNumber(*rng.uniform(-2.0, 2.0, size=2))
            motion = PlaneMotion(a, b, reflect=bool(rng.integers(0, 2)))
            z1 = HyperbolicNumber(*rng.uniform(-2.0, 2.0, size=2))
            z2 = HyperbolicNumber(*rng.uniform(-2.0, 2.0, size=2))
            before = square_modulus(z2 - z1)
            after = square_modulus(plane_apply(motion, z2) - plane_apply(motion, z1))
            assert after == pytest.approx(before, rel=1e-12, abs=1e-12)

    def test_translation(self):
        motion = PlaneMotion(HyperbolicNumber(1.0, 0.0), HyperbolicNumber(2.0, -1.0))
        w = plane_apply(motion, HyperbolicNumber(0.5, 0.5))
        assert w == HyperbolicNumber(2.5, -0.5)

    def test_non_unit_boost_rejected(self):
        motion = PlaneMotion(HyperbolicNumber(2.0, 0.0), HyperbolicNumber(0.0, 0.0))
        with pytest.raises(InvalidMotion, match=r"D\(a\) = 1"):
            plane_apply(motion, HyperbolicNumber(1.0, 0.0))

    @pytest.mark.parametrize(
        "a, b, z, match",
        [
            # abs(D(a) - 1) > tol is False for NaN: the image read (nan, nan)
            ((math.nan, 0.0), (0.0, 0.0), (0.1, 0.2), "constants"),
            ((1.0, 0.0), (math.inf, 0.0), (0.1, 0.2), "constants"),
            ((1.0, 0.0), (0.0, 0.0), (math.nan, 0.2), "point"),
            ((1.0, 0.0), (0.0, 0.0), (0.1, -math.inf), "point"),
            # D(a) = inf passed the unit test, and the image read (1e199, 2e199)
            ((1e200, 0.0), (0.0, 0.0), (0.1, 0.2), "overflows"),
            ((1.0, 0.0), (1e308, 0.0), (1e308, 0.2), "image"),
        ],
    )
    @pytest.mark.parametrize("reflect", [False, True])
    def test_non_finite_input_or_image_is_a_domain_error(self, a, b, z, match, reflect):
        motion = PlaneMotion(HyperbolicNumber(*a), HyperbolicNumber(*b), reflect)
        with pytest.raises(DomainError, match=match):
            plane_apply(motion, HyperbolicNumber(*z))


class TestBilinearMotion:
    def test_wrong_number_type_rejected(self):
        with pytest.raises(TypeError, match="ComplexNumber"):
            BilinearMotion(
                HyperbolicNumber(1.0, 0.0),
                HyperbolicNumber(0.0, 0.0),
                SurfaceSpec.from_name("def-neg"),
            )

    @pytest.mark.parametrize(
        "name, alpha, beta",
        [
            # D(alpha) + D(beta) = 1 - 1 = 0 on a positive-curvature family
            ("lorentz-pos", (1.0, 0.0), (0.0, 1.0)),
            # both constants null: D is 0 at any size, not an underflow
            ("lorentz-neg", (1e-170, 1e-170), (0.0, 0.0)),
            ("lorentz-pos", (1e-170, -1e-170), (2e-200, 2e-200)),
        ],
    )
    def test_degenerate_pair_rejected(self, name, alpha, beta):
        spec = SurfaceSpec.from_name(name)
        with pytest.raises(InvalidMotion, match="degenerate"):
            BilinearMotion(number_for(spec, *alpha), number_for(spec, *beta), spec)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_inverse_round_trip(self, name):
        spec = SurfaceSpec.from_name(name)
        rng = np.random.default_rng(42)
        for _ in range(40):
            alpha = number_for(spec, 1.0, float(rng.uniform(-0.3, 0.3)))
            beta = number_for(spec, *rng.uniform(-0.3, 0.3, size=2))
            motion = BilinearMotion(alpha, beta, spec)
            inv = inverse_motion(motion)
            z = _draw_model_point(rng, spec)
            w = apply(inv, apply(motion, z))
            assert w.x == pytest.approx(z.x, rel=1e-10, abs=1e-12)
            assert w.y == pytest.approx(z.y, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha, beta, match",
        [
            ((math.nan, 0.0), (0.0, 0.0), "not finite"),
            ((1.0, 0.0), (math.inf, 0.0), "not finite"),
            ((1e200, 0.0), (0.0, 0.0), "not finite"),  # finite, but D(alpha) overflows
            # the identity rescaled, its D below the normal range: once
            # "degenerate" (D = 0.0) or an inverse_parts error in apply (D = 1e-320)
            ((1e-170, 0.0), (0.0, 0.0), "underflow D"),
            ((1e-160, 0.0), (0.0, 0.0), "underflow D"),
            ((0.0, 0.0), (3e-170, -1e-170), "underflow D"),
        ],
    )
    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_constants_whose_d_leaves_the_float_range_rejected(self, name, alpha, beta, match):
        # abs(nan) <= tol is False: the degeneracy test alone lets NaN through
        spec = SurfaceSpec.from_name(name)
        with pytest.raises(DomainError, match=match):
            BilinearMotion(number_for(spec, *alpha), number_for(spec, *beta), spec)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_degenerate_message_carries_the_curvature_sign(self, name):
        spec = SurfaceSpec.from_name(name)
        zero = number_for(spec, 0.0, 0.0)
        sign = "+" if spec.kappa > 0 else "-"
        with pytest.raises(InvalidMotion, match=rf"D\(alpha\) \{sign} D\(beta\)"):
            BilinearMotion(zero, zero, spec)

    def test_image_overflow_is_a_domain_error(self):
        # D of the denominator overflows at |z| ~ 1e160; the true image is
        # near (-4.2, 1.6), while x / inf would read (-0, 0)
        spec = SurfaceSpec.from_name("def-pos")
        motion = BilinearMotion(
            number_for(spec, 1.0, 0.1), number_for(spec, 0.2, -0.1), spec
        )
        with pytest.raises(DomainError, match="not finite"):
            apply(motion, (1e160, 0.0))

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_image_beyond_the_float_range_maps_to_infinity(self, name):
        # alpha z overflows at a finite z; the image was returned as inf
        spec = SurfaceSpec.from_name(name)
        zero = number_for(spec, 0.0, 0.0)
        motion = BilinearMotion(number_for(spec, 2.0, 0.0), zero, spec)
        with pytest.raises(MapsToInfinity, match="not finite"):
            apply(motion, (1e308, 0.0))

    # a common scale of 1e-7 was once "degenerate": D(alpha) - D(beta) = 9.4e-15
    # fell under an absolute 1e-12
    @pytest.mark.parametrize("scale", [3.0, 1e-7, 1e-150, 1e150])
    def test_projective_scaling_is_invisible(self, scale):
        spec = SurfaceSpec.from_name("def-neg")
        alpha = ComplexNumber(1.0, 0.2)
        beta = ComplexNumber(0.1, -0.3)
        m1 = BilinearMotion(alpha, beta, spec)
        m2 = BilinearMotion(scale * alpha, scale * beta, spec)
        z = ComplexNumber(0.25, -0.4)
        w1, w2 = apply(m1, z), apply(m2, z)
        assert w1.x == pytest.approx(w2.x, rel=1e-12)
        assert w1.y == pytest.approx(w2.y, rel=1e-12)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_apply_does_not_depend_on_earlier_applies(self, name):
        spec = SurfaceSpec.from_name(name)
        rng = np.random.default_rng(7)
        alpha = number_for(spec, 1.0, 0.2)
        beta = number_for(spec, 0.1, -0.25)
        points = [_draw_model_point(rng, spec) for _ in range(5)]
        points.append(number_for(spec, 0.0, 0.0))
        for z in points:
            # a fresh motion's first apply against a warm one's later applies
            first = apply(BilinearMotion(alpha, beta, spec), z)
            warm = BilinearMotion(alpha, beta, spec)
            apply(warm, points[0])
            assert apply(warm, z) == first
            assert apply(warm, z) == first

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_equality_hash_and_repr_read_only_the_constants(self, name):
        spec = SurfaceSpec.from_name(name)
        alpha, beta = number_for(spec, 1.0, 0.2), number_for(spec, 0.1, -0.25)
        motion = BilinearMotion(alpha, beta, spec)
        fresh = BilinearMotion(alpha, beta, spec)
        text = f"BilinearMotion(alpha={alpha!r}, beta={beta!r}, spec={spec!r})"
        for _ in range(2):
            assert motion == fresh
            assert hash(motion) == hash(fresh) == hash((alpha, beta, spec))
            assert repr(motion) == text
            apply(motion, (0.1, 0.05))
        assert motion != BilinearMotion(alpha, number_for(spec, 0.1, 0.25), spec)

    def test_asdict_copy_and_pickle_keep_the_three_fields(self):
        # asdict and astuple once raised AttributeError before the first apply
        spec = SurfaceSpec.from_name("lorentz-neg")
        alpha, beta = number_for(spec, 1.0, 0.2), number_for(spec, 0.1, 0.1)
        motion = BilinearMotion(alpha, beta, spec)
        assert [f.name for f in dataclasses.fields(motion)] == ["alpha", "beta", "spec"]
        for _ in range(2):
            fields = dataclasses.asdict(motion)
            assert (fields["alpha"], fields["beta"]) == ({"x": 1.0, "y": 0.2}, {"x": 0.1, "y": 0.1})
            assert dataclasses.astuple(motion)[:2] == ((1.0, 0.2), (0.1, 0.1))
            for dup in (copy.copy(motion), copy.deepcopy(motion),
                        pickle.loads(pickle.dumps(motion))):
                assert dup == motion
                assert hash(dup) == hash(motion)
                assert apply(dup, (0.2, 0.1)) == apply(motion, (0.2, 0.1))

    def test_maps_to_infinity(self):
        spec = SurfaceSpec.from_name("def-neg")
        alpha = ComplexNumber(1.0, 0.0)
        beta = ComplexNumber(0.5, 0.0)
        motion = BilinearMotion(alpha, beta, spec)
        # denominator conj(beta) z + conj(alpha) vanishes at z = -2
        with pytest.raises(MapsToInfinity):
            apply(motion, ComplexNumber(-2.0, 0.0))


# Reference bodies of apply, solve_two_point, the conic, the distance and the
# polar form, written with the public number operations in the order the
# plain-float kernels follow.


def _reference_point(spec, z):
    return number_for(spec, *z) if isinstance(z, tuple) else z


def _reference_apply(m, z):
    z = _reference_point(m.spec, z)
    cb, ca = conj(m.beta), conj(m.alpha)
    num = mul(m.alpha, z) + m.beta
    den = ca - mul(cb, z) if m.spec.kappa > 0.0 else mul(cb, z) + ca
    try:
        w = mul(num, inverse(den))
    except DivisorOfZero as exc:
        raise MapsToInfinity(f"denominator {den} is not invertible at {z}") from exc
    if not (math.isfinite(w.x) and math.isfinite(w.y)):
        raise MapsToInfinity(f"image ({w.x}, {w.y}) of {z} is not finite")
    return w


def _reference_solve(spec, z1, z2):
    """``(l, theta_alpha, r, alpha, beta)`` of the normal form."""
    z1, z2 = _reference_point(spec, z1), _reference_point(spec, z2)
    tol = 1e-14 * max(abs(z1.x), abs(z1.y), abs(z2.x), abs(z2.y))
    if abs(z1.x - z2.x) <= tol and abs(z1.y - z2.y) <= tol:
        raise CoincidentPoints(f"points coincide: {z1}")
    d1 = square_modulus(z1)
    if not math.isfinite(d1):
        raise DomainError(f"D of the base point {z1} overflows")
    kappa = spec.kappa
    if abs(d1 + kappa) <= 1e-12 * max(1.0, abs(d1)):
        raise NoGeodesic(f"base point {z1} lies on the limiting curve")
    one = type(z1)(1.0, 0.0)
    den = one + mul(conj(z1), z2) if kappa > 0.0 else one - mul(conj(z1), z2)
    try:
        q = mul(z2 - z1, inverse(den))
    except DivisorOfZero as exc:
        raise NoGeodesic(f"normal-form denominator degenerates: {exc}") from exc
    try:
        pol = polar(q)
    except DivisorOfZero as exc:
        raise NoGeodesic(f"{z1} and {z2} are null-separated") from exc
    if pol.sector in (Sector.UP, Sector.DOWN):
        raise NoGeodesic(
            f"{z1} and {z2} are separated across the null cone "
            "(no geodesic of the family joins them)"
        )
    half = pol.theta / 2.0
    c, s = cos_sin(z1.unit, half)
    alpha = type(z1)(-s, c) if pol.sector is Sector.LEFT else type(z1)(c, -s)
    beta = -mul(alpha, z1)
    n = square_modulus(z2 - z1)
    if abs(n) < sys.float_info.min:
        raise DomainError(f"D(z2 - z1) = {n} underflows: the points are too close to resolve")
    m = square_modulus(den) if kappa > 0.0 else (1.0 - d1) * (1.0 - square_modulus(z2))
    r = n / m if m else math.inf
    if r != r:
        raise DomainError(f"r = D(z2 - z1) / m = {n} / {m} is not a number")
    try:
        motion = BilinearMotion(alpha, beta, spec)
    except InvalidMotion as exc:
        raise NoGeodesic(f"base point {z1} lies on the limiting curve") from exc
    except DomainError as exc:
        raise DomainError(f"D of the base point {z1} overflows in beta = -alpha z1") from exc
    return pol.rho, -half, r, motion.alpha, motion.beta


def _reference_conic(m):
    alpha, beta, spec = m.alpha, m.beta, m.spec
    g = mul(alpha, beta)
    cb = conj(beta)
    s = mul(alpha, alpha) + spec.kappa * mul(cb, cb)
    r = spec.radius
    return -spec.kappa * g.y / (r * r), s.y / r, s.x / r, g.y


def _reference_distance(spec, z1, z2):
    try:
        l, _, r, _, _ = _reference_solve(spec, z1, z2)
    except CoincidentPoints:
        return 0.0
    if spec.kappa < 0.0:
        if l >= 1.0:
            raise OutOfDisk(f"image abscissa l = {l} >= 1; point outside the model")
        if not 0.0 <= r < math.inf:
            raise OutOfDisk(f"sinh^2 of half the distance r = {r}; point on the boundary")
        return 2.0 * spec.radius * math.asinh(math.sqrt(r))
    return 2.0 * spec.radius * math.atan(math.sqrt(r))


def _reference_through(spec, z1, z2):
    *_, alpha, beta = _reference_solve(spec, z1, z2)
    return _reference_conic(BilinearMotion(alpha, beta, spec))


def _reference_polar(z):
    """``(rho, theta, sector, sign)`` of the polar form, read from the
    ``Number`` and its ``is_null``."""
    if not (math.isfinite(z.x) and math.isfinite(z.y)):
        raise DomainError(f"({z.x}, {z.y}) is not finite; no polar form")
    if is_null(z):
        raise DivisorOfZero(f"({z.x}, {z.y}) is null and has no polar form")
    if z.unit < 0.0:
        return math.hypot(z.x, z.y), math.atan2(z.y, z.x), None, 1
    p, q = z.x, z.y
    ap, aq = abs(p), abs(q)
    pos, neg = Sector.RIGHT, Sector.LEFT
    if aq >= ap:
        p, q, ap, aq = q, p, aq, ap
        pos, neg = Sector.UP, Sector.DOWN
    d, t = (ap - aq) * (ap + aq), (ap - aq) / ap
    rho = math.sqrt(d) if sys.float_info.min <= d < math.inf else ap * math.sqrt(t * (2.0 - t))
    sector, sign = (pos, 1) if p > 0 else (neg, -1)
    return rho, math.atanh(q / p), sector, sign


def _bits(f, *args):
    """Hex parts of a result, or type, message and cause of its exception."""
    try:
        out = f(*args)
    except Exception as exc:  # every outcome is compared, errors included
        cause = exc.__cause__
        return type(exc), str(exc), None if cause is None else (type(cause), str(cause))
    values = out if isinstance(out, tuple) else (out,)
    return tuple(
        (v.x.hex(), v.y.hex()) if isinstance(v, (HyperbolicNumber, ComplexNumber))
        else v.hex() if isinstance(v, float) else v
        for v in values
    )


_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
            1e-300, -1e-300, 1e300, -1e300, 1.0, -0.5)


def _component(rng):
    k = rng.random()
    if k < 0.55:
        return rng.uniform(-1.0, 1.0)
    if k < 0.8:
        return rng.choice(_SPECIAL)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)


def _point(rng):
    """A pair with signed zeros, subnormals and 1e+-300 parts, on a null line
    through the origin one time in five."""
    x, y = _component(rng), _component(rng)
    k = rng.random()
    return (x, x) if k < 0.1 else (x, -x) if k < 0.2 else (x, y)


def _path_parts(sol, ts):
    return tuple(part for point in sol.path(ts) for part in point)


def _reference_path_parts(sol, ts):
    """The loop ``path`` replaced, flattened like :func:`_path_parts`."""
    spec = sol.motion.spec
    inv = inverse_motion(sol.motion)
    return tuple(
        part
        for w in (apply(inv, number_for(spec, t, 0.0)) for t in ts)
        for part in (w.x, w.y)
    )


def _solution_parts(spec, z1, z2):
    sol = solve_two_point(spec, z1, z2)
    return sol.l, sol.theta_alpha, sol.r, sol.motion.alpha, sol.motion.beta


def _conic_parts(m):
    conic = TwoPointSolution(m, 0.0, 0.0, 0.0).conic
    return conic.quad, conic.lin_x, conic.lin_y, conic.const_term


def _through_parts(spec, z1, z2):
    conic = geodesic_through(spec, z1, z2)
    return conic.quad, conic.lin_x, conic.lin_y, conic.const_term


def _polar_parts(z):
    pol = polar(z)
    return pol.rho, pol.theta, pol.sector, pol.sign


class TestPlainFloatKernels:
    """apply, solve_two_point, geodesic_distance, geodesic_through, the conic
    and polar agree bit for bit with their bodies over the public number
    operations, errors included."""

    def test_bit_identical_to_the_number_operations(self):
        rng = random.Random(29)
        outcomes = set()

        def compare(f, reference, *args):
            got = _bits(f, *args)
            assert got == _bits(reference, *args), args
            outcomes.add((f.__name__, got[0] if isinstance(got[0], type) else "ok"))

        settings = [(name, radius) for name in SURFACE_NAMES for radius in (0.5, 1.0, 2.5)]
        for name, radius in settings * 120:
            spec = SurfaceSpec.from_name(name, radius)
            p1, p2 = _point(rng), _point(rng)
            if rng.random() < 0.1:
                p2 = (p1[0] + 1e-16 * _component(rng), p1[1])
            if rng.random() < 0.5:
                p1, p2 = number_for(spec, *p1), number_for(spec, *p2)
            compare(_solution_parts, _reference_solve, spec, p1, p2)
            compare(geodesic_distance, _reference_distance, spec, p1, p2)
            compare(_through_parts, _reference_through, spec, p1, p2)
            try:
                m = solve_two_point(spec, p1, _point(rng)).motion
            except (CoincidentPoints, DomainError, NoGeodesic):
                try:
                    m = BilinearMotion(
                        number_for(spec, *_point(rng)), number_for(spec, *_point(rng)), spec
                    )
                except (DomainError, InvalidMotion):
                    continue
            compare(_conic_parts, _reference_conic, m)
            for p in (p1, p2, number_for(spec, *_point(rng))):
                compare(apply, _reference_apply, m, p)
        # far-out base points whose beta = -alpha z1 overflows D: the motion
        # check finds it, and the error names the base point
        for name, p1, p2 in (
            ("lorentz-pos", (-1.2060870320479939e154, 1.8891710715196855e152),
             (0.40513595643633815, 0.3033635465286444)),
            ("lorentz-neg", (-1.3292675690700919e154, 3.498326461713851e153),
             (-0.28023754206945695, -0.19922539281295726)),
        ):
            spec = SurfaceSpec.from_name(name)
            for f, reference in ((_solution_parts, _reference_solve),
                                 (geodesic_distance, _reference_distance),
                                 (_through_parts, _reference_through)):
                got = _bits(f, spec, p1, p2)
                assert got == _bits(reference, spec, p1, p2)
                assert got[0] is DomainError and got[1].startswith("D of the base point"), got
        kinds = {
            "_solution_parts": ("ok", CoincidentPoints, DomainError, NoGeodesic),
            "apply": ("ok", DomainError, MapsToInfinity),
            "geodesic_distance": ("ok", DomainError, NoGeodesic, OutOfDisk),
            "_through_parts": ("ok", CoincidentPoints, DomainError, NoGeodesic),
        }
        assert {(f, k) for f, ks in kinds.items() for k in ks} <= outcomes

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_signed_zeros_keep_their_bits(self, name):
        # a zero part's sign reaches the argument: (0, 0) -> (0.5, -0.0) on
        # def-pos reads theta_alpha +0.0, and -0.0 where the denominator's
        # 0.0 + conj(z1) z2 part is formed without its 0.0 +
        spec = SurfaceSpec.from_name(name)
        parts = (0.0, -0.0, 0.5, -0.25, 5e-324)
        grid = [(x, y) for x in parts for y in parts]
        for p1 in grid:
            for p2 in grid:
                for f, reference in (
                    (_solution_parts, _reference_solve),
                    (geodesic_distance, _reference_distance),
                    (_through_parts, _reference_through),
                ):
                    assert _bits(f, spec, p1, p2) == _bits(reference, spec, p1, p2), (f, p1, p2)
        for a in ((1.0, 0.0), (1.0, -0.0)):
            for b in ((0.0, -0.0), (-0.0, 0.0), (0.25, -0.0)):
                m = BilinearMotion(number_for(spec, *a), number_for(spec, *b), spec)
                for p in grid:
                    assert _bits(apply, m, p) == _bits(_reference_apply, m, p), (a, b, p)

    def test_path_is_the_inverse_apply_loop(self):
        """``path`` matches the loop ``apply(inverse_motion(motion), (t, 0))``
        bit for bit, errors included, over the random draws, the signed-zero
        grid and the far-out Lorentzian pairs above."""
        rng = random.Random(31)
        outcomes = set()

        def compare(sol, extra=()):
            l = sol.l if math.isfinite(sol.l) else 1.0
            ts = [0.0, -0.0, 5e-324, *(l * k / 8.0 for k in range(1, 9)), 1.0, -1.0, *extra]
            for chosen in (ts, [*ts, math.inf], [*ts[:3], -math.nan, *ts[3:]], []):
                got = _bits(_path_parts, sol, chosen)
                assert got == _bits(_reference_path_parts, sol, chosen), (sol, chosen)
                outcomes.add(got[0] if got and isinstance(got[0], type) else "ok")

        settings = [(name, radius) for name in SURFACE_NAMES for radius in (0.5, 1.0, 2.5)]
        for name, radius in settings * 40:
            spec = SurfaceSpec.from_name(name, radius)
            p1, p2 = _point(rng), _point(rng)
            try:
                sol = solve_two_point(spec, p1, p2)
            except (CoincidentPoints, DomainError, NoGeodesic):
                try:
                    m = BilinearMotion(number_for(spec, *p1), number_for(spec, *p2), spec)
                except (DomainError, InvalidMotion):
                    continue
                sol = TwoPointSolution(m, 0.0, 0.0, 0.0)
            compare(sol, (_component(rng), _component(rng)))
        for name in SURFACE_NAMES:
            spec = SurfaceSpec.from_name(name)
            parts = (0.0, -0.0, 0.5, -0.25, 5e-324)
            grid = [(x, y) for x in parts for y in parts]
            for p1 in grid:
                for p2 in grid:
                    try:
                        sol = solve_two_point(spec, p1, p2)
                    except (CoincidentPoints, DomainError, NoGeodesic):
                        continue
                    compare(sol, parts)
        for name, p1, p2 in (
            ("lorentz-pos", (-1.2060870320479939e154, 1.8891710715196855e152),
             (0.40513595643633815, 0.3033635465286444)),
            ("lorentz-neg", (-1.3292675690700919e154, 3.498326461713851e153),
             (-0.28023754206945695, -0.19922539281295726)),
        ):
            spec = SurfaceSpec.from_name(name)
            motion = BilinearMotion(number_for(spec, *p1), number_for(spec, *p2), spec)
            compare(TwoPointSolution(motion, 0.0, 0.0, 0.0), (*p1, *p2, 1e300, -1e300))
            compare(solve_two_point(spec, p2, (0.1, 0.02)), (*p1, *p2))
        assert outcomes == {"ok", DomainError, MapsToInfinity}

    # apply's two refusals, as they read before its float kernel
    MAPS_TO_INFINITY = (
        ("def-neg", (0.5, 0.0), (-2.0, 0.0),
         "denominator ComplexNumber(x=0.0, y=0.0) is not invertible at "
         "ComplexNumber(x=-2.0, y=0.0)", "complex zero has no inverse"),
        ("lorentz-pos", (0.5, 0.0), (0.0, 2.0),
         "denominator HyperbolicNumber(x=1.0, y=-1.0) is not invertible at "
         "HyperbolicNumber(x=0.0, y=2.0)", "(1.0, -1.0) lies on a null line and has no inverse"),
        ("lorentz-neg", (0.5, 0.0), (0.0, 2.0),
         "denominator HyperbolicNumber(x=1.0, y=1.0) is not invertible at "
         "HyperbolicNumber(x=0.0, y=2.0)", "(1.0, 1.0) lies on a null line and has no inverse"),
        ("def-pos", (0.0, 0.0), (1.5e308, 0.0),
         "image (inf, nan) of ComplexNumber(x=1.5e+308, y=0.0) is not finite", None),
    )

    @pytest.mark.parametrize("name, beta, z, message, cause", MAPS_TO_INFINITY)
    def test_maps_to_infinity_messages(self, name, beta, z, message, cause):
        spec = SurfaceSpec.from_name(name)
        alpha = (1.5, 0.0) if cause is None else (1.0, 0.0)
        m = BilinearMotion(number_for(spec, *alpha), number_for(spec, *beta), spec)
        for point in (z, number_for(spec, *z)):
            with pytest.raises(MapsToInfinity) as info:
                apply(m, point)
            assert str(info.value) == message
            assert (None if info.value.__cause__ is None else str(info.value.__cause__)) == cause
        if z[1] == 0.0:  # a path through the motion whose inverse is m reaches z too
            with pytest.raises(MapsToInfinity) as info:
                TwoPointSolution(inverse_motion(m), 0.0, 0.0, 0.0).path([0.0, z[0]])
            assert str(info.value) == message

    @pytest.mark.parametrize("cls", [HyperbolicNumber, ComplexNumber])
    def test_polar_and_its_float_parts_body_agree(self, cls):
        # the solver reads q's polar form from polar_parts, with no Number
        parts = (*_SPECIAL, math.inf, -math.nan)
        kinds = set()
        for x in parts:
            for y in parts:
                want = _bits(_reference_polar, cls(x, y))
                assert _bits(_polar_parts, cls(x, y)) == want, (x, y)
                assert _bits(polar_parts, cls.unit, x, y) == want, (x, y)
                kinds.add(want[0] if isinstance(want[0], type) else "ok")
        assert kinds == {"ok", DomainError, DivisorOfZero}


class TestTwoPointSolver:
    # l^2 below come from the invariant quotient |z2 - z1|^2 / |1 -/+ cj(z1) z2|^2
    FROZEN = {
        "def-pos": ((0.1, 0.2), (0.4, -0.3), math.sqrt(0.34 / 0.9725), 2.0 * math.atan(math.sqrt(0.34 / 0.9725))),
        "def-neg": ((0.1, 0.2), (0.4, -0.3), math.sqrt(0.34 / 1.0525), 2.0 * math.atanh(math.sqrt(0.34 / 1.0525))),
        "lorentz-pos": ((0.1, 0.2), (0.4, 0.1), math.sqrt(0.08 / 1.0355), 2.0 * math.atan(math.sqrt(0.08 / 1.0355))),
        "lorentz-neg": ((0.1, 0.2), (0.4, 0.1), math.sqrt(0.08 / 0.9555), 2.0 * math.atanh(math.sqrt(0.08 / 0.9555))),
    }

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_frozen_abscissa_and_distance(self, name):
        p1, p2, l_expect, d_expect = self.FROZEN[name]
        spec = SurfaceSpec.from_name(name)
        z1, z2 = number_for(spec, *p1), number_for(spec, *p2)
        sol = solve_two_point(spec, z1, z2)
        assert sol.l == pytest.approx(l_expect, rel=1e-13)
        assert geodesic_distance(spec, z1, z2) == pytest.approx(d_expect, rel=1e-13)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_normal_form(self, name):
        """The solved motion sends z1 to the origin and z2 onto the x axis."""
        spec = SurfaceSpec.from_name(name)
        rng = np.random.default_rng(43)
        for _ in range(25):
            z1 = _draw_model_point(rng, spec)
            z2 = _draw_model_point(rng, spec)
            try:
                sol = solve_two_point(spec, z1, z2)
            except (NoGeodesic, CoincidentPoints):
                continue
            w1 = apply(sol.motion, z1)
            w2 = apply(sol.motion, z2)
            assert abs(w1.x) < 1e-12 and abs(w1.y) < 1e-12
            assert abs(w2.y) < 1e-12
            assert w2.x == pytest.approx(sol.l, abs=1e-12)
            assert sol.l > 0.0

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_alpha_is_the_half_argument_rotation(self, name):
        """alpha is (cos h, -sin h) on definite surfaces, and (cosh h, -sinh h)
        on the right sector or (-sinh h, cosh h) on the left one of
        Lorentzian surfaces, bit for bit, with h half the argument of
        q = (z2 - z1) / (1 -/+ conj(z1) z2)."""
        spec = SurfaceSpec.from_name(name)
        rng = np.random.default_rng(5)
        sectors = set()
        for _ in range(200):
            z1 = _draw_model_point(rng, spec)
            z2 = _draw_model_point(rng, spec)
            try:
                sol = solve_two_point(spec, z1, z2)
            except (NoGeodesic, CoincidentPoints):
                continue
            one = type(z1)(1.0, 0.0)
            den = one + mul(conj(z1), z2) if spec.kappa > 0.0 else one - mul(conj(z1), z2)
            pol = polar(mul(z2 - z1, inverse(den)))
            h = pol.theta / 2.0
            if pol.sector is None:
                expected = (math.cos(h), -math.sin(h))
            elif pol.sector is Sector.RIGHT:
                expected = (math.cosh(h), -math.sinh(h))
            else:
                expected = (-math.sinh(h), math.cosh(h))
            alpha = sol.motion.alpha
            assert (alpha.x.hex(), alpha.y.hex()) == (expected[0].hex(), expected[1].hex())
            assert sol.theta_alpha == -h
            sectors.add(pol.sector)
        assert sectors == ({None} if spec.metric_sign > 0.0 else {Sector.RIGHT, Sector.LEFT})

    # (theta_beta, rho_beta) of fixed pairs, as hex; zero when z1 = 0
    BETA_BITS = (
        ("def-pos", (0.3, -0.2), (0.1, 0.5), "0x1.b82d57367855fp+0", "0x1.71355d04de190p-2"),
        ("def-neg", (0.3, -0.2), (-0.1, 0.4), "0x1.6de46e13c8e7cp+0", "0x1.71355d04de190p-2"),
        ("lorentz-pos", (0.3, 0.1), (0.7, 0.2), "0x1.b7a27ee8316f9p-3", "-0x1.21a1851ff6309p-2"),
        ("lorentz-neg", (-0.2, 0.05), (-0.6, 0.1),
         "-0x1.95fbcaf122a6cp-3", "0x1.8c97ef43f7248p-3"),
        ("lorentz-neg", (0.0, 0.0), (0.5, 0.1), "0x0.0p+0", "0x0.0p+0"),
        ("def-pos", (0.0, 0.0), (0.5, 0.1), "0x0.0p+0", "0x0.0p+0"),
    )

    @pytest.mark.parametrize("name, z1, z2, theta_hex, rho_hex", BETA_BITS)
    def test_beta_polar_bits(self, name, z1, z2, theta_hex, rho_hex):
        sol = solve_two_point(SurfaceSpec.from_name(name), z1, z2)
        assert (sol.theta_beta.hex(), sol.rho_beta.hex()) == (theta_hex, rho_hex)

    def test_left_sector_pair(self):
        """A pair whose separation points into the left wedge still lands at +l."""
        spec = SurfaceSpec.from_name("lorentz-neg")
        z1 = number_for(spec, 0.2, 0.0)
        z2 = number_for(spec, -0.2, 0.05)
        sol = solve_two_point(spec, z1, z2)
        w2 = apply(sol.motion, z2)
        assert w2.x == pytest.approx(sol.l)
        assert sol.l > 0.0

    def test_distance_matches_quadrature(self):
        """Pull the normal-form segment back and integrate the line element."""
        spec = SurfaceSpec.from_name("lorentz-neg")
        z1 = number_for(spec, 0.1, 0.2)
        z2 = number_for(spec, 0.4, 0.1)
        sol = solve_two_point(spec, z1, z2)
        inv = inverse_motion(sol.motion)
        pts = []
        for t in np.linspace(0.0, sol.l, 4001):
            w = apply(inv, number_for(spec, float(t), 0.0))
            pts.append((w.x, w.y))
        length = arc_length(MetricField(spec, Chart.CARTESIAN), pts)
        assert length == pytest.approx(geodesic_distance(spec, z1, z2), abs=1e-7)

    @pytest.mark.parametrize(
        "z1, z2, coincide",
        [
            ((0.2, 0.1), (0.2, 0.1), True),
            ((0.2, 0.1), (0.2 + 1e-15, 0.1), True),
            # the coincidence test once had an absolute floor of 1e-14
            ((0.0, 0.0), (5e-15, 0.0), False),
            ((1e-30, 0.0), (3e-30, 1e-30), False),
            ((1e-30, 0.0), (1e-30 * (1.0 + 1e-15), 0.0), True),
        ],
    )
    def test_coincident_points(self, z1, z2, coincide):
        spec = SurfaceSpec.from_name("def-pos")
        if coincide:
            with pytest.raises(CoincidentPoints):
                solve_two_point(spec, z1, z2)
            assert geodesic_distance(spec, z1, z2) == 0.0
        else:
            dx, dy = z2[0] - z1[0], z2[1] - z1[1]
            flat = 2.0 * math.hypot(dx, dy)  # the factor 4 of the origin
            assert geodesic_distance(spec, z1, z2) == pytest.approx(flat, rel=1e-14, abs=0.0)

    def test_tuple_inputs_coerced(self):
        spec = SurfaceSpec.from_name("def-neg")
        sol = solve_two_point(spec, (0.0, 0.0), (0.5, 0.0))
        assert sol.l == pytest.approx(0.5)
        assert geodesic_distance(spec, (0.0, 0.0), (0.5, 0.0)) == pytest.approx(math.log(3.0))

    def test_null_separated_from_a_null_base_point(self):
        # (0.3, 0.3) lies on y = x, and the pair on the null line x + y = 0.6
        spec = SurfaceSpec.from_name("lorentz-neg")
        with pytest.raises(NoGeodesic, match="null-separated"):
            solve_two_point(spec, (0.3, 0.3), (0.5, 0.1))

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("name", ["lorentz-pos", "lorentz-neg"])
    def test_null_base_points_match_the_ambient_distance(self, name, radius):
        # a point of y = +-x is an ordinary point of the surface, once refused.
        # The ambient quadric P(z) = (2x, 2y, 1 - kappa D) / (1 + kappa D),
        # D = x^2 - y^2, with <P, Q> = P.x Q.x - P.y Q.y + kappa P.z Q.z, gives
        # c = kappa <P(z1), P(z2)> = cos(d / R) on lorentz-pos, joined where
        # |c| < 1, and cosh(d / R) on lorentz-neg, joined where c > 1.
        spec = SurfaceSpec.from_name(name, radius)
        kappa = spec.kappa

        def ambient(x, y):
            d = x * x - y * y
            w = 1.0 + kappa * d
            return 2.0 * x / w, 2.0 * y / w, (1.0 - kappa * d) / w

        rng = np.random.default_rng(54)
        answered = 0
        for i in range(2000):
            x = float(rng.uniform(-0.9, 0.9))
            z1 = (x, x if i % 2 else -x)
            z2 = tuple(float(v) for v in rng.uniform(-0.9, 0.9, 2))
            p, q = ambient(*z1), ambient(*z2)
            c = kappa * (p[0] * q[0] - p[1] * q[1] + kappa * p[2] * q[2])
            joined = abs(c) < 1.0 if kappa > 0.0 else c > 1.0
            try:
                d = geodesic_distance(spec, z1, z2)
            except (NoGeodesic, OutOfDisk):
                assert not joined, (z1, z2, c)
                continue
            assert joined, (z1, z2, c, d)
            answered += 1
            f = math.cos(d / radius) if kappa > 0.0 else math.cosh(d / radius)
            assert abs(f - c) <= 1e-14 * max(1.0, abs(c))
        assert answered > 700

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("name", ["lorentz-pos", "lorentz-neg"])
    def test_null_base_point_reads_a_zero_beta_polar_form(self, name, radius):
        # beta = -alpha z1 is null with z1, and its polar form, refused as a
        # divisor of zero, once failed `geodesic --points` where `distance` answered
        spec = SurfaceSpec.from_name(name, radius)
        z2 = (0.5 / radius, 0.2 / radius)
        for z1 in ((0.1, 0.1), (0.1, -0.1), (-0.1, -0.1)):
            z1 = (z1[0] / radius, z1[1] / radius)
            sol = solve_two_point(spec, z1, z2)
            assert abs(square_modulus(sol.motion.beta)) <= 1e-12
            assert (sol.theta_beta, sol.rho_beta) == (0.0, 0.0)
            assert sol.distance == geodesic_distance(spec, z1, z2)
            assert apply(sol.motion, number_for(spec, *z1)) == number_for(spec, 0.0, 0.0)

    def test_null_separation(self):
        spec = SurfaceSpec.from_name("lorentz-pos")
        with pytest.raises(NoGeodesic, match="null-separated"):
            solve_two_point(spec, (0.1, 0.05), (0.3, 0.25))

    def test_null_separation_where_d_overflows(self):
        # is_null once read |inf - inf| = nan as "not null", and polar raised
        # a bare ValueError from atanh(1)
        spec = SurfaceSpec.from_name("lorentz-pos")
        with pytest.raises(NoGeodesic, match="null-separated"):
            solve_two_point(spec, (0.0, 0.0), (1e200, 1e200))

    def test_point_of_the_other_number_type_rejected(self):
        spec = SurfaceSpec.from_name("lorentz-pos")
        with pytest.raises(TypeError, match="lorentz-pos points must be HyperbolicNumber"):
            solve_two_point(spec, ComplexNumber(0.1, 0.0), (0.3, 0.1))

    def test_timelike_separation(self):
        spec = SurfaceSpec.from_name("lorentz-neg")
        with pytest.raises(NoGeodesic):
            solve_two_point(spec, (0.1, 0.0), (0.1, 0.3))

    @pytest.mark.parametrize(
        "name, z1, z2",
        [
            ("def-neg", (1.0, 0.0), (0.2, 0.1)),
            # these pass the solver's limiting-curve test, and their motion
            # fails its check: once InvalidMotion, which no caller gave
            ("def-neg", (0.9999319236004413, -0.011668254613320541),
             (0.5619963055376892, -0.6671012744920237)),
            ("lorentz-neg", (107.00931843213104, -107.00464583983829),
             (106.92555108138781, -107.05068167084876)),
        ],
    )
    def test_base_point_on_limiting_curve(self, name, z1, z2):
        spec = SurfaceSpec.from_name(name)
        message = f"base point {number_for(spec, *z1)} lies on the limiting curve"
        for f in (solve_two_point, geodesic_distance, geodesic_through):
            with pytest.raises(NoGeodesic) as info:
                f(spec, z1, z2)
            assert str(info.value) == message, f

    @pytest.mark.parametrize("name", ["def-neg", "lorentz-neg"])
    def test_base_points_next_to_the_limiting_curve(self, name):
        # D(z1) within 1e-9 relative of the curve D = 1: the three entry
        # points raise one type (distance alone refuses an answered pair as
        # OutOfDisk), and a check of the solver's own motion is never an
        # InvalidMotion
        spec = SurfaceSpec.from_name(name)
        rng = random.Random(31)
        definite = spec.metric_sign > 0.0
        blamed = 0
        for _ in range(2000):
            r = math.sqrt(1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -9.0))
            if definite:
                c, s = cos_sin(-1.0, rng.uniform(-math.pi, math.pi))
                z1, z2 = (r * c, r * s), (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            else:
                c, s = cos_sin(1.0, rng.uniform(-6.0, 6.0))
                r *= rng.choice((-1.0, 1.0))
                z1 = (r * c, r * s)
                z2 = (z1[0] + rng.uniform(-0.3, 0.3), z1[1] + rng.uniform(-0.3, 0.3))
            kinds = []
            for f in (solve_two_point, geodesic_through, geodesic_distance):
                try:
                    f(spec, z1, z2)
                    kinds.append("ok")
                except GeometryError as exc:
                    assert not isinstance(exc, InvalidMotion), (z1, z2)
                    assert "motion constants" not in str(exc), (z1, z2)
                    blamed += isinstance(exc.__cause__, InvalidMotion)
                    kinds.append(type(exc))
            assert kinds[0] == kinds[1], (z1, z2, kinds)
            assert kinds[2] in (kinds[0], OutOfDisk if kinds[0] == "ok" else None), (z1, z2, kinds)
        # about one lorentz-neg draw in a hundred reaches the motion check
        assert blamed >= (0 if definite else 30)

    def test_antipodal_points_on_the_sphere_model(self):
        spec = SurfaceSpec.from_name("def-pos")
        z1 = (0.5, 0.5)
        z2 = (-1.0, -1.0)  # exactly -1/conj(z1): the normal form blows up
        with pytest.raises(NoGeodesic):
            solve_two_point(spec, z1, z2)
        # nearly antipodal still works, with the distance approaching pi R
        d = geodesic_distance(spec, (0.5, 0.5), (-1.0 + 1e-9, -1.0))
        assert d == pytest.approx(math.pi, abs=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        # inf once read as coincident with any point (inf <= 1e-14 * inf)
        spec = SurfaceSpec.from_name("def-neg")
        with pytest.raises(DomainError, match="not finite"):
            geodesic_distance(spec, (bad, 0.0), (0.5, 0.0))
        with pytest.raises(DomainError, match="not finite"):
            solve_two_point(spec, (0.0, 0.0), number_for(spec, 0.5, bad))
        motion = BilinearMotion(number_for(spec, 1.0, 0.0), number_for(spec, 0.1, 0.0), spec)
        with pytest.raises(DomainError, match="not finite"):
            apply(motion, (bad, bad))

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_overflowing_points_are_a_domain_error(self, name):
        # D(z1) = inf would read nan on def-pos, "on the limiting curve" elsewhere
        spec = SurfaceSpec.from_name(name)
        with pytest.raises(DomainError, match="overflows"):
            solve_two_point(spec, (1e200, 0.0), (3e200, 0.0))
        with pytest.raises(DomainError):
            geodesic_distance(spec, (0.1, 0.0), (3e200, 0.0))

    @pytest.mark.parametrize("name", ["lorentz-pos", "lorentz-neg"])
    def test_separation_whose_d_is_nan_is_a_domain_error(self, name):
        # D(z2 - z1) is inf - inf, so r once read nan: lorentz-pos answered the
        # distance nan, and lorentz-neg a solution whose r was nan
        spec = SurfaceSpec.from_name(name)
        with pytest.raises(DomainError, match="not a number"):
            solve_two_point(spec, (1e-153, 0.0), (-1e252, -3e275))

    def test_out_of_disk_distance(self):
        spec = SurfaceSpec.from_name("def-neg")
        with pytest.raises(OutOfDisk, match=">= 1"):
            geodesic_distance(spec, (0.0, 0.0), (1.5, 0.0))
        with pytest.raises(OutOfDisk, match=">= 1"):
            geodesic_distance(spec, (0.0, 0.0), (1.0, 0.0))

    def test_boundary_point_whose_abscissa_rounds_below_one(self):
        # D(z2) = 1 exactly, so (1 - D(z1))(1 - D(z2)) = 0, while l rounds to
        # 1 - 1.1e-16; this once read as the finite distance 2 atanh(l) = 37.4
        spec = SurfaceSpec.from_name("def-neg")
        z1 = (0.004477843792721422, -2.2517719595427395e-05)
        z2 = (0.6643029539301958, 0.7474634341555553)
        assert solve_two_point(spec, z1, z2).l < 1.0
        with pytest.raises(OutOfDisk, match="boundary"):
            geodesic_distance(spec, z1, z2)

    @pytest.mark.parametrize(
        "name, radius, z1, z2, rel",
        [
            # l once read 0.7517889936 for 0.7517777334; now 5.0e-11 off
            ("lorentz-neg", 0.5, (-156720.6335142643, -156720.77852958173),
             (0.48844319589089674, 0.2615942436393698), 1e-9),
            # l once read 1.4214956594 for 1.4215696351; now 1.4e-12 off
            ("lorentz-pos", 1.0, (686246335.631457, 686248396.7383492),
             (1.6389033370907766, -1.1547922052680943), 1e-10),
            # next to the antipode (1 + D(z1))(1 + D(z2)) - D(z2 - z1) cancels,
            # and asin(sqrt(D(z2 - z1) / ((1 + D(z1))(1 + D(z2))))) reads pi,
            # 1.3e-10 off
            ("def-pos", 1.0, (0.3, 0.4), (-1.199999999, -1.6), 1e-14),
        ],
    )
    def test_ill_conditioned_pair_matches_high_precision(self, name, radius, z1, z2, rel):
        # on the Lorentzian surfaces a motion sent z1 far out along a null
        # line: the normal-form denominator is near null, and l = rho(q) kept
        # four or five digits
        mpmath = pytest.importorskip("mpmath")
        spec = SurfaceSpec.from_name(name, radius)
        kappa, s = spec.kappa, spec.metric_sign
        with mpmath.workdps(60):
            x1, y1, x2, y2 = (mpmath.mpf(v) for v in (*z1, *z2))
            n = (x2 - x1) ** 2 + s * (y2 - y1) ** 2
            m = (1 + kappa * (x1 * x1 + s * y1 * y1)) * (1 + kappa * (x2 * x2 + s * y2 * y2))
            half = mpmath.asinh(mpmath.sqrt(n / m)) if kappa < 0 else mpmath.asin(mpmath.sqrt(n / m))
            want = float(2 * radius * half)
        assert geodesic_distance(spec, z1, z2) == pytest.approx(want, rel=rel)


class TestSmallSeparations:
    """``d(z, z + delta w) / delta`` tends to ``sqrt|lambda(z) (w_x^2 + s w_y^2)|``
    (the local limit), down to delta = 1e-300, or the solver raises."""

    DIRECTIONS = [(1.0, 0.5), (0.5, 1.0), (-0.6, 0.35), (0.8, -0.79),
                  (1.0, 0.0), (0.0, -1.0), (0.3, 0.3 * (1.0 - 1e-9))]

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_local_limit_or_a_named_error(self, name):
        spec = SurfaceSpec.from_name(name)  # R = 1: normalized is physical
        factor = MetricField(spec, Chart.CARTESIAN).factor
        s = spec.metric_sign
        smallest = {}
        for k in range(1, 301):
            delta = 10.0**-k
            bases = {"origin": (0.0, 0.0), "delta": (0.7 * delta, -0.4 * delta),
                     "0.3": (0.3, 0.12)}
            for base, z1 in bases.items():
                for wx, wy in self.DIRECTIONS:
                    z2 = (z1[0] + delta * wx, z1[1] + delta * wy)
                    if z2 == z1:
                        continue
                    # w as the floats hold it: z2 is z1 + delta w rounded
                    dx, dy = z2[0] - z1[0], z2[1] - z1[1]
                    interval = dx * dx + s * dy * dy
                    try:
                        d = solve_two_point(spec, z1, z2).distance
                    except CoincidentPoints:
                        assert max(abs(dx), abs(dy)) <= 1e-14 * max(map(abs, z1 + z2))
                        continue
                    except DomainError:  # D(z2 - z1) leaves the normal range
                        assert abs(interval) < sys.float_info.min
                        continue
                    except NoGeodesic:  # one causal type is joined
                        assert s < 0.0
                        continue
                    local = math.sqrt(abs(factor(*z1) * interval))
                    # measured: at most 0.48 delta, on def-neg from (0.3, 0.12)
                    assert abs(d - local) <= delta * local, (base, delta, (wx, wy), d)
                    smallest[base] = min(smallest.get(base, 1.0), delta)
        # answered down to the underflow of D(z2 - z1) near delta = 1e-154,
        # and down to the coincidence bound 1e-14 |z| from (0.3, 0.12)
        assert smallest == {"origin": 1e-153, "delta": 1e-153, "0.3": 1e-14}


class TestSolveOnce:
    def test_geodesic_points_solves_the_pair_once(self, monkeypatch, capsys):
        calls = []
        solve = motion.solve_two_point

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(motion, "solve_two_point", counting)
        monkeypatch.setattr(cli, "solve_two_point", counting)
        argv = ["geodesic", "--surface", "def-neg", "--points", "0.1,0.05", "0.4,-0.1"]
        assert cli.main(argv) == 0
        assert '"distance"' in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_solution_carries_conic_and_distance(self, name):
        spec = SurfaceSpec.from_name(name, 2.5)
        z1, z2 = number_for(spec, 0.1, 0.05), number_for(spec, 0.4, -0.1)
        sol = solve_two_point(spec, z1, z2)
        conic = geodesic_through(spec, z1, z2)
        fields = ("quad", "lin_x", "lin_y", "const_term")
        assert [getattr(sol.conic, f).hex() for f in fields] == [
            getattr(conic, f).hex() for f in fields
        ]
        assert sol.distance.hex() == geodesic_distance(spec, z1, z2).hex()


class TestGeodesicThrough:
    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_conic_contains_both_points(self, name):
        spec = SurfaceSpec.from_name(name)
        rng = np.random.default_rng(44)
        for _ in range(25):
            z1 = _draw_model_point(rng, spec)
            z2 = _draw_model_point(rng, spec)
            try:
                conic = geodesic_through(spec, z1, z2)
            except (NoGeodesic, CoincidentPoints):
                continue
            for z in (z1, z2):
                assert conic.residual(z.x, z.y) == pytest.approx(0.0, abs=1e-10)

    def test_diameter_degenerates_to_a_line(self):
        spec = SurfaceSpec.from_name("def-neg")
        conic = geodesic_through(spec, (0.2, 0.0), (-0.4, 0.0))
        # the whole axis solves it, so the quadratic part must vanish
        assert conic.residual(0.7, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert conic.quad == pytest.approx(0.0, abs=1e-12)

    def test_scaled_model(self):
        """Physical-chart points on a radius-2 surface."""
        spec = SurfaceSpec.from_name("lorentz-neg", radius=2.0)
        z1 = number_for(spec, 0.1, 0.2)   # normalized coordinates
        z2 = number_for(spec, 0.4, 0.1)
        conic = geodesic_through(spec, z1, z2)
        for z in (z1, z2):
            # the conic lives in the physical chart: scale by R
            assert conic.residual(2.0 * z.x, 2.0 * z.y) == pytest.approx(0.0, abs=1e-12)


class TestCrossRatio:
    def test_invariance_under_motions(self):
        spec = SurfaceSpec.from_name("lorentz-neg")
        rng = np.random.default_rng(45)
        for _ in range(20):
            pts = [_draw_model_point(rng, spec) for _ in range(4)]
            try:
                before = cross_ratio(*pts)
            except (CoincidentPoints, DivisorOfZero):
                continue
            motion = BilinearMotion(
                number_for(spec, 1.0, float(rng.uniform(-0.3, 0.3))),
                number_for(spec, *rng.uniform(-0.3, 0.3, size=2)),
                spec,
            )
            try:
                moved = [apply(motion, z) for z in pts]
                after = cross_ratio(*moved)
            except (MapsToInfinity, CoincidentPoints, DivisorOfZero):
                continue
            assert after.x == pytest.approx(before.x, rel=1e-9, abs=1e-11)
            assert after.y == pytest.approx(before.y, rel=1e-9, abs=1e-11)

    def test_repeated_point_rejected(self):
        a = ComplexNumber(0.1, 0.2)
        b = ComplexNumber(0.3, -0.1)
        c = ComplexNumber(-0.2, 0.0)
        with pytest.raises(CoincidentPoints, match="repeated"):
            cross_ratio(a, b, a, c)

    def test_null_separated_denominator_rejected(self):
        a = HyperbolicNumber(0.0, 0.0)
        b = HyperbolicNumber(0.5, 0.1)
        c = HyperbolicNumber(0.2, -0.1)
        d = HyperbolicNumber(0.4, 0.4)  # a - d is null
        with pytest.raises(DivisorOfZero, match="null line"):
            cross_ratio(a, b, c, d)
