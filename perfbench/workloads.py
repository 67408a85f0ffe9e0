"""The three benchmark workloads.

Every workload is a closed loop with one client in one thread: the next call
into the library starts only after the previous one returned, as the CLI and
the battery use the library.  Inputs come from a numpy generator seeded by
the benchmark's ``--seed``; the library sees only the generated inputs.

Each workload offers ``run_timed(seconds)``, the end-to-end measurement, and
``run_fixed(tracer)``, a fixed amount of work for the traced run, so that two
traced passes over the same seed must repeat every operation count exactly.
Every answer is checked by an identity that does not call the closed form
that produced it; a wrong answer is a failure.  A rejection is an answer when
it is the domain error the request kind may raise (``NoGeodesic`` for a pair
no geodesic joins, ``OutOfChart`` for a sample off the chart, ...) and the
request is not one that certainly has an answer; any other rejection is a
failure.  The checks run with the tracer paused, so the layer figures hold
only the measured requests.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

SURFACES = ("def-pos", "def-neg", "lorentz-pos", "lorentz-neg")
RADII = (0.5, 1.0, 2.0)


@dataclass
class Outcome:
    """What one measured stretch of a workload produced."""

    latencies: list[float] = field(default_factory=list)  # seconds per operation
    work: int = 0  # work units: checks, queries or emitted samples
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    headroom: dict[str, float] = field(default_factory=dict)  # worst measured/tolerance
    scale: dict[str, float] = field(default_factory=dict)  # worst tolerance scale factor
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def record_headroom(self, name: str, value: float) -> None:
        if value > self.headroom.get(name, -math.inf):
            self.headroom[name] = value

    def record_scale(self, name: str, value: float) -> None:
        if value > self.scale.get(name, -math.inf):
            self.scale[name] = value


def _span(tracer, name: str, request: int):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, request)


@contextlib.contextmanager
def _gate(tracer, name: str, request: int):
    """Span around the benchmark's own checking, with layer counting off."""
    if tracer is None:
        yield
        return
    with tracer.span(name, request), tracer.paused():
        yield


def _conic_headroom(conic, x: float, y: float, tol: float = 1e-9) -> float:
    """Conic residual at a point, relative to the largest term, over ``tol``."""
    term = max(
        1.0,
        abs(conic.quad) * (x * x + y * y),
        abs(conic.lin_x * x),
        abs(conic.lin_y * y),
        abs(conic.const_term),
    )
    return abs(conic.residual(x, y)) / term / tol


# --------------------------------------------------------------------------
# battery


class Battery:
    """``lorentzcc verify --scale 0.3`` run in-process: ``run_all`` at default
    tolerances, entered through ``cli.main`` so the cli layer is measured.

    At default scale a pass takes ~10 s, so a run holds four or five and
    their median follows the shared host's slow phases; at 0.3 a pass takes
    ~1.4 s with the same share of time per check (``oracle_equivalence``
    about half, then ``closed_form_consistency`` and ``two_point_solver``).
    """

    name = "battery"
    SCALE = 0.3
    _LINE = re.compile(r"^\[(PASS|FAIL)\] (\w+): measured (\S+) \(tolerance (\S+)\)")

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.checks = lib.verify.CHECK_NAMES
        self.solve_attempts: dict[str, tuple[int, int]] = {}
        self.check_wall: dict[str, float] = {}  # untraced seconds per check

    def _verify(self, out: Outcome, checks: tuple[str, ...], tracer=None) -> None:
        """One ``verify`` call for ``checks`` (all of them: no ``--check``)."""
        argv = ["verify", "--seed", str(self.seed), "--scale", str(self.SCALE)]
        if checks != self.checks:
            argv += [arg for check in checks for arg in ("--check", check)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(argv)
        text = buf.getvalue()
        if tracer is not None:
            tracer.add("cli.main.bytes", len(text.encode("utf-8")))
        passed = []
        for match in filter(None, map(self._LINE.match, text.splitlines())):
            status, check, measured, tolerance = match.groups()
            out.record_headroom(check, float(measured) / float(tolerance))
            if status == "PASS":
                passed.append(check)
        out.attempted += len(checks)
        out.work += len(checks)
        for check in checks:
            if check not in passed:
                out.fail(f"{check} did not pass: {text}")
        if code != 0 and len(passed) == len(checks):
            out.fail(f"verify exited {code} although every check passed")

    def run_timed(self, seconds: float) -> Outcome:
        out = Outcome()
        start = perf_counter()
        while perf_counter() - start < seconds:
            t0 = perf_counter()
            self._verify(out, self.checks)
            out.latencies.append(perf_counter() - t0)
        return out

    def run_fixed(self, tracer=None) -> Outcome:
        """One pass as ten ``verify --check`` calls, in order.  Untraced, the
        wall time of each check is kept; traced, each call is a span."""
        out = Outcome()
        t0 = perf_counter()
        for idx, check in enumerate(self.checks):
            if tracer is None:
                c0 = perf_counter()
                self._verify(out, (check,))
                self.check_wall[check] = perf_counter() - c0
                continue
            before = tracer.snapshot()
            with tracer.span(f"verify.{check}", idx):
                self._verify(out, (check,), tracer)
            after = tracer.snapshot()
            self.solve_attempts[check] = tuple(
                after.get(key, 0) - before.get(key, 0)
                for key in ("motion.solve_two_point.calls", "motion.solve_two_point.rejected")
            )
        out.latencies.append(perf_counter() - t0)
        return out

    def warm_up(self) -> None:
        """One untimed pass, so lazy imports and first-call costs are paid."""
        self._verify(Outcome(), self.checks)


# --------------------------------------------------------------------------
# point queries


class PointQueries:
    """A seeded stream of single-answer library calls on all four surfaces.

    Three request kinds, a third of the stream each: the invariant distance
    (half of them after a random motion, as ``distance --apply-motion``),
    the two-point solver with the conic through the pair, and a family conic
    with one unit-speed sample.  The even split, the half of distances moved
    and the parameter ranges are assumed, not measured from any caller: no
    caller's traffic is recorded.  Motion constants are drawn as the
    library's ``motion_invariance`` check draws them, family ``sigma`` as its
    ``closed_form_consistency`` check does.  Points come from a box of
    half-width 0.9 R, so about half of the Lorentzian pairs are not joinable
    and come back as rejections.

    Exactly null-separated pairs, which must be rejected, are probed in an
    untimed pass after the measured stream, so they do not shape its mix.
    """

    name = "point_queries"
    CHUNK = 2048
    FIXED = 3000
    NULL_PROBES = 64
    KINDS = ("distance", "two_point", "family")
    # Domain errors each request kind may answer with.
    REJECTIONS = {
        "distance": ("NoGeodesic", "OutOfDisk", "MapsToInfinity"),
        "two_point": ("NoGeodesic", "CoincidentPoints"),
        "family": ("OutOfChart", "DegenerateEpsilon"),
    }
    # The round trip of a normal form and a distance computed at far-out
    # points lose digits with the conditioning of the input (see _check);
    # the tolerance scales with it up to these caps, so the checks still
    # bind: neither is ever looser than 1e-6 relative.
    ROUND_TRIP_CAP = 1e6  # times 1e-12
    DISTANCE_CAP = 1e3  # times 1e-9

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.specs = {
            (n, r): lib.surface.SurfaceSpec.from_name(n, r) for n in SURFACES for r in RADII
        }
        self.rejections = {
            kind: tuple(getattr(lib.errors, name) for name in names)
            for kind, names in self.REJECTIONS.items()
        }
        self.fixed = list(itertools.islice(self.stream(), self.FIXED))
        self.null_probes = self._draw_null_probes(np.random.default_rng([seed, 3]))

    def stream(self):
        """Endless, seed-determined sequence of queries."""
        rng = np.random.default_rng([self.seed, 1])
        while True:
            yield from self._draw(rng, self.CHUNK)

    def _draw(self, rng, n: int) -> list[tuple]:
        number_for = self.lib.motion.number_for
        queries = []
        for _ in range(n):
            name = SURFACES[rng.integers(4)]
            spec = self.specs[(name, RADII[rng.integers(len(RADII))])]
            kind = self.KINDS[rng.integers(3)]
            if kind == "family":
                eps = (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(0.02, 1.5)
                queries.append(
                    ("family", spec, eps, rng.uniform(-1.5, 1.5), rng.uniform(-2.0, 2.0))
                )
                continue
            x1, y1, x2, y2 = rng.uniform(-0.9, 0.9, 4)
            z1, z2 = number_for(spec, x1, y1), number_for(spec, x2, y2)
            if kind == "two_point":
                queries.append(("two_point", spec, z1, z2))
                continue
            motion = (1.0, *rng.uniform(-0.3, 0.3, 3)) if rng.random() < 0.5 else None
            check = (1.0, *rng.uniform(-0.2, 0.2, 3))
            queries.append(("distance", spec, z1, z2, motion, check))
        return queries

    def _draw_null_probes(self, rng) -> list[tuple]:
        """Exactly null-separated pairs on the two Lorentzian surfaces."""
        number_for = self.lib.motion.number_for
        probes = []
        for i in range(self.NULL_PROBES):
            spec = self.specs[(SURFACES[2 + i % 2], RADII[rng.integers(len(RADII))])]
            # dyadic coordinates, so that z2 - z1 = (t, +-t) holds exactly
            draws = (*rng.uniform(-0.9, 0.9, 2), rng.uniform(0.05, 0.5))
            x1, y1, t = (round(v * 2.0**24) / 2.0**24 for v in draws)
            y2 = y1 + (t if rng.random() < 0.5 else -t)
            probes.append((spec, number_for(spec, x1, y1), number_for(spec, x1 + t, y2)))
        return probes

    # -- one query ---------------------------------------------------------

    def _call(self, q):
        lib = self.lib
        kind, spec = q[0], q[1]
        if kind == "family":
            _, _, eps, sigma, u = q
            conic = lib.geodesic.geodesic_from_constants(spec, eps, sigma)
            tau0 = lib.geodesic.constant_A(spec, eps) * sigma
            state = lib.geodesic.geodesic_parametric_with_velocity(
                spec, eps, sigma, tau0 + spec.radius * u
            )
            return conic, state
        if kind == "two_point":
            _, _, z1, z2 = q
            sol = lib.motion.solve_two_point(spec, z1, z2)
            return sol, lib.motion.geodesic_through(spec, z1, z2)
        _, _, z1, z2, motion, _ = q
        if motion is not None:
            m = self._motion(spec, motion)
            z1 = lib.motion.apply(m, z1)
            z2 = lib.motion.apply(m, z2)
        return z1, z2, lib.motion.geodesic_distance(spec, z1, z2)

    def _motion(self, spec, consts):
        nf = self.lib.motion.number_for
        ax, ay, bx, by = consts
        return self.lib.motion.BilinearMotion(nf(spec, ax, ay), nf(spec, bx, by), spec)

    @staticmethod
    def _owed(q) -> bool:
        """Whether the query certainly has an answer, judged from its domain
        alone: any two distinct points of the sphere are joined, any two of
        the open disk too, and a family sample exists where the chart
        inequality of its surface holds (with a margin).  Lorentzian pairs
        are not judged here."""
        kind, spec = q[0], q[1]
        name = spec.name
        if kind == "family":
            _, _, eps, _, u = q
            if name == "lorentz-pos":
                return abs(math.cosh(eps) * math.sin(u)) < 1.0 - 1e-9
            if name == "lorentz-neg":
                return math.cos(eps) * math.cosh(u) > 1.0 + 1e-9
            return True
        if name == "def-pos":
            return True
        if name == "def-neg":
            return all(z.x * z.x + z.y * z.y < 1.0 - 1e-9 for z in (q[2], q[3]))
        return False

    def _check_rejection(self, q, exc) -> str | None:
        """Judge one rejection; return a failure message or None."""
        if not isinstance(exc, self.rejections[q[0]]):
            return f"{q[0]} query rejected with {exc!r}, not one of its domain errors: {q}"
        if self._owed(q):
            return f"{q[0]} query has an answer but was rejected with {exc!r}: {q}"
        return None

    def _check(self, q, answer, out: Outcome) -> str | None:
        """Verify one answer; return a failure message or None."""
        lib = self.lib
        kind, spec = q[0], q[1]
        if kind == "family":
            conic, ((rho, phi), (drho, dphi)) = answer
            x, y = lib.surface.exp_map_to_cartesian(spec, rho, phi)
            h_conic = _conic_headroom(conic, x, y)
            ds2 = lib.surface.line_element_isometric(spec, rho, drho, dphi)
            h_speed = abs(abs(ds2) - 1.0) / 1e-9
            out.record_headroom("family_conic", h_conic)
            out.record_headroom("family_unit_speed", h_speed)
            if not (h_conic <= 1.0 and h_speed <= 1.0):
                return f"family sample off its conic or not unit speed: {q}"
            return None
        if kind == "two_point":
            _, _, z1, z2 = q
            sol, conic = answer
            apply = lib.motion.apply
            inv = lib.motion.inverse_motion(sol.motion)
            w1, w2 = apply(sol.motion, z1), apply(sol.motion, z2)
            b1, b2 = apply(inv, w1), apply(inv, w2)
            # the image of z2 is compared relative to its size l
            worst = max(
                abs(w1.x), abs(w1.y), max(abs(w2.x - sol.l), abs(w2.y)) / max(1.0, abs(sol.l)),
                abs(b1.x - z1.x), abs(b1.y - z1.y), abs(b2.x - z2.x), abs(b2.y - z2.y),
            )
            # the round trip loses digits in proportion to the motion's
            # distortion at l: 1 + l^2 at positive curvature, and at
            # negative curvature (1 + l^2) / min(1, |1 - l^2|), where l = 1
            # is the boundary of the model
            l2 = sol.l * sol.l
            positive = spec.curvature_sign is lib.surface.CurvatureSign.POSITIVE
            scale = 1.0 + l2 if positive else (1.0 + l2) / min(1.0, max(abs(1.0 - l2), 1e-16))
            h_round = worst / (1e-12 * min(scale, self.ROUND_TRIP_CAP))
            r = spec.radius
            h_conic = max(_conic_headroom(conic, z.x * r, z.y * r) for z in (z1, z2))
            out.record_headroom("normal_form", h_round)
            out.record_scale("normal_form", scale)
            out.record_headroom("conic_through", h_conic)
            if not (h_round <= 1.0 and h_conic <= 1.0):
                return f"two-point answer fails normal form or conic: {q}"
            return None
        z1, z2, dist = answer
        m = self._motion(spec, q[5])
        c1, c2 = lib.motion.apply(m, z1), lib.motion.apply(m, z2)
        moved = lib.motion.geodesic_distance(spec, c1, c2)
        # the two-point solver multiplies coordinates, so it loses digits in
        # proportion to |z|^2 where a motion sent a point far out (near its pole)
        scale = max(1.0, *(z.x * z.x + z.y * z.y for z in (z1, z2, c1, c2)))
        h_inv = abs(moved - dist) / max(1.0, abs(dist)) / (1e-9 * min(scale, self.DISTANCE_CAP))
        out.record_headroom("distance_invariance", h_inv)
        out.record_scale("distance_invariance", scale)
        if not (math.isfinite(dist) and h_inv <= 1.0):
            return f"distance {dist} changes to {moved} under a motion: {q}"
        return None

    def _one(self, q, out: Outcome, tracer=None, request: int = 0) -> None:
        geometry_error = self.lib.errors.GeometryError
        out.attempted += 1
        out.work += 1
        t0 = perf_counter()
        try:
            with _span(tracer, f"query.{q[0]}", request):
                answer = self._call(q)
        except geometry_error as exc:
            out.latencies.append(perf_counter() - t0)
            with _gate(tracer, f"check.{q[0]}", request):
                message = self._check_rejection(q, exc)
            if message is None:
                out.rejected += 1
            else:
                out.fail(message)
            return
        out.latencies.append(perf_counter() - t0)
        with _gate(tracer, f"check.{q[0]}", request):
            try:
                message = self._check(q, answer, out)
            except geometry_error as exc:
                message = f"check of an answered query raised {exc!r}: {q}"
        if message is not None:
            out.fail(message)

    def _probe_nulls(self, out: Outcome, tracer=None) -> None:
        """Untimed: each exactly null-separated pair, asked as a two-point and
        as a distance query, must be rejected with ``NoGeodesic``."""
        errors = self.lib.errors
        with _gate(tracer, "check.null_probes", 0):
            for spec, z1, z2 in self.null_probes:
                for q in (("two_point", spec, z1, z2), ("distance", spec, z1, z2, None, None)):
                    out.attempted += 1
                    try:
                        self._call(q)
                    except errors.NoGeodesic:
                        continue
                    except errors.GeometryError as exc:
                        out.fail(f"null-separated pair rejected with {exc!r}, not NoGeodesic: {q}")
                        continue
                    out.fail(f"null-separated pair was answered: {q}")

    def warm_up(self) -> None:
        self.run_fixed()

    def run_timed(self, seconds: float) -> Outcome:
        out = Outcome()
        queries = self.stream()
        start = perf_counter()
        while perf_counter() - start < seconds:
            for q in itertools.islice(queries, 64):
                self._one(q, out)
        self._probe_nulls(out)
        return out

    def run_fixed(self, tracer=None) -> Outcome:
        out = Outcome()
        for i, q in enumerate(self.fixed):
            self._one(q, out, tracer, i)
        self._probe_nulls(out, tracer)
        return out


# --------------------------------------------------------------------------
# bulk sampling


class BulkSampling:
    """In-process ``cli.main`` requests with large ``--samples``.

    One block of requests covers a family geodesic and a two-point geodesic
    on each of the four surfaces, at seeded radii, and a worldline, each in
    json and csv.  The kinds in a block are fixed, so the latency mix is the
    same for every seed; their parameters are drawn once from the seed and
    the block is repeated.  Every emitted file is parsed and checked: the
    sample count, every sample on the conic, the worldline residual column.
    A json two-point answer holds the conic and the motion but no samples;
    only its two points are checked against the conic, and it emits no work.
    """

    name = "bulk_sampling"
    SAMPLES = 4097

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed
        self.out_path = os.path.join(workdir, f"bulk_{os.getpid()}.out")
        self.block = self._draw_block(np.random.default_rng([seed, 2]))

    def _draw_block(self, rng) -> list[dict]:
        n = str(self.SAMPLES)
        block = []
        for fmt in ("json", "csv"):
            for name in SURFACES:
                r = float(rng.choice((0.5, 1.0, 2.0, 3.0)))
                eps = (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(0.1, 1.2)
                sigma = rng.uniform(-1.5, 1.5)
                block.append({
                    "kind": "family", "fmt": fmt, "surface": name, "R": r,
                    "eps": eps, "sigma": sigma,
                    "argv": ["geodesic", "--surface", name, "--R", repr(r),
                             "--eps", repr(eps), "--sigma", repr(sigma),
                             "--samples", n, "--format", fmt],
                })
            for name in SURFACES:
                block.append(self._two_point(rng, name, fmt))
            g = rng.uniform(0.5, 2.0)
            t0, x0 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
            block.append({
                "kind": "worldline", "fmt": fmt, "g": g, "t0": t0, "x0": x0,
                "argv": ["worldline", "--g", repr(g), "--t0", repr(t0), "--x0", repr(x0),
                         "--s-range", f"-2,2,{n}", "--format", fmt],
            })
        return block

    def _two_point(self, rng, name: str, fmt: str) -> dict:
        """A joinable pair: redraw until the solver accepts it (untimed)."""
        r = float(rng.choice((0.5, 1.0, 2.0)))
        spec = self.lib.surface.SurfaceSpec.from_name(name, r)
        nf = self.lib.motion.number_for
        while True:
            p1 = rng.uniform(-0.4 * r, 0.4 * r, 2)
            p2 = rng.uniform(-0.4 * r, 0.4 * r, 2)
            try:
                self.lib.motion.solve_two_point(spec, nf(spec, *p1 / r), nf(spec, *p2 / r))
            except self.lib.errors.GeometryError:
                continue
            pts = [f"{float(p1[0])!r},{float(p1[1])!r}", f"{float(p2[0])!r},{float(p2[1])!r}"]
            return {
                "kind": "two_point", "fmt": fmt, "surface": name, "R": r,
                "p1": tuple(float(v) for v in p1), "p2": tuple(float(v) for v in p2),
                "argv": ["geodesic", "--surface", name, "--R", repr(r), "--points", *pts,
                         "--samples", str(self.SAMPLES), "--format", fmt],
            }

    # -- checking ------------------------------------------------------------

    def _check(self, req: dict, text: str, out: Outcome) -> tuple[str | None, int]:
        """Verify one emitted file; return a failure message or None, and
        the number of samples parsed from it."""
        lib = self.lib
        n = self.SAMPLES
        kind, fmt = req["kind"], req["fmt"]
        if kind == "worldline":
            if fmt == "json":
                rows = [(s["s"], s["t"], s["x"], s["residual"]) for s in json.loads(text)["samples"]]
            else:
                rows = [tuple(map(float, row)) for row in list(csv.reader(text.splitlines()))[1:]]
            arr = np.array(rows, dtype=float).reshape(-1, 4)
            g, t0, x0 = req["g"], req["t0"], req["x0"]
            dt = arr[:, 1] - t0
            dx = arr[:, 2] - x0 + 1.0 / g
            target = 1.0 / (g * g)
            recomputed = np.abs(dx * dx - dt * dt - target) / np.maximum(target, dx * dx)
            h = max(float(arr[:, 3].max(initial=0.0)) / 1e-12, float(recomputed.max(initial=0.0)) / 1e-9)
            out.record_headroom("worldline_residual", h)
            if len(arr) != n or not h <= 1.0:
                return f"worldline output has {len(arr)} rows, residual {h:.3g} x tol", len(arr)
            return None, len(arr)

        spec = lib.surface.SurfaceSpec.from_name(req["surface"], req["R"])
        if kind == "family":
            if fmt == "json":
                doc = json.loads(text)
                c = doc["conic"]
                conic = lib.geodesic.GeodesicConic(
                    c["quad"], c["lin_x"], c["lin_y"], c["const_term"], spec
                )
                xy = np.array([(s["x"], s["y"]) for s in doc["samples"]], dtype=float)
            else:
                conic = lib.geodesic.geodesic_from_constants(spec, req["eps"], req["sigma"])
                rows = list(csv.reader(text.splitlines()))[1:]
                xy = np.array([(float(r[3]), float(r[4])) for r in rows], dtype=float)
            parsed = len(xy)
        else:
            r = req["R"]
            nf = lib.motion.number_for
            z1 = nf(spec, req["p1"][0] / r, req["p1"][1] / r)
            z2 = nf(spec, req["p2"][0] / r, req["p2"][1] / r)
            if fmt == "json":
                c = json.loads(text)["conic"]
                conic = lib.geodesic.GeodesicConic(
                    c["quad"], c["lin_x"], c["lin_y"], c["const_term"], spec
                )
                xy = np.array([req["p1"], req["p2"]], dtype=float)
                n = 2
                parsed = 0
            else:
                conic = lib.motion.geodesic_through(spec, z1, z2)
                rows = list(csv.reader(text.splitlines()))[1:]
                xy = np.array([(float(r[1]), float(r[2])) for r in rows], dtype=float)
                parsed = len(xy)
                ends = xy[[0, -1]] if len(xy) else np.zeros((2, 2))
                scale = max(1.0, float(np.abs(xy).max(initial=0.0)))
                end_err = float(np.abs(ends - np.array([req["p1"], req["p2"]])).max()) / scale
                out.record_headroom("path_endpoints", end_err / 1e-9)
                if end_err > 1e-9:
                    return f"two-point path does not end at the points: {req['argv']}", parsed
        h = self._conic_headroom_array(conic, xy)
        out.record_headroom(f"{kind}_conic", h)
        if len(xy) != n or not h <= 1.0:
            return f"{len(xy)} samples, conic residual {h:.3g} x tol: {req['argv']}", parsed
        return None, parsed

    @staticmethod
    def _conic_headroom_array(conic, xy) -> float:
        if len(xy) == 0:
            return 0.0
        x, y = xy[:, 0], xy[:, 1]
        s = conic.spec.metric_sign
        res = conic.quad * (x * x + s * y * y) + conic.lin_x * x + conic.lin_y * y + conic.const_term
        term = np.maximum.reduce([
            np.ones_like(x),
            np.abs(conic.quad) * (x * x + y * y),
            np.abs(conic.lin_x * x),
            np.abs(conic.lin_y * y),
            np.full_like(x, abs(conic.const_term)),
        ])
        return float(np.max(np.abs(res) / term)) / 1e-9

    # -- running ---------------------------------------------------------------

    def _one(self, req: dict, out: Outcome, tracer=None, request: int = 0) -> None:
        argv = [*req["argv"], "--out", self.out_path]
        out.attempted += 1
        t0 = perf_counter()
        with _span(tracer, f"request.{req['kind']}", request):
            code = self.lib.cli.main(argv)
        out.latencies.append(perf_counter() - t0)
        with _gate(tracer, f"check.{req['kind']}", request):
            if code != 0:
                message, parsed = f"exit {code}: {req['argv']}", 0
            else:
                with open(self.out_path, encoding="utf-8") as fh:
                    text = fh.read()
                if tracer is not None:
                    tracer.add("cli.main.bytes", len(text.encode("utf-8")))
                message, parsed = self._check(req, text, out)
        if message is None:
            out.work += parsed
        else:
            out.fail(message)

    def warm_up(self) -> None:
        self.run_fixed()

    def run_timed(self, seconds: float) -> Outcome:
        out = Outcome()
        start = perf_counter()
        i = 0
        while perf_counter() - start < seconds:
            self._one(self.block[i % len(self.block)], out)
            i += 1
        return out

    def run_fixed(self, tracer=None) -> Outcome:
        out = Outcome()
        for i, req in enumerate(self.block):
            self._one(req, out, tracer, i)
        return out

    def close(self) -> None:
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
