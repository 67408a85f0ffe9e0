"""Command-line interface.

Subcommands: ``geodesic`` (closed-form geodesics, by family constants or
through two points), ``distance`` (invariant distance between two points),
``worldline`` (uniformly accelerated observer samples), ``verify`` (the
cross-check battery).  Output is deterministic for fixed arguments and seed;
floats are emitted with 17 significant digits in json/csv so round trips are
exact.  Set ``LORENTZCC_LOG=debug`` for diagnostics on stderr.

Exit codes: 0 success, 1 failed verification checks, 2 bad input or a domain
error (reported as a one-line json object on stderr).
"""

from __future__ import annotations

import argparse
import json as _jsonlib
import logging
import math
import os
import re
import sys

from .errors import GeometryError
from .geodesic import Worldline, geodesic_family, geodesic_from_constants
from .motion import (
    BilinearMotion,
    apply as motion_apply,
    geodesic_distance,
    inverse_motion,
    number_for,
    solve_two_point,
)
from .surface import SURFACE_NAMES, SurfaceSpec, exp_map_to_cartesian
from .verify import CHECK_NAMES, _linspace, run_all

logger = logging.getLogger("lorentzcc")


# --------------------------------------------------------------------------
# serialization helpers (deterministic: fixed float formatting, fixed order)


def _json_dumps(obj) -> str:
    if isinstance(obj, dict):
        inner = ", ".join(f"{_jsonlib.dumps(k)}: {_json_dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_dumps(v) for v in obj) + "]"
    if isinstance(obj, float):
        return format(obj, ".17g")
    return _jsonlib.dumps(obj)


def _csv_row(values) -> str:
    return ",".join(format(v, ".17g") for v in values)


# --------------------------------------------------------------------------
# parsing helpers


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected a point as 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _physical_points(args, spec: SurfaceSpec):
    """The two ``--points`` as physical pairs and as normalized numbers ``p / R``."""
    r = spec.radius
    p1, p2 = (_parse_point(text) for text in args.points)
    return p1, p2, number_for(spec, p1[0] / r, p1[1] / r), number_for(spec, p2[0] / r, p2[1] / r)


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated values for {what}, got {text!r}")
    return [float(p) for p in parts]


# --------------------------------------------------------------------------
# svg


def _svg_document(spec: SurfaceSpec, curves, markers) -> str:
    """Fixed-frame drawing: [-2R, 2R]^2, y up; curves are (pts, style) pairs."""
    big = 2.0 * spec.radius
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{-big:.6g} {-big:.6g} {2 * big:.6g} {2 * big:.6g}">',
        f'<rect x="{-big:.6g}" y="{-big:.6g}" width="{2 * big:.6g}" '
        f'height="{2 * big:.6g}" fill="white"/>',
    ]
    if spec.metric_sign < 0.0:
        for sgn in (1.0, -1.0):
            lines.append(
                f'<line x1="{-big:.6g}" y1="{sgn * big:.6g}" x2="{big:.6g}" '
                f'y2="{-sgn * big:.6g}" stroke="#bbbbbb" stroke-width='
                f'"{0.01 * big:.6g}" stroke-dasharray="{0.04 * big:.6g}"/>'
            )
    for pts, style in curves:
        clean = [
            (x, y) for x, y in pts
            if math.isfinite(x) and math.isfinite(y)
            and abs(x) <= 5.0 * big and abs(y) <= 5.0 * big
        ]
        if len(clean) < 2:
            continue
        coords = " ".join(f"{x:.6g},{-y:.6g}" for x, y in clean)
        lines.append(f'<polyline fill="none" {style} points="{coords}"/>')
    for x, y in markers:
        lines.append(
            f'<circle cx="{x:.6g}" cy="{-y:.6g}" r="{0.02 * big:.6g}" fill="#d62728"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _limiting_curve_polylines(spec: SurfaceSpec):
    r = spec.radius
    big = 2.0 * r
    if spec.metric_sign > 0.0:
        if spec.kappa > 0.0:
            return []
        ang = _linspace(0.0, 2.0 * math.pi, 129)
        return [[(r * math.cos(a), r * math.sin(a)) for a in ang]]
    # y^2 - x^2 = R^2 (lorentz-pos) and x^2 - y^2 = R^2 are mirror images in y = x
    out = []
    for sgn in (1.0, -1.0):
        branch = [(t, sgn * math.hypot(t, r)) for t in _linspace(-big, big, 65)]
        out.append(branch if spec.kappa > 0.0 else [(y, x) for x, y in branch])
    return out


_GEO_STYLE = 'stroke="#1f77b4" stroke-width="0.02"'
_LIM_STYLE = 'stroke="#2ca02c" stroke-width="0.015"'


def _render(args, spec, payload, header, rows, curve, markers) -> int:
    """Write the json ``payload``, the csv ``header`` and ``rows``, or the svg
    of ``curve`` and ``markers``, as ``args.format`` asks."""
    if args.format == "json":
        text = _json_dumps(payload) + "\n"
    elif args.format == "csv":
        text = "\n".join([header, *(_csv_row(row) for row in rows)]) + "\n"
    else:
        curves = [(pts, _LIM_STYLE) for pts in _limiting_curve_polylines(spec)]
        curves.append((curve, _GEO_STYLE))
        text = _svg_document(spec, curves, markers)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------------
# subcommands


def _conic_payload(conic) -> dict:
    return {
        "quad": conic.quad,
        "lin_x": conic.lin_x,
        "lin_y": conic.lin_y,
        "const_term": conic.const_term,
    }


def cmd_geodesic(args) -> int:
    spec = SurfaceSpec.from_name(args.surface, args.R)
    if args.points is not None and (args.eps is not None or args.sigma is not None):
        raise ValueError("give either --points or --eps/--sigma, not both")

    if args.samples < 2:
        raise ValueError(f"need at least 2 samples, got {args.samples}")

    if args.points is not None:
        p1, p2, z1, z2 = _physical_points(args, spec)
        r = spec.radius
        logger.debug("two-point geodesic on %s through %s and %s", spec.name, p1, p2)
        sol = solve_two_point(spec, z1, z2)
        inv = inverse_motion(sol.motion)
        path = []
        for t in _linspace(0.0, sol.l, args.samples):
            w = motion_apply(inv, number_for(spec, t, 0.0))
            path.append((t, w.x * r, w.y * r))
        payload = {
            "surface": spec.name,
            "radius": spec.radius,
            "mode": "two_point",
            "points": [list(p1), list(p2)],
            "l": sol.l,
            "distance": sol.distance,
            "motion": {
                "alpha": [sol.motion.alpha.x, sol.motion.alpha.y],
                "beta": [sol.motion.beta.x, sol.motion.beta.y],
                "theta_alpha": sol.theta_alpha,
                "theta_beta": sol.theta_beta,
                "rho_beta": sol.rho_beta,
            },
            "conic": _conic_payload(sol.conic),
        }
        curve = [(x, y) for _, x, y in path]
        return _render(args, spec, payload, "t,x,y", path, curve, [p1, p2])

    if args.eps is None or args.sigma is None:
        raise ValueError("family mode needs both --eps and --sigma")
    logger.debug("family geodesic on %s, eps=%s sigma=%s", spec.name, args.eps, args.sigma)
    conic = geodesic_from_constants(spec, args.eps, args.sigma)
    fam = geodesic_family(spec, args.eps, args.sigma)
    lo, hi = fam.window
    if math.isinf(lo):  # definite surfaces
        lo, hi = -2.0, 2.0
    elif math.isinf(hi):  # lorentz-neg: the branch beyond lo
        lo, hi = lo + 0.02, lo + 2.0
    else:  # lorentz-pos: 1% in from each edge
        pad = 0.01 * (hi - lo)
        lo, hi = lo + pad, hi - pad
    r = spec.radius
    samples = []
    for u in _linspace(lo, hi, args.samples):
        (rho, phi), _ = fam.state(u)
        x, y = exp_map_to_cartesian(spec, rho, phi)
        samples.append((fam.tau0 + r * u, rho, phi, x, y))
    payload = {
        "surface": spec.name,
        "radius": spec.radius,
        "mode": "family",
        "eps": args.eps,
        "sigma": args.sigma,
        "A": r * fam.S,
        "tau0": fam.tau0,
        "conic": _conic_payload(conic),
        "samples": [
            {"tau": t, "rho": rho, "phi": phi, "x": x, "y": y}
            for t, rho, phi, x, y in samples
        ],
    }
    curve = [(x, y) for *_, x, y in samples]
    return _render(args, spec, payload, "tau,rho,phi,x,y", samples, curve, [])


def cmd_distance(args) -> int:
    spec = SurfaceSpec.from_name(args.surface, args.R)
    _, _, z1, z2 = _physical_points(args, spec)
    if args.apply_motion:
        ax, ay, bx, by = _parse_floats(args.apply_motion, 4, "--apply-motion")
        motion = BilinearMotion(number_for(spec, ax, ay), number_for(spec, bx, by), spec)
        logger.debug("moving both points by alpha=(%g,%g) beta=(%g,%g)", ax, ay, bx, by)
        z1 = motion_apply(motion, z1)
        z2 = motion_apply(motion, z2)
    print(f"{geodesic_distance(spec, z1, z2):.15g}")
    return 0


def cmd_worldline(args) -> int:
    wl = Worldline(args.t0, args.x0, args.g)
    parts = args.s_range.split(",")
    if len(parts) == 2:
        lo, hi, n = float(parts[0]), float(parts[1]), 101
    elif len(parts) == 3:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    else:
        raise ValueError(f"expected --s-range lo,hi[,n], got {args.s_range!r}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    rows = []
    for s in _linspace(lo, hi, n):
        t, x = wl.position(s)
        rows.append((s, t, x, wl.invariant_residual(s)))
    payload = {
        "g": args.g,
        "t0": args.t0,
        "x0": args.x0,
        "samples": [{"s": s, "t": t, "x": x, "residual": res} for s, t, x, res in rows],
    }
    return _render(args, None, payload, "s,t,x,residual", rows, None, [])


def cmd_verify(args) -> int:
    names = tuple(args.check) if args.check else None
    results = run_all(
        seed=args.seed, perturb=args.perturb_metric, scale=args.scale, names=names
    )
    for res in results:
        print(res.summary_line())
    n_pass = sum(1 for res in results if res.passed)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser (and, through ``add_subparsers``, its subparsers)
    that reports bad arguments as a ``ValueError``, so they exit 2 with one
    line of json like every other bad input."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like "-0.3,0.1" pass as arguments instead of option
        # flags; none of our option names starts with a digit or a dot
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lorentzcc",
        description="Closed-form geometry of constant-curvature Riemann and "
        "Lorentz surfaces, with numerical cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    geo = sub.add_parser("geodesic", help="conic form and samples of a geodesic")
    geo.add_argument("--surface", choices=SURFACE_NAMES, required=True)
    geo.add_argument("--R", type=float, default=1.0, help="surface radius (default 1)")
    geo.add_argument("--eps", type=float, default=None, help="family constant eps")
    geo.add_argument("--sigma", type=float, default=None, help="family constant sigma")
    geo.add_argument(
        "--points",
        nargs=2,
        metavar=("X1,Y1", "X2,Y2"),
        default=None,
        help="two physical Cartesian-chart points to join instead of --eps/--sigma",
    )
    geo.add_argument("--samples", type=int, default=33, help="number of emitted samples")
    geo.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    geo.add_argument("--out", default=None, help="write to a file instead of stdout")
    geo.set_defaults(func=cmd_geodesic)

    dist = sub.add_parser("distance", help="invariant distance between two points")
    dist.add_argument("--surface", choices=SURFACE_NAMES, required=True)
    dist.add_argument("--R", type=float, default=1.0)
    dist.add_argument("--points", nargs=2, metavar=("X1,Y1", "X2,Y2"), required=True)
    dist.add_argument(
        "--apply-motion",
        default=None,
        metavar="AX,AY,BX,BY",
        help="move both (normalized) points by this motion first; the "
        "distance must not change",
    )
    dist.set_defaults(func=cmd_distance)

    wl = sub.add_parser("worldline", help="uniformly accelerated worldline samples")
    wl.add_argument("--g", type=float, required=True, help="proper acceleration > 0")
    wl.add_argument("--t0", type=float, default=0.0)
    wl.add_argument("--x0", type=float, default=0.0)
    wl.add_argument("--s-range", default="-2,2,101", help="proper-time range lo,hi[,n]")
    wl.add_argument("--format", choices=("csv", "json"), default="csv")
    wl.add_argument("--out", default=None)
    wl.set_defaults(func=cmd_worldline)

    ver = sub.add_parser("verify", help="run the cross-check battery")
    ver.add_argument("--seed", type=int, default=1234)
    ver.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    ver.add_argument("--check", action="append", choices=CHECK_NAMES, help="run a subset")
    ver.add_argument("--perturb-metric", type=float, default=0.0, help=argparse.SUPPRESS)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("LORENTZCC_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(name)s %(levelname)s %(message)s",
        )
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (GeometryError, ValueError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(_json_dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
