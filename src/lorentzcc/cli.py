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

import numpy as np

from .errors import GeometryError
from .geodesic import (
    constant_A,
    geodesic_from_constants,
    geodesic_parametric,
    parametric_window,
    worldline_hyperbolic,
)
from .motion import (
    BilinearMotion,
    apply as motion_apply,
    geodesic_distance,
    geodesic_through,
    inverse_motion,
    number_for,
    solve_two_point,
)
from .surface import SurfaceSpec, exp_map_to_cartesian
from .verify import CHECK_NAMES, run_all

logger = logging.getLogger("lorentzcc")

_SURFACES = ("def-pos", "def-neg", "lorentz-pos", "lorentz-neg")


# --------------------------------------------------------------------------
# serialization helpers (deterministic: fixed float formatting, fixed order)


def _json_dumps(obj) -> str:
    if isinstance(obj, dict):
        inner = ", ".join(f"{_jsonlib.dumps(k)}: {_json_dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return _jsonlib.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return _jsonlib.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_row(values) -> str:
    cells = []
    for v in values:
        if isinstance(v, (float, np.floating)):
            cells.append(format(float(v), ".17g"))
        else:
            cells.append(str(v))
    return ",".join(cells)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# parsing helpers


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected a point as 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated values for {what}, got {text!r}")
    return [float(p) for p in parts]


def _parse_tolerances(items) -> dict[str, float]:
    tols: dict[str, float] = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"expected --tol name=value, got {item!r}")
        tols[name] = float(value)
    return tols


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
        ang = np.linspace(0.0, 2.0 * math.pi, 129)
        return [[(r * math.cos(a), r * math.sin(a)) for a in ang]]
    out = []
    if spec.kappa > 0.0:
        xs = np.linspace(-big, big, 65)
        for sgn in (1.0, -1.0):
            out.append([(float(x), sgn * math.hypot(x, r)) for x in xs])
    else:
        ys = np.linspace(-big, big, 65)
        for sgn in (1.0, -1.0):
            out.append([(sgn * math.hypot(y, r), float(y)) for y in ys])
    return out


_GEO_STYLE = 'stroke="#1f77b4" stroke-width="0.02"'
_LIM_STYLE = 'stroke="#2ca02c" stroke-width="0.015"'


# --------------------------------------------------------------------------
# subcommands


def _conic_payload(conic) -> dict:
    return {
        "quad": conic.quad,
        "lin_x": conic.lin_x,
        "lin_y": conic.lin_y,
        "const_term": conic.const_term,
    }


def _family_sample_taus(spec: SurfaceSpec, eps: float, sigma: float, n: int):
    lo, hi = parametric_window(spec, eps, sigma)
    r = spec.radius
    tau0 = constant_A(spec, eps) * sigma
    if math.isinf(lo) and math.isinf(hi):
        lo, hi = tau0 - 2.0 * r, tau0 + 2.0 * r
    elif math.isinf(hi):
        span = 2.0 * r
        lo, hi = lo + 0.01 * span, lo + span
    else:
        span = hi - lo
        lo, hi = lo + 0.01 * span, hi - 0.01 * span
    return np.linspace(lo, hi, n)


def cmd_geodesic(args) -> int:
    spec = SurfaceSpec.from_name(args.surface, args.R)
    if args.points is not None and (args.eps is not None or args.sigma is not None):
        raise ValueError("give either --points or --eps/--sigma, not both")

    if args.samples < 2:
        raise ValueError(f"need at least 2 samples, got {args.samples}")

    if args.points is not None:
        p1 = _parse_point(args.points[0])
        p2 = _parse_point(args.points[1])
        r = spec.radius
        z1 = number_for(spec, p1[0] / r, p1[1] / r)
        z2 = number_for(spec, p2[0] / r, p2[1] / r)
        logger.debug("two-point geodesic on %s through %s and %s", spec.name, p1, p2)
        sol = solve_two_point(spec, z1, z2)
        conic = geodesic_through(spec, z1, z2)
        dist = geodesic_distance(spec, z1, z2)
        inv = inverse_motion(sol.motion)
        ts = np.linspace(0.0, sol.l, args.samples)
        path = []
        for t in ts:
            w = motion_apply(inv, number_for(spec, float(t), 0.0))
            path.append((float(t), w.x * r, w.y * r))
        if args.format == "json":
            payload = {
                "surface": spec.name,
                "radius": spec.radius,
                "mode": "two_point",
                "points": [list(p1), list(p2)],
                "l": sol.l,
                "distance": dist,
                "motion": {
                    "alpha": [sol.motion.alpha.x, sol.motion.alpha.y],
                    "beta": [sol.motion.beta.x, sol.motion.beta.y],
                    "theta_alpha": sol.theta_alpha,
                    "theta_beta": sol.theta_beta,
                    "rho_beta": sol.rho_beta,
                },
                "conic": _conic_payload(conic),
            }
            _emit(_json_dumps(payload) + "\n", args.out)
        elif args.format == "csv":
            rows = ["t,x,y"]
            rows += [_csv_row(row) for row in path]
            _emit("\n".join(rows) + "\n", args.out)
        else:
            curves = [(pts, _LIM_STYLE) for pts in _limiting_curve_polylines(spec)]
            curves.append(([(x, y) for _, x, y in path], _GEO_STYLE))
            _emit(_svg_document(spec, curves, [p1, p2]), args.out)
        return 0

    if args.eps is None or args.sigma is None:
        raise ValueError("family mode needs both --eps and --sigma")
    logger.debug("family geodesic on %s, eps=%s sigma=%s", spec.name, args.eps, args.sigma)
    conic = geodesic_from_constants(spec, args.eps, args.sigma)
    taus = _family_sample_taus(spec, args.eps, args.sigma, args.samples)
    samples = []
    for tau in taus:
        rho, phi = geodesic_parametric(spec, args.eps, args.sigma, float(tau))
        x, y = exp_map_to_cartesian(spec, rho, phi)
        samples.append((float(tau), rho, phi, x, y))
    if args.format == "json":
        payload = {
            "surface": spec.name,
            "radius": spec.radius,
            "mode": "family",
            "eps": args.eps,
            "sigma": args.sigma,
            "A": constant_A(spec, args.eps),
            "tau0": constant_A(spec, args.eps) * args.sigma,
            "conic": _conic_payload(conic),
            "samples": [
                {"tau": t, "rho": rho, "phi": phi, "x": x, "y": y}
                for t, rho, phi, x, y in samples
            ],
        }
        _emit(_json_dumps(payload) + "\n", args.out)
    elif args.format == "csv":
        rows = ["tau,rho,phi,x,y"]
        rows += [_csv_row(row) for row in samples]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        curves = [(pts, _LIM_STYLE) for pts in _limiting_curve_polylines(spec)]
        curves.append(([(x, y) for *_, x, y in samples], _GEO_STYLE))
        _emit(_svg_document(spec, curves, []), args.out)
    return 0


def cmd_distance(args) -> int:
    spec = SurfaceSpec.from_name(args.surface, args.R)
    p1 = _parse_point(args.points[0])
    p2 = _parse_point(args.points[1])
    r = spec.radius
    z1 = number_for(spec, p1[0] / r, p1[1] / r)
    z2 = number_for(spec, p2[0] / r, p2[1] / r)
    if args.apply_motion:
        ax, ay, bx, by = _parse_floats(args.apply_motion, 4, "--apply-motion")
        motion = BilinearMotion(number_for(spec, ax, ay), number_for(spec, bx, by), spec)
        logger.debug("moving both points by alpha=(%g,%g) beta=(%g,%g)", ax, ay, bx, by)
        z1 = motion_apply(motion, z1)
        z2 = motion_apply(motion, z2)
    print(f"{geodesic_distance(spec, z1, z2):.15g}")
    return 0


def cmd_worldline(args) -> int:
    wl = worldline_hyperbolic(args.g, args.t0, args.x0)
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
    for s in np.linspace(lo, hi, n):
        t, x = wl.position(float(s))
        rows.append((float(s), t, x, wl.invariant_residual(float(s))))
    if args.format == "json":
        payload = {
            "g": args.g,
            "t0": args.t0,
            "x0": args.x0,
            "samples": [
                {"s": s, "t": t, "x": x, "residual": res} for s, t, x, res in rows
            ],
        }
        _emit(_json_dumps(payload) + "\n", args.out)
    else:
        text = ["s,t,x,residual"] + [_csv_row(row) for row in rows]
        _emit("\n".join(text) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    tols = _parse_tolerances(args.tol)
    names = tuple(args.check) if args.check else None
    results = run_all(
        seed=args.seed,
        tolerances=tols,
        perturb=args.perturb_metric,
        scale=args.scale,
        names=names,
    )
    for res in results:
        print(res.summary_line())
    n_pass = sum(1 for res in results if res.passed)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


# --------------------------------------------------------------------------


def _allow_negative_values(parser: argparse.ArgumentParser) -> None:
    # let values like "-0.3,0.1" pass as arguments instead of option flags;
    # none of our option names starts with a digit or a dot
    if hasattr(parser, "_negative_number_matcher"):
        parser._negative_number_matcher = re.compile(r"^-[\d.]")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzcc",
        description="Closed-form geometry of constant-curvature Riemann and "
        "Lorentz surfaces, with numerical cross-checks.",
    )
    _allow_negative_values(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    geo = sub.add_parser("geodesic", help="conic form and samples of a geodesic")
    _allow_negative_values(geo)
    geo.add_argument("--surface", choices=_SURFACES, required=True)
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
    _allow_negative_values(dist)
    dist.add_argument("--surface", choices=_SURFACES, required=True)
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
    _allow_negative_values(wl)
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
    ver.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help=f"override a check tolerance; names: {', '.join(CHECK_NAMES)}",
    )
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GeometryError, ValueError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(_json_dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
