#!/usr/bin/env python3
"""Benchmark of lorentzcc: closed-loop workloads and a layer trace.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 50 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):

* ``battery``        ``lorentzcc verify --scale 0.3`` in-process: the full
                     ``run_all`` at default tolerances, through ``cli.main``;
* ``point_queries``  a seeded stream of single-answer library calls;
* ``bulk_sampling``  in-process ``cli.main`` requests with 4097 samples
                     (runnable by name; not in BENCHMARK.json, see README).

``--trace 0`` measures for ``--seconds`` with tracing off and prints the
end-to-end metrics.  ``--trace 1`` runs a fixed amount of work once
untraced and twice traced, asserts that every operation count repeats
exactly, writes the span trace under ``.perfbench_out/`` and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report.  ``--workload all`` runs the three
workloads untraced in turn and reports the thirteen named end-to-end
figures of the three together.

The library is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("battery", "point_queries", "bulk_sampling")

# Fresh interpreters per run for setup_s and for the -X importtime split.
SETUP_LAUNCHES = 11
IMPORTTIME_LAUNCHES = 5
IMPORT_STATEMENT = "import lorentzcc, lorentzcc.cli"

# Every traced function, by the name its metrics carry.
TRACED_FUNCTIONS = (
    "oracle.christoffel",
    "oracle.integrate_geodesic",
    "oracle.arc_length",
    "geodesic.geodesic_parametric",
    "geodesic.geodesic_parametric_with_velocity",
    "surface.exp_map_to_cartesian",
    "surface.exp_map_pushforward",
    "motion.apply",
    "motion.inverse_motion",
    "motion.solve_two_point",
    "motion.geodesic_through",
    "motion.geodesic_distance",
    "hypernum.mul",
    "hypernum.inverse",
    "hypernum.conj",
    "hypernum.square_modulus",
    "hypernum.polar",
    "hypernum.hyper_exp",
    "cli.main",
)
TRACED_METHODS = (
    ("surface.MetricField.tensor", "surface", "MetricField", "tensor"),
    ("surface.MetricField.factor", "surface", "MetricField", "factor"),
    ("oracle.TauField", "oracle", "TauField", "__call__"),
)
EXTRA_COUNTS = (
    "oracle.integrate_geodesic.steps",
    "oracle.integrate_geodesic.domain_exits",
    "oracle.arc_length.segments",
    "motion.solve_two_point.rejected",
    "cli.main.bytes",
)


class SetupError(Exception):
    """The checkout does not hold a library the benchmark can run."""


# --------------------------------------------------------------------------
# library and set-up time


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_library() -> types.SimpleNamespace:
    if not (SRC / "lorentzcc" / "__init__.py").is_file():
        raise SetupError(f"no library at {SRC / 'lorentzcc'}")
    sys.path.insert(0, str(SRC))
    import lorentzcc
    import lorentzcc.cli

    if Path(lorentzcc.__file__).resolve().parent != SRC / "lorentzcc":
        raise SetupError(f"imported lorentzcc from {lorentzcc.__file__}, not {SRC}")
    from lorentzcc import cli, errors, geodesic, hypernum, motion, oracle, surface, verify

    return types.SimpleNamespace(
        cli=cli, errors=errors, geodesic=geodesic, hypernum=hypernum,
        motion=motion, oracle=oracle, surface=surface, verify=verify,
    )


def measure_setup() -> list[float]:
    """Seconds from launching a fresh interpreter until the imports are done.

    The child reports the system-wide monotonic clock once the imports are
    done, so interpreter shutdown is not counted.
    """
    code = f"import time; {IMPORT_STATEMENT}; print(repr(time.monotonic()))"
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()) - t0)
    return times


def importtime_split() -> dict[str, float]:
    """Median ``-X importtime`` seconds: numpy (cumulative), lorentzcc.*
    modules (their own time) and every other import."""
    runs = []
    for _ in range(IMPORTTIME_LAUNCHES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_STATEMENT], cwd=ROOT,
            env=_child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        total = numpy = own = 0
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cumulative_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue  # the header line
            module = fields[2].strip()
            total += self_us
            if module == "numpy":
                numpy = cumulative_us
            elif module == "lorentzcc" or module.startswith("lorentzcc."):
                own += self_us
        runs.append((numpy * 1e-6, own * 1e-6, (total - numpy - own) * 1e-6))
    return {
        "setup.numpy_import_s": statistics.median(r[0] for r in runs),
        "setup.lorentzcc_import_s": statistics.median(r[1] for r in runs),
        "setup.other_import_s": statistics.median(r[2] for r in runs),
    }


# --------------------------------------------------------------------------
# statistics


# The tail stops at p99: on a shared 2-core VM, p99.9 and beyond measure
# the host's scheduler, not the library (the eleventh largest of ~10^5
# queries moved by half its value between runs).
TAIL_CAP = 99


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest whole percentile, at most
    ``TAIL_CAP``, with at least ten samples beyond it (nearest rank).  Below
    the median there is none, and the maximum (percentile 100) stands in."""
    ordered = sorted(values)
    n = len(ordered)
    level = min(TAIL_CAP, (100 * (n - 10)) // n) if n > 10 else 0
    if level < 50:
        return 100.0, ordered[-1]
    return float(level), ordered[math.ceil(level * n / 100) - 1]


def end_to_end(out, setup: list[float]) -> tuple[dict[str, float], float]:
    level, worst = tail(out.latencies)
    return {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(out.latencies) * 1e3,
        "op_tail_ms": worst * 1e3,
        "work_per_s": out.work / sum(out.latencies),
    }, level


# --------------------------------------------------------------------------
# tracing


def install_trace(lib, tracer) -> None:
    def count_steps(args, states):
        tracer.add("oracle.integrate_geodesic.steps", len(states) - 1)

    def count_exit(exc):
        if isinstance(exc, lib.errors.DomainExit):
            tracer.add("oracle.integrate_geodesic.steps", len(exc.trajectory) - 1)
            tracer.add("oracle.integrate_geodesic.domain_exits", 1)

    def count_segments(args, total):
        tracer.add("oracle.arc_length.segments", max(0, len(args[1]) - 1))

    def count_rejected(exc):
        tracer.add("motion.solve_two_point.rejected", 1)

    hooks = {
        "oracle.integrate_geodesic": (count_steps, count_exit),
        "oracle.arc_length": (count_segments, None),
        "motion.solve_two_point": (None, count_rejected),
    }
    for name in EXTRA_COUNTS:
        tracer.add(name, 0)
    for name, module, cls, attr in TRACED_METHODS:
        tracer.wrap_method(name, getattr(getattr(lib, module), cls), attr)
    for name in TRACED_FUNCTIONS:
        module, attr = name.split(".")
        on_return, on_raise = hooks.get(name, (None, None))
        tracer.wrap_function(name, getattr(getattr(lib, module), attr), on_return, on_raise)


def traced_run(lib, workload, seed: int):
    """Untraced once, traced twice; returns (metrics, outcome, problems),
    where problems are the ways the two traced passes disagree."""
    from tracer import Tracer

    workload.warm_up()
    t0 = perf_counter()
    workload.run_fixed()
    untraced = perf_counter() - t0

    passes = []
    for _ in range(2):
        tracer = Tracer(lib.errors.GeometryError)
        install_trace(lib, tracer)
        try:
            t0 = perf_counter()
            out = workload.run_fixed(tracer)
            wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        passes.append((tracer, out, wall))
    (tracer, out, wall), (tracer2, out2, _) = passes

    problems = []
    counts, counts2 = tracer.snapshot(), tracer2.snapshot()
    if counts != counts2:
        moved = sorted(k for k in set(counts) | set(counts2) if counts.get(k) != counts2.get(k))
        problems.append(f"operation counts differ between two traced passes: {moved}")
    if (out.attempted, out.failed, out.rejected) != (out2.attempted, out2.failed, out2.rejected):
        problems.append("outcomes differ between two traced passes")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(
        OUT_DIR / f"trace_{workload.name}_{seed}.json",
        {"workload": workload.name, "seed": seed, "wall_s": wall, "untraced_s": untraced},
    )

    metrics = {}
    for name in (*TRACED_FUNCTIONS, *(m[0] for m in TRACED_METHODS)):
        calls, self_s = tracer.stats.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for name in EXTRA_COUNTS:
        metrics[name] = tracer.counts.get(name, 0)
    # per-check wall time from the untraced pass, free of the tracer's cost
    check_wall = getattr(workload, "check_wall", {})
    for check in lib.verify.CHECK_NAMES:
        metrics[f"verify.{check}.wall_s"] = check_wall.get(check, 0.0)
        metrics[f"headroom.{check}"] = out.headroom.get(check, 0.0)
    metrics["headroom_max"] = max(out.headroom.values(), default=0.0)
    for check in ("motion_invariance", "two_point_solver"):
        calls, rejected = getattr(workload, "solve_attempts", {}).get(check, (0, 0))
        metrics[f"verify.{check}.solve_acceptance"] = (calls - rejected) / calls if calls else 0.0
    # share of the measured queries (one latency each) answered by a rejection
    metrics["point_queries.rejection_share"] = out.rejected / len(out.latencies)
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced
    metrics["trace.top_span_coverage"] = tracer.top_span_seconds() / wall
    return metrics, out, problems


# --------------------------------------------------------------------------
# reporting


def make_workload(lib, name: str, seed: int):
    import workloads

    if name == "battery":
        return workloads.Battery(lib, seed)
    if name == "point_queries":
        return workloads.PointQueries(lib, seed)
    OUT_DIR.mkdir(exist_ok=True)
    return workloads.BulkSampling(lib, seed, str(OUT_DIR))


def named_figures(name: str, metrics: dict, out) -> dict[str, tuple[float, str]]:
    """The workload's figures under their per-workload names, for the report."""
    if name == "battery":
        figures = {"battery_s": (metrics["op_p50_ms"] / 1e3, "s")}
        for check in ("oracle_equivalence", "closed_form_consistency", "two_point_solver"):
            figures[f"headroom.{check}"] = (out.headroom.get(check, math.nan), "ratio")
        figures["headroom_max"] = (max(out.headroom.values(), default=math.nan), "ratio")
    elif name == "point_queries":
        figures = {
            "query_p50_us": (metrics["op_p50_ms"] * 1e3, "us"),
            "query_tail_us": (metrics["op_tail_ms"] * 1e3, "us"),
            "queries_per_s": (metrics["work_per_s"], "1/s"),
        }
    else:
        figures = {
            "request_p50_ms": (metrics["op_p50_ms"], "ms"),
            "request_tail_ms": (metrics["op_tail_ms"], "ms"),
            "samples_per_s": (metrics["work_per_s"], "1/s"),
        }
    figures["setup_s"] = (metrics["setup_s"], "s")
    return figures


def print_report(figures: dict, out) -> None:
    for key, (value, unit) in figures.items():
        print(f"{key:34s} {value:.6g} {unit}")
    rate = out.failed / out.attempted if out.attempted else math.nan
    print(f"{'error_rate':34s} {rate:.6g} ({out.failed} failed of {out.attempted}, "
          f"{out.rejected} expected rejections)")
    for name, value in sorted(out.headroom.items()):
        scale = f", worst tolerance scale {out.scale[name]:.4g}" if name in out.scale else ""
        print(f"{'gate ' + name:34s} worst measured/tolerance {value:.4g}{scale}")
    for message in out.failures:
        print(f"FAILED: {message}")


def declared_metrics() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    if set(metrics) != set(units):
        raise SetupError(
            f"metrics and BENCHMARK.json disagree: {sorted(set(metrics) ^ set(units))}"
        )
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def run_one(lib, name: str, seed: int, seconds: float, trace: bool) -> tuple:
    workload = make_workload(lib, name, seed)
    try:
        if trace:
            split = importtime_split()
            metrics, out, problems = traced_run(lib, workload, seed)
            metrics.update(split)
            print(f"# {name}: traced {out.attempted} operations twice; "
                  f"overhead {metrics['trace.overhead_s']:.3f} s, top spans cover "
                  f"{100 * metrics['trace.top_span_coverage']:.1f}% of the traced wall time")
            for problem in problems:
                print(f"FAILED: {problem}")
            print_report({}, out)
            failed = out.failed + len(problems)
        else:
            setup = measure_setup()
            workload.warm_up()
            out = workload.run_timed(seconds)
            metrics, level = end_to_end(out, setup)
            figures = named_figures(name, metrics, out)
            n = len(out.latencies)
            print(f"# {name}: {n} operations, tail = p{level:g} of {n} samples")
            print_report(figures, out)
            failed = out.failed
    finally:
        if hasattr(workload, "close"):
            workload.close()
    return metrics, out, failed, (figures if not trace else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        end_units, layer_units = declared_metrics()
        lib = load_library()
    except (OSError, ValueError, KeyError, SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        if args.trace:
            print("perfbench: --workload all runs untraced only", file=sys.stderr)
            return 2
        combined, setups, attempted, failed = {}, [], 0, 0
        for name in WORKLOADS:
            _, out, n_failed, figures = run_one(lib, name, args.seed, args.seconds, False)
            setups.append(figures.pop("setup_s")[0])
            combined.update(figures)
            attempted += out.attempted
            failed += n_failed
        combined["setup_s"] = (statistics.median(setups), "s")
        combined["error_rate"] = (failed / attempted, "ratio")
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in combined.items()},
        }))
        return 0

    metrics, out, failed, _ = run_one(lib, args.workload, args.seed, args.seconds, bool(args.trace))
    units = layer_units if args.trace else end_units
    print(result_line(failed == 0, out.attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
