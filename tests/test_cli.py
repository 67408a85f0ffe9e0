"""End-to-end command-line tests.

Most run ``cli.main`` in-process; one test starts ``python -m lorentzcc.cli``
to cover the module entry point and its exit codes.
"""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden_cli import run

from lorentzcc import SURFACE_NAMES
from lorentzcc.cli import main


def run_cli(*args, check=False):
    """``returncode``, ``stdout`` and ``stderr`` of one in-process CLI call."""
    proc = subprocess.CompletedProcess(args, *run(list(args)))
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def test_module_entry_point_exit_codes():
    fast = ["verify", "--seed", "9", "--scale", "0.02", "--check"]
    cases = [
        ([*fast, "algebra_properties"], 0, "1/1 checks passed"),
        ([*fast, "profile_curvature", "--perturb-metric", "1e-3"], 1, "0/1 checks passed"),
        (["geodesic", "--surface", "def-pos", "--eps", "0", "--sigma", "0.5"], 2, None),
    ]
    for args, code, last_line in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "lorentzcc.cli", *args],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        if code == 2:
            assert proc.stdout == ""
            assert len(proc.stderr.splitlines()) == 1
            assert json.loads(proc.stderr)["error"] == "DegenerateEpsilon"
        else:
            assert proc.stderr == ""
            assert proc.stdout.splitlines()[-1] == last_line


class TestGeodesicCommand:
    def test_family_json_fields(self):
        proc = run_cli(
            "geodesic", "--surface", "lorentz-neg", "--eps", "0.3",
            "--sigma", "0.2", "--samples", "7", check=True,
        )
        doc = json.loads(proc.stdout)
        assert doc["surface"] == "lorentz-neg"
        assert doc["mode"] == "family"
        assert doc["A"] == pytest.approx(math.sin(0.3))
        assert doc["tau0"] == pytest.approx(math.sin(0.3) * 0.2)
        conic = doc["conic"]
        assert set(conic) == {"quad", "lin_x", "lin_y", "const_term"}
        assert len(doc["samples"]) == 7
        for s in doc["samples"]:
            res = (
                conic["quad"] * (s["x"] ** 2 - s["y"] ** 2)
                + conic["lin_x"] * s["x"]
                + conic["lin_y"] * s["y"]
                + conic["const_term"]
            )
            scale = max(1.0, abs(conic["lin_x"] * s["x"]), abs(conic["lin_y"] * s["y"]))
            assert abs(res) / scale < 1e-9

    def test_two_point_json(self):
        proc = run_cli(
            "geodesic", "--surface", "def-neg",
            "--points", "0,0", "0.5,0", check=True,
        )
        doc = json.loads(proc.stdout)
        assert doc["mode"] == "two_point"
        assert doc["l"] == pytest.approx(0.5)
        assert doc["distance"] == pytest.approx(math.log(3.0))
        assert "alpha" in doc["motion"] and "beta" in doc["motion"]

    def test_csv_output(self):
        proc = run_cli(
            "geodesic", "--surface", "def-pos", "--eps", "0.5",
            "--sigma", "0.1", "--samples", "5", "--format", "csv", check=True,
        )
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "tau,rho,phi,x,y"
        assert len(lines) == 6

    def test_svg_output(self, tmp_path):
        out = tmp_path / "curve.svg"
        run_cli(
            "geodesic", "--surface", "def-neg",
            "--points", "0.1,0.2", "-0.3,0.1",
            "--format", "svg", "--out", str(out), check=True,
        )
        text = out.read_text()
        assert text.startswith("<svg ")
        assert "polyline" in text
        assert text.rstrip().endswith("</svg>")

    def test_degenerate_eps_exits_2(self):
        proc = run_cli("geodesic", "--surface", "def-pos", "--eps", "0", "--sigma", "0.5")
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "DegenerateEpsilon"
        assert "origin_line" in err["message"]

    def test_malformed_point_exits_2(self):
        proc = run_cli("geodesic", "--surface", "def-neg", "--points", "1;2", "0,0")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "ValueError"

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_fewer_than_two_samples_exit_2(self, samples):
        proc = run_cli(
            "geodesic", "--surface", "def-pos", "--eps", "0.3",
            "--sigma", "0.1", "--samples", samples,
        )
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err == {"error": "ValueError", "message": f"need at least 2 samples, got {samples}"}

    def test_family_samples_stay_distinct_in_a_window_below_an_ulp_of_tau0(self):
        # the window 2 asin(1/cosh 20) ~ 8e-9 is narrower than an ulp of
        # tau0 = sinh(20) * 10 ~ 2.4e9, so samples spaced in tau once
        # collapsed onto tau0; sampled in u they stay apart, while the printed
        # tau = tau0 + R u may still round to one double
        proc = run_cli(
            "geodesic", "--surface", "lorentz-pos", "--eps", "20", "--sigma", "10",
            "--samples", "3", "--format", "csv", check=True,
        )
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        assert len(rows) == 3
        rhos = [float(row[1]) for row in rows]
        assert len(set(rhos)) == 3
        assert rhos[0] < rhos[1] < rhos[2] and rhos[1] == 0.0

    def test_points_and_constants_conflict(self):
        proc = run_cli(
            "geodesic", "--surface", "def-neg", "--eps", "0.3",
            "--sigma", "0", "--points", "0,0", "0.5,0",
        )
        assert proc.returncode == 2


class TestDistanceCommand:
    def test_reference_value(self):
        proc = run_cli(
            "distance", "--surface", "def-neg", "--points", "0,0", "0.5,0",
            check=True,
        )
        assert proc.stdout.strip() == "1.09861228866811"

    def test_base_point_next_to_the_origin(self):
        # (1e-6, 0) once read as a point of a null line, and the pair exited 2
        proc = run_cli(
            "distance", "--surface", "lorentz-pos", "--points", "1e-6,0", "0.5,0.1",
            check=True,
        )
        assert proc.stdout.strip() == "0.911064672715205"

    @pytest.mark.parametrize(
        "surface, radius, p1, p2",
        [
            # z = p / R fell under an absolute coincidence floor: printed 0
            ("def-pos", "1e20", "0,0", "2e5,1e5"),
            # D(z2 - z1) = 3e-14 fell under an absolute null guard: exit 2
            ("lorentz-pos", "1", "0,0", "2e-7,1e-7"),
            # a physical pair refused from R = 1e6 on, as null-separated
            ("lorentz-pos", "1e6", "0.1,0.05", "0.5,0.2"),
            ("lorentz-neg", "1e6", "0.1,0.05", "0.5,0.2"),
        ],
    )
    def test_short_separation_reads_the_flat_distance(self, surface, radius, p1, p2):
        # far below R the distance is 2 sqrt|dx^2 + s dy^2| (the factor 4 of
        # the origin) up to a relative (p / R)^2
        proc = run_cli("distance", "--surface", surface, "--R", radius,
                       "--points", p1, p2, check=True)
        (x1, y1), (x2, y2) = ([float(v) for v in p.split(",")] for p in (p1, p2))
        s = -1.0 if surface.startswith("lorentz") else 1.0
        flat = 2.0 * math.sqrt(abs((x2 - x1) ** 2 + s * (y2 - y1) ** 2))
        assert float(proc.stdout) == pytest.approx(flat, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("radius", ["1.23e-71", "1", "1e20", "8.1e75"])
    @pytest.mark.parametrize("surface", SURFACE_NAMES)
    def test_distance_and_geodesic_points_agree(self, surface, radius):
        # both read one solution of two distinct points: the same distance,
        # or the same error
        for points in (("0,0", "2e5,1e5"), ("0.1,0.05", "0.5,0.2"), ("0,0", "5e-15,0"),
                       ("1e-60,0", "3e-60,1e-60"), ("0.3,0.12", "-1e10,2e10")):
            args = ["--surface", surface, "--R", radius, "--points", *points]
            dist = run_cli("distance", *args)
            geo = run_cli("geodesic", *args, "--samples", "3")
            if dist.returncode == 0:
                assert geo.returncode == 0, (points, geo.stderr)
                distance = json.loads(geo.stdout)["distance"]
                assert format(distance, ".15g") == dist.stdout.strip(), points
            else:
                assert dist.returncode == geo.returncode == 2, (points, geo.stdout)
                error = json.loads(dist.stderr)["error"]
                assert json.loads(geo.stderr)["error"] == error, points

    @pytest.mark.parametrize(
        "surface, motion",
        [
            ("lorentz-neg", "1,0.15,0.1,-0.05"),
            # alpha = 1e-7 is the identity up to the common scale of a
            # motion; it once exited 2 with InvalidMotion
            *((surface, "1e-7,0,0,0") for surface in SURFACE_NAMES),
            # the smallest of these rescalings whose D is still a normal float
            ("def-neg", "1e-150,0,0,0"),
        ],
    )
    def test_motion_invariance(self, surface, motion):
        points = ["--surface", surface, "--points", "0.1,0.2", "0.4,0.1"]
        base = run_cli("distance", *points, check=True)
        moved = run_cli("distance", *points, "--apply-motion", motion, check=True)
        assert float(moved.stdout) == pytest.approx(float(base.stdout), rel=1e-12)

    def test_physical_radius_scaling(self):
        # doubling R doubles the invariant distance of scaled points
        base = run_cli(
            "distance", "--surface", "def-neg", "--points", "0,0", "0.5,0",
            check=True,
        )
        scaled = run_cli(
            "distance", "--surface", "def-neg", "--R", "2",
            "--points", "0,0", "1,0", check=True,
        )
        assert float(scaled.stdout) == pytest.approx(2.0 * float(base.stdout))

    def test_degenerate_motion_exits_2(self):
        proc = run_cli(
            "distance", "--surface", "lorentz-pos",
            "--points", "0.1,0", "0.3,0.1", "--apply-motion", "1,0,0,1",
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "InvalidMotion"

    def test_degenerate_motion_message_carries_the_curvature_sign(self):
        # def-neg tests D(alpha) - D(beta), and the message says so
        proc = run_cli(
            "distance", "--surface", "def-neg", "--points", "0.1,0.05", "0.3,-0.02",
            "--apply-motion", "0,0,0,0",
        )
        assert proc.returncode == 2
        assert "D(alpha) - D(beta) = 0.0" in json.loads(proc.stderr)["message"]

    @pytest.mark.parametrize(
        "surface, p1, p2, motion",
        [
            ("def-pos", "1e200,0", "3e200,0", None),
            ("def-neg", "1e200,0", "3e200,0", None),
            ("def-pos", "1e160,0", "0.1,0", "1,0.1,0.2,-0.1"),
            ("lorentz-pos", "0.1,0", "0.3,0.1", "1e200,0,0,0"),
            ("def-neg", "0.1,0", "0.3,0.1", "nan,0,0,0"),
            # D(z2 - z1) is inf - inf: once "nan" with exit 0
            ("lorentz-pos", "1e-153,0", "-1e252,-3e275", None),
            # D(alpha) underflows: once InvalidMotion, and an inverse_parts error
            ("def-neg", "0.1,0.2", "0.4,0.1", "1e-170,0,0,0"),
            ("def-neg", "0.1,0.2", "0.4,0.1", "1e-160,0,0,0"),
        ],
    )
    def test_overflow_inside_finite_input_exits_2(self, surface, p1, p2, motion):
        # D over- or underflows inside finite input, or a motion constant is
        # not finite
        extra = ["--apply-motion", motion] if motion else []
        proc = run_cli("distance", "--surface", surface, "--points", p1, p2, *extra)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr)["error"] == "DomainError"

    @pytest.mark.parametrize(
        "surface, p1, p2, error, message",
        [
            ("def-neg", "0.9999319236004413,-0.011668254613320541",
             "0.5619963055376892,-0.6671012744920237", "NoGeodesic", "lies on the limiting curve"),
            ("lorentz-neg", "107.00931843213104,-107.00464583983829",
             "106.92555108138781,-107.05068167084876", "NoGeodesic", "lies on the limiting curve"),
            ("lorentz-pos", "-1.2060870320479939e154,1.8891710715196855e152",
             "0.40513595643633815,0.3033635465286444", "DomainError", "D of the base point"),
        ],
    )
    def test_solver_motion_faults_name_the_base_point(self, surface, p1, p2, error, message):
        # the motion the solver builds fails its check: once InvalidMotion, or
        # a DomainError about motion constants the caller never gave
        args = ["--surface", surface, "--points", p1, p2]
        dist, geo = run_cli("distance", *args), run_cli("geodesic", *args)
        assert dist.returncode == geo.returncode == 2
        assert dist.stdout == geo.stdout == ""
        assert len(dist.stderr.splitlines()) == 1
        assert geo.stderr == dist.stderr
        doc = json.loads(dist.stderr)
        assert doc["error"] == error and message in doc["message"], doc

    @pytest.mark.parametrize("point", ["nan,0", "inf,0"])
    def test_non_finite_point_exits_2(self, point):
        proc = run_cli("distance", "--surface", "def-neg", "--points", point, "0.5,0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr)["error"] == "DomainError"


# a two-point path sample that the motion sends to infinity
_PATH_TO_INFINITY = (
    "geodesic", "--surface", "def-pos", "--R", "0.5", "--points",
    "5e-324,-1e-300", "1e-8,1e300", "--samples", "5", "--format", "csv",
)


@pytest.mark.parametrize(
    "args",
    [
        ("geodesic", "--surface", "lorentz-pos", "--eps", "0.5", "--sigma", "1000"),
        ("geodesic", "--surface", "lorentz-neg", "--eps", "0.5", "--sigma", "1000"),
        ("geodesic", "--surface", "def-neg", "--eps", "800", "--sigma", "0.1"),
        ("geodesic", "--surface", "lorentz-pos", "--eps", "800", "--sigma", "0.1"),
        ("geodesic", "--surface", "def-neg", "--eps", "nan", "--sigma", "0.1"),
        ("geodesic", "--surface", "lorentz-neg", "--eps", "0.5", "--sigma", "nan"),
        ("geodesic", "--surface", "lorentz-pos", "--eps", "0.5", "--sigma", "inf"),
        ("distance", "--surface", "def-neg", "--R", "inf", "--points", "0,0", "0.5,0"),
        ("worldline", "--g", "1e200", "--s-range", "0,1,3"),
        ("worldline", "--g", "1e-200", "--s-range", "0,1,3"),
        ("worldline", "--g", "1", "--t0", "nan", "--s-range", "0,1,2"),
        # sinh(700) / g overflows: once inf,inf,nan and, in json, bare inf/nan
        ("worldline", "--g", "1e-100", "--s-range", "0,7e102,2"),
        ("worldline", "--g", "1e-100", "--s-range", "0,7e102,2", "--format", "json"),
        # x0 absorbs the displacement: once the residual inf
        ("worldline", "--g", "5.1946932671654176e+38", "--t0", "7.73487485085848e-47",
         "--x0", "5.228747651457688e+207", "--s-range=-7.839751711909104e-37,0,2"),
        # radii whose metric factors underflow or overflow
        ("distance", "--surface", "def-pos", "--R", "1e-160", "--points", "0,0", "3e-161,1e-161"),
        ("distance", "--surface", "lorentz-pos", "--R", "1e300", "--points", "0,0", "0.1e300,0"),
        ("verify", "--scale", "inf"),  # was an OverflowError traceback, exit 1
        ("verify", "--scale", "nan"),
        ("verify", "--scale", "0"),  # 0 and -1 ran the floor workloads
        ("verify", "--scale", "-1"),
        # A = R sinh(eps) overflows while sinh(eps) does not
        ("geodesic", "--surface", "lorentz-pos", "--R", "2", "--eps", "710",
         "--sigma", "0.1", "--samples", "2", "--format", "csv"),
        _PATH_TO_INFINITY,
        # argparse's own errors: once several lines of usage text
        ("geodesic", "--surface", "foo", "--eps", "1", "--sigma", "0"),
        ("geodesic", "--surface", "def-pos", "--eps", "1", "--sigma", "0",
         "--samples", "x"),
        ("verify", "--seed", "-1"),
        ("verify", "--bogus"),
        (),
    ],
)
def test_overflow_and_non_finite_scalars_exit_2(args):
    # once a traceback with exit 1, or an answer holding nan/inf with exit 0
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    if args == _PATH_TO_INFINITY:
        want = ("MapsToInfinity",)
    else:
        want = ("DomainError", "ValueError")
    assert json.loads(proc.stderr)["error"] in want


@pytest.mark.parametrize(
    "args, message",
    [
        (("distance", "--surface", "def-neg", "--points", "0,0", "0.5,0",
          "--apply-motion", "1,0,0"),
         "expected 4 comma-separated values for --apply-motion, got '1,0,0'"),
        (("geodesic", "--surface", "def-pos", "--eps", "0.3"),
         "family mode needs both --eps and --sigma"),
        (("worldline", "--g", "1", "--s-range", "1"), "expected --s-range lo,hi[,n], got '1'"),
        (("worldline", "--g", "1", "--s-range", "0,1,1"), "need at least 2 samples, got 1"),
    ],
)
def test_malformed_option_exits_2_with_its_message(args, message):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "ValueError", "message": message}


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert target == {"lorentzcc": "lorentzcc.cli:main"}
    module, _, name = target["lorentzcc"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: lorentzcc")
    assert "geodesic" in out


class TestWorldlineCommand:
    def test_csv_columns_and_velocity(self):
        proc = run_cli(
            "worldline", "--g", "0.8", "--s-range", "-2,2,41", check=True
        )
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "s,t,x,residual"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == 41
        # central-difference coordinate velocity equals tanh(g s)
        for k in range(1, len(rows) - 1):
            s = rows[k][0]
            dt = rows[k + 1][1] - rows[k - 1][1]
            dx = rows[k + 1][2] - rows[k - 1][2]
            assert dx / dt == pytest.approx(math.tanh(0.8 * s), abs=2e-3)
        assert max(abs(r[3]) for r in rows) < 1e-12

    def test_json_format(self):
        proc = run_cli(
            "worldline", "--g", "1.5", "--t0", "0.5", "--x0", "-1",
            "--s-range", "0,1,3", "--format", "json", check=True,
        )
        doc = json.loads(proc.stdout)
        assert doc["g"] == 1.5
        assert len(doc["samples"]) == 3
        assert doc["samples"][0]["t"] == 0.5

    def test_two_value_range_takes_101_samples(self):
        proc = run_cli("worldline", "--g", "1", "--s-range", "0,1", check=True)
        rows = [[float(v) for v in line.split(",")] for line in proc.stdout.split()[1:]]
        assert len(rows) == 101
        assert (rows[0][0], rows[50][0], rows[-1][0]) == (0.0, 0.5, 1.0)

    def test_residual_finite_where_dx_squared_overflows(self):
        proc = run_cli("worldline", "--g", "1", "--s-range", "0,400,3", check=True)
        rows = [[float(v) for v in line.split(",")] for line in proc.stdout.split()[1:]]
        assert [r[0] for r in rows] == [0.0, 200.0, 400.0]
        assert all(math.isfinite(r[3]) and r[3] <= 1e-12 for r in rows)

    @pytest.mark.parametrize("name", ["lorentz-pos", "lorentz-neg"])
    def test_two_point_json_from_a_null_base_point_matches_distance(self, name):
        # (0.1, 0.1) lies on the null line y = x; geodesic --points once exited
        # 2 from the polar form of the null motion constant beta
        points = ["--surface", name, "--points", "0.1,0.1", "0.5,0.2"]
        doc = json.loads(run_cli("geodesic", *points, check=True).stdout)
        dist = run_cli("distance", *points, check=True).stdout.strip()
        assert format(doc["distance"], ".15g") == dist
        assert doc["motion"]["theta_beta"] == doc["motion"]["rho_beta"] == 0.0

    def test_overflow_exits_2(self):
        proc = run_cli("worldline", "--g", "1", "--s-range", "0,1000,3")
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr)["error"] == "DomainError"

    def test_bad_acceleration_exits_2(self):
        proc = run_cli("worldline", "--g", "-1", "--s-range", "0,1")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "ValueError"


class TestVerifyCommand:
    FAST = ["--scale", "0.02", "--check", "algebra_properties",
            "--check", "worldline_invariant"]

    def test_passing_run(self):
        proc = run_cli("verify", "--seed", "9", *self.FAST, check=True)
        lines = proc.stdout.strip().splitlines()
        assert lines[-1] == "2/2 checks passed"
        assert all(line.startswith("[PASS]") for line in lines[:-1])

    def test_byte_identical_reruns(self):
        a = run_cli("verify", "--seed", "42", *self.FAST, check=True)
        b = run_cli("verify", "--seed", "42", *self.FAST, check=True)
        assert a.stdout == b.stdout

    def test_perturbed_metric_fails_run(self):
        proc = run_cli(
            "verify", "--seed", "9", "--scale", "0.05",
            "--check", "oracle_equivalence", "--perturb-metric", "0.001",
        )
        assert proc.returncode == 1

    def test_unknown_or_malformed_tolerance_exits_2(self):
        # the bounds are pinned: --tol is not an option, and is refused like any
        # unknown argument
        proc = run_cli("verify", *self.FAST, "--tol", "algebra_properties=1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr)["error"] == "ValueError"
