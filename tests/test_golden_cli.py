"""Golden CLI output: replay the ``geodesic``, ``distance`` and ``worldline``
invocations recorded in ``golden/cli.json`` and compare exit code, stdout
and stderr with the record.

Exit codes and all non-numeric text must match exactly; numeric tokens
within 1e-12 relative, so a last-ulp libm difference on another host does
not fail the suite.  ``verify`` is left out: its 3-digit error readouts move
with last-ulp libm differences, and the acceptance tests pin its verdicts.

Regenerate the record on the commit whose output is the reference with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

from lorentzcc.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

SURFACES = ("def-pos", "def-neg", "lorentz-pos", "lorentz-neg")
# a motion with D(alpha) + kappa D(beta) = 0 on each surface
DEGENERATE = {
    "def-pos": "0,0,0,0",
    "def-neg": "1,0,0,1",
    "lorentz-pos": "1,0,0,1",
    "lorentz-neg": "1,0.5,1,0.5",
}


def invocations():
    for name in SURFACES:
        for radius in (1.0, 2.5):
            surf = ["--surface", name, "--R", f"{radius:g}"]

            def pt(x, y):
                return f"{x * radius:.17g},{y * radius:.17g}"

            pair = [pt(0.1, 0.05), pt(0.4, -0.1)]
            for fmt in ("json", "csv", "svg"):
                yield ["geodesic", *surf, "--eps", "0.3", "--sigma", "0.2",
                       "--samples", "9", "--format", fmt]
                yield ["geodesic", *surf, "--points", *pair, "--samples", "7",
                       "--format", fmt]
            yield ["geodesic", *surf, "--eps", "-0.8", "--sigma", "-1.1"]
            yield ["geodesic", *surf, "--points", pt(-0.2, 0.02), pt(0.3, 0.15)]
            yield ["geodesic", *surf, "--points", pt(0, 0), pt(0.3, 0.3)]
            yield ["geodesic", *surf, "--points", *pair[:1], *pair[:1]]
            yield ["geodesic", *surf, "--eps", "0", "--sigma", "0.5"]
            yield ["distance", *surf, "--points", *pair]
            yield ["distance", *surf, "--points", *pair,
                   "--apply-motion", "1,0.15,0.1,-0.05"]
            yield ["distance", *surf, "--points", pt(0, 0), pt(0.3, 0.3)]
            yield ["distance", *surf, "--points", pair[0], pair[0]]
            yield ["distance", *surf, "--points", *pair,
                   "--apply-motion", DEGENERATE[name]]
            yield ["distance", *surf, "--points", pt(0, 0), pt(1.5, 0)]
            yield ["distance", *surf, "--points", "nan,0", pair[1]]
            yield ["distance", *surf, "--points", pair[0], "inf,0"]
            yield ["geodesic", *surf, "--eps", "nan", "--sigma", "0.1"]
    yield ["geodesic", "--surface", "lorentz-pos", "--eps", "0.5", "--sigma", "1000"]
    yield ["geodesic", "--surface", "def-neg", "--eps", "800", "--sigma", "0.1"]
    yield ["geodesic", "--surface", "def-pos", "--eps", "0.3", "--sigma", "0.1",
           "--samples", "1"]
    yield ["geodesic", "--surface", "def-neg", "--eps", "0.3", "--sigma", "0",
           "--points", "0,0", "0.5,0"]
    yield ["geodesic", "--surface", "def-neg", "--points", "1;2", "0,0"]
    yield ["distance", "--surface", "def-neg", "--R", "inf", "--points", "0,0", "0.5,0"]
    yield ["distance", "--surface", "def-pos", "--points", "1e200,0", "3e200,0"]
    yield ["distance", "--surface", "lorentz-pos", "--points", "0.1,0", "0.3,0.1",
           "--apply-motion", "1e200,0,0,0"]
    yield ["distance", "--surface", "def-neg", "--points", "0.1,0", "0.3,0.1",
           "--apply-motion", "nan,0,0,0"]
    yield ["worldline", "--g", "0.8", "--s-range", "-2,2,21"]
    yield ["worldline", "--g", "1.5", "--t0", "0.5", "--x0", "-1", "--s-range",
           "0,1,3", "--format", "json"]
    yield ["worldline", "--g", "1", "--s-range", "0,400,3"]
    yield ["worldline", "--g", "1", "--s-range", "0,1000,3"]
    yield ["worldline", "--g", "1e200", "--s-range", "0,1,3"]
    yield ["worldline", "--g", "-1", "--s-range", "0,1"]


def run(argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _same_text(got: str, want: str) -> bool:
    """Equal outside numeric tokens, numeric tokens within 1e-12 relative."""
    if _NUMBER.split(got) != _NUMBER.split(want):
        return False
    pairs = zip(_NUMBER.findall(got), _NUMBER.findall(want))
    return all(
        g == w or math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=0.0)
        for g, w in pairs
    )


def pytest_generate_tests(metafunc):
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    metafunc.parametrize("record", records, ids=[" ".join(r["argv"]) for r in records])


def test_cli_output_matches_golden(record):
    code, out, err = run(record["argv"])
    assert code == record["exit"]
    assert _same_text(out, record["stdout"]), out
    assert _same_text(err, record["stderr"]), err


if __name__ == "__main__":
    records = []
    for argv in invocations():
        code, out, err = run(argv)
        records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} invocations -> {GOLDEN}")
