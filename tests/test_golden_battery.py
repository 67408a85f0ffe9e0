"""Golden battery errors: every named sub-error of ``run_all(seed, scale=0.3)``
for the seeds of ``golden/battery.json`` stays within a factor of two of its
record, so a change cannot let a check drift toward its bound unnoticed.

A value recorded below 1e-3 of its tolerance (``value / bound <= 1e-3 *
tolerance``) sits at rounding level, where a factor of two is noise; it only
has to stay below that level.  The set of checks and sub-error names must
match the record exactly.

Regenerate the record on the commit whose errors are the reference with
``PYTHONPATH=src python tests/test_golden_battery.py``.
"""

import functools
import json
from pathlib import Path

import pytest

from lorentzcc import run_all

GOLDEN = Path(__file__).with_name("golden") / "battery.json"
SEEDS = (1, 7)
SCALE = 0.3
NOISE_LEVEL = 1e-3


@functools.lru_cache(maxsize=None)
def _errors(seed):
    """``{(check, sub-error): (value, bound, tolerance)}`` of one run."""
    return {
        (res.name, label): (value, bound, res.tolerance)
        for res in run_all(seed=seed, scale=SCALE)
        for label, value, bound in res.errors
    }


def _records():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
def test_sub_error_names_match_record(seed):
    want = {(r["check"], r["name"]) for r in _records() if r["seed"] == seed}
    assert set(_errors(seed)) == want


def pytest_generate_tests(metafunc):
    if "record" in metafunc.fixturenames:
        records = _records()
        ids = [f"{r['seed']}-{r['check']}-{r['name']}" for r in records]
        metafunc.parametrize("record", records, ids=ids)


def test_sub_error_within_drift_of_record(record):
    value, _, _ = _errors(record["seed"])[record["check"], record["name"]]
    floor = NOISE_LEVEL * record["tolerance"] * record["bound"]
    if record["value"] <= floor:
        assert value <= floor, (value, floor)
    else:
        assert 0.5 * record["value"] <= value <= 2.0 * record["value"], (value, record)


if __name__ == "__main__":
    records = [
        {"seed": seed, "check": check, "name": name,
         "value": value, "bound": bound, "tolerance": tolerance}
        for seed in SEEDS
        for (check, name), (value, bound, tolerance) in _errors(seed).items()
    ]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} sub-errors -> {GOLDEN}")
