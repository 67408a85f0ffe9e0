"""numpy is a test and benchmark dependency only: the library and its CLI
import without it and the battery passes with it made unimportable."""

import subprocess
import sys

_PROBE = """
import sys
import lorentzcc, lorentzcc.cli
assert "numpy" not in sys.modules, "importing lorentzcc loaded numpy"
sys.modules["numpy"] = None  # any later 'import numpy' raises ImportError
sys.exit(lorentzcc.cli.main(["verify", "--scale", "0.02"]))
"""


def test_battery_runs_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "10/10 checks passed"
