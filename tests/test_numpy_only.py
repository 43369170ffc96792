"""The package runs on numpy alone: no scipy module is imported, neither by
``import hypobgk`` and ``import hypobgk.cli`` nor by the CLI subcommands,
the simulation among them, and the spectral gaps.  numpy is the only
runtime dependency; scipy serves the test oracles, which load it into
the test process, so the check runs in a fresh interpreter.  Nor is
``numpy.ma`` imported, which numpy's set routines (``np.unique``,
``np.union1d``, ``np.setdiff1d``) import on first use."""

import subprocess
import sys

_SCRIPT = r"""
import math
import os
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

def masked_modules():
    return sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"])

import hypobgk
assert not scipy_modules(), ("import hypobgk", scipy_modules())
import hypobgk.cli
assert not scipy_modules(), ("import hypobgk.cli", scipy_modules())

from hypobgk import cli, spectral_gap

out = sys.argv[1]
commands = [
    ["certificate"],
    ["index"],
    ["minors"],
    ["envelope"],
    ["sweep-L", "--points", "4"],
    ["spectrum", "--trunc", "60"],
    ["simulate", "--kmax", "16", "--tmax", "4"],
]
for i, argv in enumerate(commands):
    code = cli.main([*argv, "--out", os.path.join(out, f"artifact{i}")])
    assert code == 0, (argv, code)
for d, N in ((1, 150), (2, 60), (3, 84)):
    spectral_gap(d, 2.0 * math.pi, [0.0, 1.0, math.sqrt(2.0)], N)
print(",".join(scipy_modules() + masked_modules()))
"""


def test_no_scipy_in_imports_cli_runs_and_gaps(tmp_path):
    # the script prints every scipy and numpy.ma module it loaded
    r = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""
