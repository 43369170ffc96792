"""The package runs on numpy alone: no scipy module is imported, neither by
``import hypobgk`` and ``import hypobgk.cli`` nor by the CLI subcommands,
the simulation among them, and the spectral gaps.  numpy is the only
runtime dependency; scipy serves the test oracles, which load it into
the test process, so the check runs in a fresh interpreter.  Nor is
``numpy.ma`` imported, which numpy's set routines (``np.unique``,
``np.union1d``, ``np.setdiff1d``) import on first use, nor
``numpy.random``: the verification of the spectral gaps starts its
inverse iteration from a fixed deterministic vector."""

import subprocess
import sys

_SCRIPT = r"""
import math
import os
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

def numpy_modules(*names):
    return sorted(m for m in sys.modules if m.split(".")[:2] in [["numpy", n] for n in names])

import hypobgk
assert not scipy_modules(), ("import hypobgk", scipy_modules())
import hypobgk.cli
assert not scipy_modules(), ("import hypobgk.cli", scipy_modules())

from hypobgk import cli, convergence_study, spectral_gap

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
convergence_study(3, 2.0 * math.pi, 1.0, [21, 84])
print(",".join(scipy_modules() + numpy_modules("ma", "random")))
"""


def test_no_scipy_in_imports_cli_runs_and_gaps(tmp_path):
    # the script prints every scipy, numpy.ma and numpy.random module it
    # loaded
    r = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""
