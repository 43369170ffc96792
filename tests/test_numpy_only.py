"""The package runs on numpy alone: no scipy module is imported, neither by
``import hypobgk`` and ``import hypobgk.cli`` nor by the CLI subcommands
and the spectral gaps.  scipy is left to the propagator fallback of
:mod:`hypobgk.sim` and to the test oracles, so the check runs in a fresh
interpreter."""

import subprocess
import sys

_SCRIPT = r"""
import math
import os
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

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
print(",".join(scipy_modules()))
"""


def test_no_scipy_in_imports_cli_runs_and_gaps(tmp_path):
    r = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""
