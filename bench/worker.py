"""One execution of one benchmark workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 bench/worker.py --workload W --seed N
--scale full|tiny --out DIR [--spans FILE --required NAME...]``.  It
imports hypobgk and its command line, makes the workload's inputs from
the seed, times the workload body, then checks every output against an
oracle outside the timed region and prints one JSON line:

* ``t_first``: ``time.monotonic()`` at the first timed call; the parent
  subtracts its spawn time to get the set-up time;
* ``wall_s``, ``cpu_s``: wall and process CPU time of the body;
* ``peak_rss_mb``: ``ru_maxrss`` right after the body;
* ``ops`` and ``failures``: operations attempted and the reason for
  each failed one (exception, non-zero CLI exit code, failed oracle);
* ``artifacts``: sha256 of every CLI artifact;
* ``layers``: per-function span statistics when ``--spans`` is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import sys
import time
from pathlib import Path

import tracing

TWO_PI = 2.0 * math.pi
SRC = Path(__file__).resolve().parent.parent / "src"

#: input sizes.  "full" is what the benchmark measures; "tiny" keeps
#: every operation and oracle but shrinks the work, for smoke tests.
SCALES = {
    "full": {
        "sweep_points": [],
        "gap_kappas": [1, 2, 3, 4, 5],
        "gap_N": 500,
        "conv_N": [25, 50, 100, 200, 400, 500],
        "gap3_count": 5,
        "gap3_N": 220,
        "simulate": [],
    },
    "tiny": {
        "sweep_points": ["--points", "4"],
        "gap_kappas": [1, 2],
        "gap_N": 60,
        "conv_N": [400, 500],
        "gap3_count": 2,
        "gap3_N": 60,
        "simulate": ["--kmax", "16", "--tmax", "4"],
    },
}


class Op:
    """One attempted operation: a CLI call or a library call."""

    def __init__(self, name):
        self.name = name
        self.error = None
        self.value = None
        self.artifact = None


def _attempt(ops, name, fn, *args):
    op = Op(name)
    ops.append(op)
    try:
        op.value = fn(*args)
    except SystemExit as exc:  # argparse usage errors exit from cli.main
        op.value = exc.code
    except Exception as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    return op


def _cli(ops, out_dir, name, argv):
    from hypobgk import cli

    path = os.path.join(out_dir, name)
    op = _attempt(ops, name, cli.main, [*argv, "--out", path])
    op.artifact = path
    if op.error is None and op.value != 0:
        op.error = f"exit code {op.value}"
    return op


# ---------------------------------------------------------------------------
# inputs: every random choice comes from the seed


def sweep_lengths() -> list:
    """The torus lengths ``hypobgk sweep-L`` evaluates by default."""
    import numpy as np
    from hypobgk import cli

    a = cli.build_parser().parse_args(["sweep-L"])
    return [float(L) for L in np.geomspace(a.sweep_from, a.sweep_to, a.points)]


def make_inputs(workload: str, seed: int, scale: str) -> dict:
    """Seeded torus lengths are points of the default ``sweep-L`` grid;
    ``relax`` holds one trajectory and runs on the CLI default grid."""
    rng = random.Random(f"{workload}:{seed}")
    size = SCALES[scale]
    if workload == "certify":
        Ls = sweep_lengths()
        return {"L": {d: rng.choice(Ls) for d in (1, 2, 3)}, "sweep": size["sweep_points"]}
    if workload == "spectrum":
        from hypobgk.operators import mode_moduli

        moduli = [m for m, _ in mode_moduli(3, 2)][: size["gap3_count"]]
        return {"size": size, "L3": rng.choice(sweep_lengths()), "moduli3": moduli}
    if workload == "relax":
        return {"grid": size["simulate"]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# workload bodies: only these are timed


def body_certify(inp, out_dir):
    ops = []
    for d, L in inp["L"].items():
        common = ["--dim", str(d), "--L", repr(L)]
        _cli(ops, out_dir, f"certificate-d{d}.json", ["certificate", *common])
        _cli(ops, out_dir, f"index-d{d}.json", ["index", *common])
        _cli(ops, out_dir, f"minors-d{d}.json", ["minors", *common])
        # the envelope workflow is one-dimensional; run it at each length
        _cli(ops, out_dir, f"envelope-L{d}.csv", ["envelope", "--dim", "1", "--L", repr(L)])
        _cli(ops, out_dir, f"sweep-d{d}.csv", ["sweep-L", "--dim", str(d), *inp["sweep"]])
    return ops


def body_spectrum(inp, out_dir):
    from hypobgk import gap

    size = inp["size"]
    ops = []
    _attempt(ops, "gap-d1", gap.spectral_gap, 1, TWO_PI, size["gap_kappas"], size["gap_N"])
    _attempt(ops, "convergence-d1", gap.convergence_study, 1, TWO_PI, 1.0, size["conv_N"])
    _attempt(ops, "gap-d3", gap.spectral_gap, 3, inp["L3"], inp["moduli3"], size["gap3_N"])
    return ops


def body_relax(inp, out_dir):
    ops = []
    _cli(ops, out_dir, "simulate.csv", ["simulate", *inp["grid"]])
    return ops


# ---------------------------------------------------------------------------
# oracles: run after the timed body on each operation that did not fail;
# each returns the reason it rejects the output, or None


def _read_csv(path):
    """(derived values from '# key = value' lines, columns by header)."""
    derived, header, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            derived[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return derived, {h: [r[i] for r in rows] for i, h in enumerate(header)}


def check_certify(inp, op):
    kind, _, rest = op.name.partition("-d")
    if kind == "certificate":
        doc = json.loads(Path(op.artifact).read_text())
        return None if doc["valid"] is True else "certificate not valid"
    if kind != "minors":
        return None
    import numpy as np
    from hypobgk.certificate import assemble_D_block

    doc = json.loads(Path(op.artifact).read_text())
    cfg = doc["config"]
    D = assemble_D_block(int(rest.split(".")[0]), cfg["kappa"], cfg["alpha"], doc["ell"])
    n = D.shape[0]
    for j, val in enumerate(doc["values"], start=1):
        sub = D[n - j:, n - j:] if doc["convention"] == "trailing" else D[:j, :j]
        ref = float(np.linalg.det(sub).real)
        if not val > 0:
            return f"minor {j} = {val!r} is not positive"
        if abs(val - ref) > 1e-10 * abs(ref):
            return f"minor {j} = {val!r} but the dense determinant is {ref!r}"
    return None


def check_spectrum(inp, op):
    from hypobgk.certificate import certify

    d, L = {"gap-d1": (1, TWO_PI), "convergence-d1": (1, TWO_PI), "gap-d3": (3, inp["L3"])}[op.name]
    mu = certify(d, L, n_verify=0).mu
    rows = op.value.rows()
    gaps = [row[-1] for row in rows]
    if not all(g > mu for g in gaps):
        return f"a gap in {gaps} is not above the certified rate {mu!r}"
    if op.name == "convergence-d1":
        (n1, g1), (n2, g2) = rows[-2:]
        if abs(g2 - g1) > 1e-6:
            return f"gap at N = {n2} ({g2!r}) differs from N = {n1} ({g1!r}) by more than 1e-6"
    return None


def check_relax(inp, op):
    derived, cols = _read_csv(op.artifact)
    E0, lam = float(derived["E0"]), float(derived["lambda"])
    h = cols["h_norm"]
    for i in range(1, len(h)):
        if h[i] > h[i - 1]:
            return f"h_norm increases at t = {cols['t'][i]}: {h[i - 1]!r} -> {h[i]!r}"
    for t, e in zip(cols["t"], cols["entropy"]):
        if e > E0 * math.exp(-lam * t) * (1.0 + 1e-9):
            return f"entropy {e!r} at t = {t} exceeds E0 exp(-lambda t)"
    return None


WORKLOADS = {
    "certify": (body_certify, check_certify),
    "spectrum": (body_spectrum, check_spectrum),
    "relax": (body_relax, check_relax),
}


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--out", required=True, help="directory for CLI artifacts")
    ap.add_argument("--spans", default=None, help="trace, and write the spans here")
    ap.add_argument("--required", nargs="*", default=[], help="functions that must resolve")
    args = ap.parse_args(argv)

    import hypobgk
    import hypobgk.cli  # noqa: F401  (set-up cost of every CLI invocation)

    if not Path(hypobgk.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"hypobgk imported from {hypobgk.__file__}, not from {SRC}")
    body, check = WORKLOADS[args.workload]
    inputs = make_inputs(args.workload, args.seed, args.scale)
    os.makedirs(args.out, exist_ok=True)
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install(args.required)

    t_first = time.monotonic()
    t0, c0 = time.perf_counter(), time.process_time()
    ops = body(inputs, args.out)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)
    artifacts = {}
    for op in ops:
        if op.error is None and op.artifact is not None:
            if not os.path.isfile(op.artifact):
                op.error = "no artifact written"
                continue
            artifacts[op.name] = hashlib.sha256(Path(op.artifact).read_bytes()).hexdigest()
        if op.error is None:
            try:
                op.error = check(inputs, op)
            except Exception as exc:  # a malformed output fails its check
                op.error = f"oracle raised {type(exc).__name__}: {exc}"
    result = {
        "t_first": t_first,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "ops": len(ops),
        "failures": [f"{op.name}: {op.error}" for op in ops if op.error is not None],
        "artifacts": artifacts,
        "layers": tracer.summary() if tracer is not None else {},
        "env": _environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
