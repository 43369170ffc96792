"""Benchmark runner for hypobgk: the certify, spectrum and relax workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

For ``--seconds`` it runs the workload again and again, one execution
at a time (a closed loop with one client), each in a fresh interpreter
(``bench/worker.py``), because command-line users pay for cold module
caches on every invocation.  Every execution checks its outputs against
oracles.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  A traced run alternates untraced and traced
executions, so it can report the tracing overhead.  Lines before the
last describe the environment, the spread of every metric and the
sha256 of every CLI artifact.  Several workloads may be named; the last
line then maps each workload to its object.

The BLAS thread count of the executions is pinned to one.  Scratch
files go to ``.bench_out/`` in the checkout.

The speed of a shared host drifts by tens of percent within minutes,
and every execution slows with it.  So the runner times a fixed
reference piece of work before the first execution and again after
each one, for a tenth of the time that execution took, and scales the
run's ``setup_s`` and ``wall_s`` by ``REFERENCE_S`` over the mean of
those timings.  They are therefore times on a host on which the
reference takes ``REFERENCE_S``; the lines before the last give the
unscaled medians too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"

#: one thread: on two cores a second BLAS thread makes the dense
#: eigensolves of ``spectrum`` faster but every figure noisier
BLAS_THREADS = "1"
BLAS_ENV = {var: BLAS_THREADS for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")}
#: the run, its last execution included, ends before this many seconds
RUN_LIMIT_S = 170.0
#: time of ``Reference.time_s`` on a host of nominal speed: its mean
#: on a 2-vCPU Intel Xeon at 2.1 GHz with one BLAS thread
REFERENCE_S = 0.036
#: after each execution the reference is timed for this share of the
#: time the execution took, and at least once
REFERENCE_SHARE = 0.1


class Reference:
    """A fixed mix of the work the workloads do: a dense complex
    eigensolve (``spectrum``), complex exponentials and a product on a
    grid (``relax``) and an interpreter loop (``certify``, set-up).  It
    runs in the runner, which never imports hypobgk, and only while no
    execution runs, so the code under test cannot change it."""

    def __init__(self):
        import numpy as np  # here, after main() has pinned the BLAS threads

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.grid = 2j * np.pi * np.outer(rng.random(256), np.arange(128.0))
        self.b = rng.standard_normal((128, 96))

    def _block(self):
        import numpy as np

        np.linalg.eigvals(self.a)
        for _ in range(2):
            float(np.abs(np.exp(self.grid) @ self.b).sum())
        acc = 0
        for i in range(30000):
            acc += i * i % 7

    def time_s(self) -> float:
        """Median of three timings of three blocks each."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(3):
                self._block()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class RunFailed(RuntimeError):
    """An execution crashed, timed out or printed no result."""


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(tmp),
        PYTHONHASHSEED="0",
        **BLAS_ENV,
    )
    return env


def execute(workload, seed, scale, work_dir: Path, spans=None, required=(), deadline=None):
    """Run one execution in a fresh interpreter and return its result dict.

    ``setup_s`` is added: the time from spawning the interpreter to the
    first timed call, which covers ``import hypobgk`` and the inputs.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--out", str(work_dir / "artifacts")]
    if spans is not None:
        cmd += ["--spans", str(spans), "--required", *required]
    timeout = RUN_LIMIT_S if deadline is None else max(1.0, deadline - time.monotonic())
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(work_dir), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} execution timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload} execution exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_first"] - t_spawn
    return result


def measure(workload, seed, seconds, trace, spec):
    """Executions for ``seconds``; returns the result object of the last line
    and the environment the first execution reported."""
    required = sorted({m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]} - {"run"})
    tmp = OUT / f"tmp-{os.getpid()}-{workload}"
    reference = Reference()
    start = time.monotonic()
    plain, traced = [], []
    refs = [reference.time_s()]
    try:
        while len(plain) + len(traced) < 1 + trace or time.monotonic() - start < seconds:
            k = len(plain) + len(traced)
            t0 = time.monotonic()
            if trace and k % 2:
                spans = OUT / f"spans-{workload}-seed{seed}.json"
                traced.append(execute(workload, seed, "full", tmp / str(k), spans, required,
                                      start + RUN_LIMIT_S))
            else:
                plain.append(execute(workload, seed, "full", tmp / str(k),
                                     deadline=start + RUN_LIMIT_S))
            t1 = time.monotonic()
            refs.append(reference.time_s())
            while time.monotonic() - t1 < REFERENCE_SHARE * (t1 - t0):
                refs.append(reference.time_s())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    speed = REFERENCE_S / statistics.fmean(refs)
    runs = plain + traced
    attempted = sum(r["ops"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for name in sorted({a for r in runs for a in r["artifacts"]}):
        digests = {r["artifacts"].get(name) for r in runs}
        if len(digests) > 1:
            failures.append(f"{name}: artifact differs between executions of one seed")
    for f in failures:
        print(f"FAILED {workload}: {f}", file=sys.stderr)

    samples = {
        "setup_s": [r["setup_s"] * speed for r in plain],
        "wall_s": [r["wall_s"] * speed for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "ok_ratio": [1.0 - len(failures) / attempted],
    }
    if trace:
        samples["run.cpu_s"] = [r["cpu_s"] for r in plain]
        samples["run.tracing_overhead_s"] = [
            statistics.median(r["wall_s"] * speed for r in traced)
            - statistics.median(samples["wall_s"])
        ]
        for m in spec["per_layer"]:
            if not m["name"].startswith("run."):
                samples[m["name"]] = [r["layers"].get(m["name"], 0) for r in traced]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
               for m in wanted}

    print(f"{workload} seed {seed}: {len(plain)} untraced and {len(traced)} traced executions, "
          f"{attempted} operations, {len(failures)} failed "
          f"(fail_ratio {len(failures) / attempted:.6g})")
    print(f"  unscaled medians: setup_s {statistics.median(r['setup_s'] for r in plain):.6g} s, "
          f"wall_s {statistics.median(r['wall_s'] for r in plain):.6g} s; "
          f"host speed {speed:.4g} of nominal from {len(refs)} reference timings")
    if traced:
        print(f"  unscaled wall_s median of the traced executions "
              f"{statistics.median(r['wall_s'] for r in traced):.6g} s")
    for m in wanted:
        xs = samples[m["name"]]
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        print(f"  {m['name']:<40} {metrics[m['name']]['value']:>12.6g} {m['unit']:<6}"
              f" median of {len(xs)}, quartiles {q[0]:.6g} .. {q[2]:.6g}")
    for name, digest in sorted(runs[0]["artifacts"].items()):
        print(f"  artifact {name} sha256 {digest}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, runs[0]["env"]


def source_identity() -> dict:
    """git sha when the checkout has one, and a digest of the package source."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hypobgk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="Run hypobgk benchmark workloads.")
    ap.add_argument("--workload", nargs="+", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.update(BLAS_ENV)  # the reference timings use the executions' BLAS threads
    OUT.mkdir(exist_ok=True)
    results = {}
    try:
        for w in args.workload:
            results[w], env = measure(w, args.seed, args.seconds, args.trace, spec)
    except RunFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    env.update(nproc=os.cpu_count(), python=platform.python_version(), **source_identity())
    print("env: " + json.dumps(env))
    print(json.dumps(results[args.workload[0]] if len(results) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
