"""Smoke tests of the benchmark itself.

Run from the root of the repository with ``python3 -m pytest bench/tests``.
Each workload runs once at the tiny scale in a fresh interpreter, the
same way the runner starts it, and must pass every oracle.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED = sorted({m["name"].rsplit(".", 1)[0] for m in SPEC["per_layer"]} - {"run"})

#: functions each workload must call, and one it must leave idle
CALLED = {
    "certify": ["cli.main", "certificate.certify", "ansatz.bgk_P", "index.hypocoercivity_index"],
    "spectrum": ["gap.complex_eigenvalues", "gap.spectral_gap", "gap.convergence_study"],
    "relax": ["cli.main", "sim.evolve", "sim.entropy", "sim.l1_distance_1d", "hermite.gauss_hermite"],
}
IDLE = {"certify": "gap.complex_eigenvalues", "spectrum": "sim.evolve", "relax": "gap.spectral_gap"}


@pytest.mark.parametrize("workload", sorted(CALLED))
def test_tiny_workload_passes_its_oracles(workload, tmp_path):
    spans = tmp_path / "spans.json"
    res = run.execute(workload, 5, "tiny", tmp_path, spans, TRACED)
    assert res["failures"] == []
    assert res["ops"] > 0
    assert res["wall_s"] > 0 and res["setup_s"] > 0 and res["peak_rss_mb"] > 0
    for name in CALLED[workload]:
        assert res["layers"][f"{name}.calls"] > 0, name
    assert res["layers"].get(f"{IDLE[workload]}.calls", 0) == 0
    rows = json.loads(spans.read_text())
    assert rows and all(r["end"] >= r["start"] for r in rows)


def test_artifacts_repeat_for_one_seed(tmp_path):
    first = run.execute("certify", 9, "tiny", tmp_path / "a")
    second = run.execute("certify", 9, "tiny", tmp_path / "b")
    assert len(first["artifacts"]) == 15
    assert first["artifacts"] == second["artifacts"]


def test_traced_names_resolve():
    assert tracing.missing(TRACED) == []


def test_renamed_function_is_reported_missing(monkeypatch):
    import hypobgk.sim

    monkeypatch.delattr(hypobgk.sim, "evolve")
    with pytest.raises(tracing.MissingTargets, match="sim.evolve"):
        tracing.Tracer().install(TRACED)


def test_tracer_sees_callers_bindings_and_restores_them():
    import hypobgk
    import hypobgk.gap

    originals = (hypobgk.spectral_gap, hypobgk.gap.complex_eigenvalues)
    tracer = tracing.Tracer()
    tracer.install(TRACED)
    try:
        hypobgk.spectral_gap(1, 2.0 * math.pi, [1.0], 10)
    finally:
        tracer.uninstall()
    assert (hypobgk.spectral_gap, hypobgk.gap.complex_eigenvalues) == originals
    stats = tracer.summary()
    assert stats["gap.spectral_gap.calls"] == 1
    assert stats["gap.complex_eigenvalues.calls"] == 1
    assert stats["gap.complex_eigenvalues.work_n3"] == 10**3
    assert stats["operators.operator_pair.calls"] == 1


def test_busy_counts_nested_calls_once_and_self_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["a.f", 0.0, 10.0, -1, 0, False],
        ["b.g", 2.0, 6.0, 0, 0, False],
        ["a.f", 3.0, 5.0, 1, 0, True],
    ]
    stats = tracer.summary()
    assert stats["a.f.calls"] == 2
    assert stats["a.f.busy_s"] == 10.0
    assert stats["a.f.self_s"] == 6.0 + 2.0
    assert stats["b.g.self_s"] == 2.0
    assert stats["a.f.errors"] == 1


def _op(artifact):
    op = worker.Op(Path(artifact).name)
    op.artifact = str(artifact)
    return op


def test_relax_oracle_rejects_growth(tmp_path):
    path = tmp_path / "simulate.csv"
    head = "# E0 = 10\n# lambda = 0.1\nt,entropy,h_norm,l1,envelope\n"
    path.write_text(head + "0,10,3,1,2\n0.5,9,3.0000001,1,2\n")
    assert "h_norm increases" in worker.check_relax({}, _op(path))
    path.write_text(head + "0,10,3,1,2\n0.5,9.99,2.9,1,2\n")
    assert "exceeds" in worker.check_relax({}, _op(path))


def test_minors_oracle_rejects_a_perturbed_minor(tmp_path):
    from hypobgk import cli

    path = tmp_path / "minors-d2.json"
    assert cli.main(["minors", "--dim", "2", "--L", "7.5", "--out", str(path)]) == 0
    assert worker.check_certify({}, _op(path)) is None
    doc = json.loads(path.read_text())
    doc["values"][5] *= 1.0 + 1e-8
    path.write_text(json.dumps(doc))
    assert "dense determinant" in worker.check_certify({}, _op(path))


def test_runner_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "relax", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "relax", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
