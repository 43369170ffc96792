"""End-to-end tests of the command line: artifacts, determinism, exit codes."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hypobgk.cli as cli
from hypobgk import (
    certify,
    chain_blocks,
    concentrated_initial_data,
    decay_envelope,
    entropy,
    spectral_gap,
    t_init,
)


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "hypobgk.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _csv_rows(text):
    rows = []
    header = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows


def test_index_subcommand_reports_model_value():
    r = _run("index", "--dim", "2", "--basis", "energy", "--trunc", "15")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["tau"] == 2
    assert obj["hypocoercive"] is True
    assert obj["dim_ker_C2"] == 4
    assert obj["config"]["subcommand"] == "index"
    assert obj["config"]["trunc"] == 15


def test_certificate_subcommand_json():
    r = _run("certificate", "--dim", "1")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert abs(obj["mu"] - 0.04181235634839236) < 1e-9
    assert obj["valid"] is True
    assert obj["lambda"] == 2.0 * obj["mu"]
    assert len(obj["verified"]) == 50


def test_certificate_subcommand_csv():
    r = _run("certificate", "--dim", "1", "--format", "csv")
    assert r.returncode == 0
    header, rows = _csv_rows(r.stdout)
    assert header == ["d", "L", "alpha_plus", "alpha_star", "mu", "lambda", "c_d", "C_d", "valid"]
    assert len(rows) == 1
    assert abs(float(rows[0][4]) - 0.04181235634839236) < 1e-9
    # config lines ride along as comments
    assert any(line.startswith("# config:") or line.startswith("#") for line in r.stdout.splitlines())


def test_output_is_deterministic():
    a = _run("certificate", "--dim", "1")
    b = _run("certificate", "--dim", "1")
    assert a.stdout == b.stdout
    c = _run("simulate", "--epsilon", "0.05", "--tmax", "2", "--dt", "0.5", "--kmax", "16", "--format", "csv")
    d = _run("simulate", "--epsilon", "0.05", "--tmax", "2", "--dt", "0.5", "--kmax", "16", "--format", "csv")
    assert c.returncode == 0
    assert c.stdout == d.stdout


def _artifacts(argvs, path):
    texts = []
    for argv in argvs:
        assert cli.main([*argv, "--out", str(path)]) == 0
        texts.append(path.read_text())
    return texts


def test_one_parser_serves_every_call(monkeypatch, tmp_path):
    # the handlers write resolved values back to their namespace, never
    # to the parser that main keeps: --kappa of one call must not leak
    # into the defaults of the next
    argvs = [["spectrum", "--kappa", "1", "2", "--trunc", "30"], ["spectrum", "--trunc", "30"]]
    parser = cli._parser()
    shared = _artifacts(argvs, tmp_path / "shared.csv")
    assert cli._parser() is parser
    assert "# kappa = [1.0, 2.0]\n" in shared[0]
    assert "# kappa = [1.0, 2.0, 3.0, 4.0, 5.0]\n" in shared[1]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert shared == _artifacts(argvs, tmp_path / "fresh.csv")


def test_spectrum_subcommand():
    r = _run("spectrum", "--dim", "1", "--kappa", "1", "2", "3", "--trunc", "60", "--format", "csv")
    assert r.returncode == 0
    header, rows = _csv_rows(r.stdout)
    assert header == ["kappa", "N", "gap"]
    assert len(rows) == 3
    assert "argmin_kappa" in r.stdout
    gaps = [float(row[2]) for row in rows]
    assert min(gaps) == gaps[0]  # the slowest mode is kappa = 1


def test_minors_subcommand():
    r = _run("minors", "--dim", "2", "--kappa", "1", "--alpha", "0.1")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["convention"] == "leading"
    assert len(obj["values"]) == 11
    assert min(obj["values"]) > 0
    assert "p11" in obj["p_values"]


def test_sweep_subcommand_rate_column_decreases():
    r = _run("sweep-L", "--from", "3", "--to", "30", "--points", "6", "--format", "csv")
    assert r.returncode == 0
    header, rows = _csv_rows(r.stdout)
    assert header == ["L", "alpha_plus", "alpha_star", "mu", "two_mu"]
    assert len(rows) == 6
    two_mu = [float(row[4]) for row in rows]
    assert all(b < a for a, b in zip(two_mu, two_mu[1:]))


def test_envelope_subcommand():
    r = _run("envelope", "--epsilon", "0.02", "--tmax", "10", "--dt", "1", "--format", "csv")
    assert r.returncode == 0
    header, rows = _csv_rows(r.stdout)
    assert header == ["t", "envelope"]
    assert len(rows) == 11
    derived = dict(line[2:].split(" = ", 1) for line in r.stdout.splitlines() if line[:1] == "#")
    assert derived["envelope"] == "L2-bound"
    C_d, E0 = float(derived["C_d"]), float(derived["E0"])
    assert rows[0][1] == "%.15g" % math.sqrt(C_d * E0)


@pytest.mark.filterwarnings("error")
def test_envelope_of_the_narrowest_bump_is_finite(capsys):
    # E0 = 3 / (2 eps) - 1 = 1.5e308 and C_d = 1.27: C_d E0 overflows,
    # but the amplitude sqrt(C_d E0) is about 1.4e154
    assert cli.main(["envelope", "--epsilon", "1e-308", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    amp = math.sqrt(obj["derived"]["C_d"]) * math.sqrt(obj["derived"]["E0"])
    assert obj["envelope"][0] == pytest.approx(amp, rel=1e-15)
    assert np.isfinite(obj["envelope"]).all()


@pytest.mark.parametrize("sub", ["simulate", "envelope"])
def test_envelope_column_is_the_decay_envelope_of_the_derived_scalars(sub, capsys):
    # JSON keeps every bit, so the artifact's own C_d, E0 and lambda
    # reproduce its envelope column and t_init exactly
    assert cli.main([sub, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    C_d, E0, lam = (obj["derived"][k] for k in ("C_d", "E0", "lambda"))
    assert obj["envelope"] == decay_envelope(np.array(obj["t"]), C_d, E0, lam).tolist()
    assert obj["derived"]["t_init"] == t_init(C_d, E0, lam)


def test_simulate_columns():
    r = _run("simulate", "--epsilon", "0.05", "--tmax", "1", "--dt", "0.5", "--kmax", "8", "--format", "csv")
    assert r.returncode == 0
    header, rows = _csv_rows(r.stdout)
    assert header == ["t", "entropy", "h_norm", "l1", "envelope"]
    assert len(rows) == 3
    assert float(rows[0][0]) == 0.0


def test_simulate_gamma_weights_the_entropy_column():
    args = ("simulate", "--epsilon", "0.05", "--tmax", "1", "--dt", "0.5", "--kmax", "8")
    cols = [
        np.array(_csv_rows(_run(*args, "--gamma", g).stdout)[1], dtype=float)[:, 1]
        for g in ("0", "0.5")
    ]
    cert = certify(1, 2.0 * math.pi, n_verify=0)
    st = concentrated_initial_data(0.05, kmax=8)
    assert abs(cols[1][0] - entropy(st, cert.alpha_star, 0.5)) < 1e-12 * cols[1][0]
    assert np.all(cols[1] > cols[0])


def test_out_file_writing(tmp_path):
    target = tmp_path / "cert.json"
    r = _run("certificate", "--dim", "1", "--out", str(target))
    assert r.returncode == 0
    obj = json.loads(target.read_text())
    assert obj["valid"] is True


@pytest.mark.parametrize(
    "sub,where,reason",
    [("certificate", "missing/cert.json", "No such file or directory"), ("spectrum", ".", "Is a directory")],
)
def test_unwritable_out_exits_one_with_a_message(sub, where, reason, tmp_path, capsys):
    target = str(tmp_path / where)
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--out", target])
    assert exc.value.code == 1
    assert f"cannot write the artifact to {target!r}: {reason}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_usage_errors_exit_one():
    assert _run("certificate", "--dim", "7").returncode == 1
    assert _run("simulate", "--dim", "2").returncode == 1
    assert _run("certificate", "--dim", "1", "--alpha", "0.9").returncode == 1
    assert _run("certificate", "--L", "-2").returncode == 1
    assert _run("frobnicate").returncode == 1
    assert _run().returncode == 1


@pytest.mark.parametrize("L", ["inf", "nan"])
def test_spectrum_rejects_non_finite_length(L, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--L", L])
    assert exc.value.code == 1
    assert "torus length must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("L", ["inf", "nan"])
@pytest.mark.parametrize(
    "sub",
    # spectrum: test_spectrum_rejects_non_finite_length
    [s for s, spec in cli._SUBCOMMANDS.items() if "L" in spec.echo and s != "spectrum"],
)
def test_every_length_flag_rejects_non_finite(sub, L, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--L", L])
    assert exc.value.code == 1
    assert "torus length must be finite" in capsys.readouterr().err


#: arguments that keep each subcommand small
_SMALL = {
    "index": ["--dim", "2", "--trunc", "15", "--kappa", "2"],
    "certificate": ["--dim", "2"],
    "spectrum": ["--dim", "3", "--kmax", "1", "--trunc", "30"],
    "minors": ["--dim", "3"],
    "simulate": ["--kmax", "4", "--tmax", "1", "--dt", "0.5"],
    "sweep-L": ["--dim", "2", "--points", "3"],
    "envelope": ["--tmax", "2", "--dt", "1"],
}


def _echo_value_parses(value):
    """A CSV echo value is a number, a word, or a list of numbers."""
    if value.startswith("[") and value.endswith("]"):
        return all(_echo_value_parses(x) for x in value[1:-1].split(", "))
    try:
        float(value)
    except ValueError:
        return re.fullmatch(r"[A-Za-z][\w-]*", value) is not None
    return True


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("sub", sorted(_SMALL))
def test_every_subcommand_echoes_its_flags(sub, fmt, tmp_path):
    path = tmp_path / f"{sub}.{fmt}"
    assert cli.main([sub, *_SMALL[sub], "--format", fmt, "--out", str(path)]) == 0
    text = path.read_text()
    # the JSON config and the leading CSV comment lines both follow the
    # subcommand's echo order
    keys = ["subcommand", *cli._SUBCOMMANDS[sub].echo]
    if fmt == "json":
        config = json.loads(text)["config"]
        assert list(config) == keys
        assert config["format"] == "json"
    else:
        echo = [line[2:].split(" = ", 1) for line in text.splitlines() if line.startswith("# ")]
        assert [k for k, _ in echo[: len(keys)]] == keys
        for key, value in echo:
            assert _echo_value_parses(value), (key, value)


@pytest.mark.parametrize(
    "argv", [["certificate", "--trunc", "5"], ["sweep-L", "--L", "3"], ["index", "--seed", "1"]]
)
def test_unread_flag_exits_one(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1


def test_invalid_certificate_exits_two(monkeypatch, capsys):
    real = cli.certify

    def broken(*args, **kwargs):
        cert = real(1, 2.0 * math.pi, n_verify=0)
        return dataclasses.replace(cert, valid=False, failed_kappa=3.0)

    monkeypatch.setattr(cli, "certify", broken)
    rc = cli.main(["certificate", "--dim", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "verification failed" in captured.err
    # the artifact is still emitted so the failure can be inspected
    assert json.loads(captured.out)["failed_kappa"] == 3.0


def test_float_rendering_round_trips():
    r = _run("certificate", "--dim", "1", "--format", "csv")
    _, rows = _csv_rows(r.stdout)
    mu = float(rows[0][4])
    obj = json.loads(_run("certificate", "--dim", "1").stdout)
    assert np.isclose(mu, obj["mu"], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("sub", ["simulate", "envelope"])
@pytest.mark.parametrize(
    "grid",
    [
        ["--tmax", "inf"],
        ["--tmax", "nan"],
        ["--dt", "inf"],
        ["--dt", "nan"],
        # finite, but the number of steps overflows
        ["--tmax", "1e300", "--dt", "1e-10"],
    ],
)
def test_non_finite_time_grid_exits_one(sub, grid, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, *grid])
    assert exc.value.code == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2, 3])
def test_overflowing_torus_length_exits_one(d, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["certificate", "--dim", str(d), "--L", "1e-300"])
    assert exc.value.code == 1
    assert "too small" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2, 3])
def test_underflowing_torus_length_exits_one(d, capsys):
    # the rate underflows to zero on a huge torus: an input error, never
    # a valid certificate of rate 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["certificate", "--dim", str(d), "--L", "1e300"])
    assert exc.value.code == 1
    assert "torus length 1e+300 is too large" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["--dim", "3", "--from", "1e-70", "--to", "1", "--points", "5"],
            "torus length 1e-70 is too small: powers of 2 pi / L leave the floating-point range",
        ),
        (
            ["--dim", "2", "--from", "1", "--to", "1e300", "--points", "5"],
            "torus length 1e+75 is too large: powers of 2 pi / L leave the floating-point range",
        ),
    ],
)
def test_out_of_range_length_inside_a_sweep_exits_one(argv, message, capsys):
    # the sweep is one batch; its error still names the first length, in
    # grid order, that leaves the range
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep-L", *argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"hypobgk: error: {message}\n")


def test_large_torus_certificate_is_positive(tmp_path):
    # the threshold used to cancel to zero here, certifying rate 0
    from oracles import alpha_plus_oracle

    out = tmp_path / "cert.json"
    assert cli.main(["certificate", "--dim", "1", "--L", "1e8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    ref = alpha_plus_oracle(1, 2.0 * math.pi / 1e8)
    assert abs(doc["alpha_plus"] - ref) <= 1e-12 * ref
    assert 0.0 < doc["alpha_star"] < doc["alpha_plus"] and doc["mu"] > 0.0
    assert doc["valid"] is True


def test_sweep_on_large_tori_has_no_zero_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep-L", "--dim", "3", "--from", "1e5", "--to", "1e7", "--points", "3"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    _, rows = _csv_rows(out.read_text())
    assert len(rows) == 3
    for row in rows:
        assert all(float(v) > 0.0 for v in row)
        assert float(row[2]) < float(row[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2, 3])
def test_overflowing_torus_length_in_minors_exits_one(d, capsys):
    # the default alpha is half of alpha_plus, whose powers of 2 pi / L
    # overflow: an input error, not a failed verification
    with pytest.raises(SystemExit) as exc:
        cli.main(["minors", "--dim", str(d), "--L", "1e-300"])
    assert exc.value.code == 1
    assert "too small" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d,L", [(3, "1e100"), (2, "1e100"), (1, "1e300"), (3, "1e300")])
def test_underflowing_torus_length_in_minors_exits_one(d, L, capsys):
    # the default alpha makes every minor positive: a nan or a zero, or
    # a division by zero on the way, is an input error and no artifact
    with pytest.raises(SystemExit) as exc:
        cli.main(["minors", "--dim", str(d), "--L", L])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"torus length {float(L)!r} is too large" in captured.err


def test_only_verification_failures_exit_two(monkeypatch, capsys):
    def diverging(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "hypocoercivity_index", diverging)
    with pytest.raises(SystemExit) as exc:
        cli.main(["index"])
    assert exc.value.code == 1
    assert "division by zero" in capsys.readouterr().err

    def disagreeing(*args, **kwargs):
        raise cli.VerificationFailure("rank route gave tau=2, nullspace route gave tau=3")

    monkeypatch.setattr(cli, "hypocoercivity_index", disagreeing)
    assert cli.main(["index"]) == 2
    assert "verification failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kappa,code,message",
    [
        # the index-3 family sqrt(C2) C1^j leaves the floating-point range
        ("1e150", 1, "error: mode modulus kappa 1e+150 on torus length 6.283185307179586: "),
        ("1e200", 1, "error: mode modulus kappa 1e+200 on torus length 6.283185307179586: "),
        # C1 = kappa ell L1 itself overflows, before the index is computed
        ("1e308", 1, "error: mode modulus kappa 1e+308 on torus length 6.283185307179586: C1"),
        # finite, but the coercivity constant is lost to rounding
        ("1e20", 2, "verification failure: torus length 6.283185307179586: the coercivity"),
    ],
)
def test_index_at_huge_kappa_names_kappa_and_length(kappa, code, message):
    # a separate process, since LAPACK writes its own complaints to the
    # process's streams; no warning may escape as a traceback
    r = subprocess.run(
        [sys.executable, "-m", "hypobgk.cli", "index", "--kappa", kappa],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning"),
    )
    assert r.returncode == code
    assert r.stdout == ""
    assert "Traceback" not in r.stderr and "On entry to" not in r.stderr
    assert message in r.stderr


@pytest.mark.parametrize(
    "argv",
    [
        # kappa ell x_j itself would overflow in the reduced matrix
        ["--kappa", "1e308"],
        # (kappa ell x_j)**2 would overflow in the verification of the gaps;
        # the resolution of the real parts is lost long before
        ["--dim", "1", "--kappa", "1e160"],
        ["--dim", "2", "--kappa", "1e160"],
        ["--dim", "3", "--kappa", "1e200"],
    ],
)
def test_spectrum_at_huge_kappa_names_kappa_and_length(argv):
    r = subprocess.run(
        [sys.executable, "-m", "hypobgk.cli", "spectrum", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning"),
    )
    assert r.returncode == 1
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    kappa = float(argv[-1])
    assert f"error: mode modulus kappa {kappa!r} on torus length 6.283185307179586: " in r.stderr


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kappa", ["1e15", "1e17", "1e153"])
def test_spectrum_beyond_the_resolved_kappa_exits_one(d, kappa, capsys):
    # eps kappa ell x_max above the backward error bound: real parts of
    # order 1 are lost to rounding against the imaginary parts (at 1e17
    # the gaps read negative), and no backward error could see it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--dim", str(d), "--kappa", kappa])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = f"error: mode modulus kappa {float(kappa)!r} on torus length 6.283185307179586: "
    assert prefix + "eps kappa ell x_max = " in captured.err


@pytest.mark.parametrize("d", [1, 2, 3])
def test_spectrum_at_a_resolved_huge_kappa(d, capsys):
    # kappa = 1e6 stays below the bound at the default truncations; the
    # gap is that of a dense eigensolve of the blocks, to the resolution
    # eps kappa ell x_max <= 1e-8 of both
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["spectrum", "--dim", str(d), "--kappa", "1e6", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    N = doc["config"]["trunc"]
    assert doc["gap"] == spectral_gap(d, 2.0 * math.pi, [1e6], N).gap
    dense = min(np.linalg.eigvals(b.matrix(1e6)).real.min() for b in chain_blocks(d, N))
    assert 0.0 < doc["gap"] < 1.0
    assert abs(doc["gap"] - dense) <= 1e-8


@pytest.mark.parametrize(
    "argv",
    [["sweep-L", "--points", "1000000000000000000"], ["envelope", "--tmax", "1e18", "--dt", "1"]],
)
def test_oversized_requests_exit_one(argv, capsys):
    # about 7 EiB each: the allocation fails before any memory is touched
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: Unable to allocate 6.94 EiB" in captured.err


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", ["1e-8", "1e-3", "1e8", "1e12"])
def test_index_on_extreme_tori(d, L, tmp_path, capsys):
    # the index keeps its value on the model torus, or the run exits 2
    # naming the length; it never reports a coercivity constant <= 0
    tau = {1: 3, 2: 2, 3: 2}[d]
    out = tmp_path / "index.json"
    code = cli.main(["index", "--dim", str(d), "--L", L, "--out", str(out)])
    if code == 0:
        doc = json.loads(out.read_text())
        assert doc["tau"] == tau and doc["coercivity_constant"] > 0.0
    else:
        assert code == 2
        err = capsys.readouterr().err
        assert f"torus length {float(L)!r}: the coercivity constant is lost to rounding" in err
        assert f"index-{tau} family" in err
    if L == "1e-3":
        assert code == 0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", ["0.1", "6.283185307179586", "50"])
def test_index_is_the_same_in_both_bases(d, L, tmp_path):
    # the energy basis is an orthogonal change of the tensor basis, so
    # the index does not depend on it; in 2D and 3D the tensor basis has
    # a non-diagonal C2, the collision projector on the degree-two level
    docs = {}
    for basis in ("energy", "tensor"):
        out = tmp_path / f"index-{basis}.json"
        assert cli.main(["index", "--dim", str(d), "--L", L, "--basis", basis, "--out", str(out)]) == 0
        docs[basis] = json.loads(out.read_text())
    energy, tensor = docs["energy"], docs["tensor"]
    for key in ("tau", "hypocoercive", "dim_ker_C2", "rank_profile"):
        assert energy[key] == tensor[key], key
    c = energy["coercivity_constant"]
    assert c > 0.0 and abs(tensor["coercivity_constant"] - c) <= 1e-6 * c


@pytest.mark.parametrize("sub", ["index", "minors"])
def test_single_value_kappa(sub):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--kappa", "1", "2", "3"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv,word",
    [
        (["index", "--kappa", "nan"], "kappa"),
        (["index", "--kappa", "inf"], "kappa"),
        (["minors", "--kappa", "nan"], "kappa"),
        (["minors", "--kappa", "inf"], "kappa"),
        (["minors", "--dim", "1", "--alpha", "nan"], "alpha"),
        (["minors", "--dim", "3", "--alpha", "inf"], "alpha"),
    ],
)
def test_non_finite_kappa_or_alpha_exits_one(argv, word, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert word in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--gamma", "nan"], "gamma must be finite"),
        (["simulate", "--gamma", "inf"], "gamma must be finite"),
        # finite, but (1 + kappa^2)^gamma overflows at kappa = 4
        (["simulate", "--gamma", "400"], "gamma must be finite"),
        (["simulate", "--epsilon", "nan"], "epsilon must lie in (0, 1]"),
        (["envelope", "--epsilon", "nan"], "epsilon must lie in (0, 1]"),
        (["envelope", "--epsilon", "0"], "epsilon must lie in (0, 1]"),
        (["envelope", "--epsilon", "2"], "epsilon must lie in (0, 1]"),
        (["envelope", "--epsilon", "1e-320"], "3 / (2 epsilon) overflows"),
        (["index", "--tol-rank", "nan"], "rank tolerance must be finite and positive"),
        (["index", "--tol-rank", "0"], "rank tolerance must be finite and positive"),
        (["index", "--tol-rank", "-1"], "rank tolerance must be finite and positive"),
        (["index", "--trunc", "0"], "need N >= 5 in dimension 1, got 0"),
        (["spectrum", "--trunc", "0"], "need N >= 5 in dimension 1, got 0"),
        (["simulate", "--trunc", "0"], "need N >= 5 in dimension 1, got 0"),
        (["spectrum", "--kmax", "0"], "kmax must be at least 1"),
        (["simulate", "--kmax", "0"], "kmax must be at least 1"),
        (["sweep-L", "--to", "inf"], "sweep range must satisfy 0 < from < to, both finite"),
        (["sweep-L", "--from", "nan"], "sweep range must satisfy 0 < from < to, both finite"),
    ],
)
def test_out_of_range_flag_values_exit_one(argv, message, capsys):
    # rejected where the value is consumed, never replaced by a default
    # and never leaking a floating-point warning
    sub, *rest = argv
    small = _SMALL[sub] if sub in ("simulate", "envelope") else []
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, *small, *rest])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_spectrum_echoes_an_omitted_kmax_as_none(tmp_path):
    path = tmp_path / "s.csv"
    assert cli.main(["spectrum", "--dim", "3", "--trunc", "30", "--out", str(path)]) == 0
    assert "# kmax = none\n" in path.read_text()
