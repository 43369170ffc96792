"""Command-line front end for the certificate toolkit.

Subcommands expose the main workflows: ``index`` (hypocoercivity
index of a modal generator), ``certificate`` (closed-form decay
certificate with matrix verification), ``spectrum`` (numerical
spectral gaps per mode), ``minors`` (closed-form minor chain at one
parameter point), ``simulate`` (modal trajectory with entropy, norm,
L1 and envelope columns), ``sweep-L`` (certified rate as a function of
torus length) and ``envelope`` (the L1 decay envelope curve).

Artifacts are CSV or JSON; every artifact echoes the effective
configuration, so a stored output identifies the run that produced
it.  Identical configurations produce byte-identical artifacts.

Exit status: 0 on success, 1 on usage errors (bad flags or
out-of-range parameters), on arithmetic errors such as a numerical
overflow and on sizes too large to allocate, 2 when a verification step
fails (an invalid certificate, or a ``VerificationFailure`` such as a
rejected eigensolve).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import __version__
from .certificate import certify, certify_many, chain_spec
from .gap import VerificationFailure, spectral_gap
from .hermite import MIN_N, _VARIANTS
from .index import DEFAULT_TOL, hypocoercivity_index
from .operators import mode_moduli, operator_pair
from .sim import (
    _bump_square_norm,
    concentrated_initial_data,
    decay_envelope,
    run_trajectory,
    t_init,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

TWO_PI = 2.0 * math.pi

#: argparse settings of every flag, by its key in the configuration
#: echo; the option string is "--" + key with "_" written as "-"
_FLAGS = {
    "dim": dict(type=int, choices=tuple(MIN_N), default=1),
    "L": dict(type=float, default=TWO_PI),
    "basis": dict(choices=_VARIANTS),
    "trunc": dict(type=int),
    "kappa": dict(type=float),
    "kmax": dict(type=int),
    "alpha": dict(type=float),
    "epsilon": dict(type=float, default=0.02),
    "tmax": dict(type=float, default=40.0),
    "dt": dict(type=float, default=0.5),
    "gamma": dict(type=float, default=0.0),
    "tol_rank": dict(type=float, default=DEFAULT_TOL),
    "format": dict(choices=("csv", "json")),
    "from": dict(type=float, default=0.1, dest="sweep_from"),
    "to": dict(type=float, default=50.0, dest="sweep_to"),
    "points": dict(type=int, default=100),
}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class _Artifact:
    """What a handler returns: one table in two renderings.

    The CSV form is ``header`` and ``rows`` after comment lines holding
    the configuration echo and then ``extra``; the JSON form is the
    echo under ``"config"`` followed by the keys of ``doc``.
    """

    header: tuple
    rows: list
    doc: dict
    extra: dict = field(default_factory=dict)
    code: int = EXIT_OK


def _num(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return "%.15g" % x
    return str(x)


def _cfg_str(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        # float(): numpy 2 scalars repr as np.float64(...)
        return repr(float(v))
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_cfg_str(x) for x in v) + "]"
    return str(v)


def _render(args, art: _Artifact) -> str:
    config = {"subcommand": args.subcommand}
    for key in _SUBCOMMANDS[args.subcommand].echo:
        config[key] = getattr(args, _FLAGS[key].get("dest", key))
    if args.format == "json":
        return json.dumps({"config": config, **art.doc}, indent=2) + "\n"
    lines = [f"# {k} = {_cfg_str(v)}" for k, v in [*config.items(), *art.extra.items()]]
    lines.append(",".join(art.header))
    lines.extend(",".join(_num(x) for x in row) for row in art.rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers: take parsed args, return an _Artifact.  A handler
# that resolves a flag (a default, a derived value) writes the resolved
# value back to args, so that the echo shows the effective configuration.


def _run_index(args):
    args.kappa = 1.0 if args.kappa is None else args.kappa
    if not (math.isfinite(args.kappa) and args.kappa > 0):
        raise ValueError(f"mode modulus kappa must be finite and positive, got {args.kappa}")
    pair = operator_pair(args.dim, args.basis, args.trunc, L=args.L)
    with np.errstate(over="ignore", invalid="ignore"):
        C1 = args.kappa * pair.ell * np.asarray(pair.L1, dtype=float)
    C2 = np.asarray(pair.L2, dtype=float)
    try:
        if not np.isfinite(C1).all():
            raise OverflowError("C1 = kappa ell L1 leaves the floating-point range")
        rep = hypocoercivity_index(C1, C2, tol=args.tol_rank)
    except (VerificationFailure, OverflowError) as exc:
        context = f"mode modulus kappa {args.kappa!r} on torus length {args.L!r}"
        raise type(exc)(f"{context}: {exc}") from exc
    tau = rep.tau if rep.tau is not None else -1
    cc = rep.coercivity_constant if rep.coercivity_constant is not None else float("nan")
    return _Artifact(
        header=("tau", "hypocoercive", "dim_ker_C2", "coercivity_constant"),
        rows=[(tau, rep.hypocoercive, rep.dim_ker_C2, cc)],
        extra={"rank_profile": list(rep.rank_profile)},
        doc={
            "hypocoercive": rep.hypocoercive,
            "tau": rep.tau,
            "rank_profile": list(rep.rank_profile),
            "dim_ker_C2": rep.dim_ker_C2,
            "coercivity_constant": rep.coercivity_constant,
        },
    )


def _run_certificate(args):
    cert = certify(args.dim, args.L, alpha=args.alpha)
    doc = cert.to_json_dict()
    header = ("d", "L", "alpha_plus", "alpha_star", "mu", "lambda", "c_d", "C_d", "valid")
    return _Artifact(
        header=header,
        rows=[tuple(doc[h] for h in header)],
        doc=doc,
        code=EXIT_OK if cert.valid else EXIT_VERIFY,
    )


def _run_spectrum(args):
    if args.kappa:
        args.kappa = [float(k) for k in args.kappa]
        if any(k <= 0 for k in args.kappa):
            raise ValueError("mode moduli must be positive")
    else:
        kmax = 5 if args.kmax is None else args.kmax
        args.kappa = [m for m, _ in mode_moduli(args.dim, kmax)]
    rep = spectral_gap(args.dim, args.L, args.kappa, args.trunc)
    header = ("kappa", "N", "gap")
    rows = rep.rows()
    extra = {"gap": rep.gap, "argmin_kappa": rep.argmin_kappa}
    doc = {"entries": [dict(zip(header, row)) for row in rows], **extra}
    return _Artifact(header=header, rows=rows, extra=extra, doc=doc)


def _run_minors(args):
    spec = chain_spec(args.dim)
    ell = TWO_PI / args.L
    args.kappa = 1.0 if args.kappa is None else args.kappa
    default_alpha = args.alpha is None
    if default_alpha:
        # 0 or nan where the powers of 2 pi / L in alpha_plus leave the
        # floating-point range
        args.alpha = 0.5 * float(spec.alpha_plus(ell))
    usable = args.alpha > 0 or not default_alpha
    if usable:
        table = spec.minors(args.kappa, args.alpha, ell)
        # at alpha = 0.5 alpha_plus every minor is positive, so a zero
        # is an underflow
        usable = all(math.isfinite(v) and (v != 0 or not default_alpha) for v in table.values)
    if not usable:
        if default_alpha:
            size = "small" if ell > 1.0 else "large"
            what = f"torus length {args.L!r} is too {size}: the minors at 2 pi / L"
        else:
            what = f"coupling amplitude alpha {args.alpha!r} on torus length {args.L!r}: the minors"
        raise ValueError(f"{what} leave the floating-point range")
    return _Artifact(
        header=("i", "delta"),
        rows=[(j + 1, v) for j, v in enumerate(table.values)],
        extra={"convention": table.convention, "ell": table.ell, **table.p_values},
        doc={
            "convention": table.convention,
            "ell": table.ell,
            "values": list(table.values),
            "p_values": table.p_values,
            "positive": all(v > 0 for v in table.values),
        },
    )


def _simulation_grid(args):
    """Number of samples; rounds args.tmax down to a whole number of dt."""
    steps = args.tmax / args.dt
    if not all(math.isfinite(v) and v > 0 for v in (args.tmax, args.dt, steps)):
        raise ValueError(
            f"tmax, dt and tmax / dt must be finite and positive, got {args.tmax} and {args.dt}"
        )
    n = int(math.floor(steps + 1e-9)) + 1
    if n < 2:
        raise ValueError("tmax must cover at least one step")
    args.tmax = (n - 1) * args.dt
    return n


def _certified_grid(args, workflow: str):
    """The number of samples and the 1D certificate of ``simulate`` and
    ``envelope``; writes the effective alpha back to args."""
    if args.dim != 1:
        raise ValueError(f"{workflow} requires --dim 1")
    n = _simulation_grid(args)
    cert = certify(1, args.L, n_verify=0, alpha=args.alpha)
    args.alpha = cert.alpha_star
    return n, cert


def _enveloped(cert, E0: float, cols: dict, **extra) -> _Artifact:
    """A table of the columns ``cols`` and the L2 envelope column below
    the derived scalars, with ``extra`` among them."""
    derived = {
        "mu": cert.mu,
        "lambda": cert.lam,
        "C_d": cert.C_d,
        "E0": E0,
        "t_init": t_init(cert.C_d, E0, cert.lam),
        **extra,
        "envelope": "L2-bound",
    }
    cols = {**cols, "envelope": decay_envelope(cols["t"], cert.C_d, E0, cert.lam)}
    cols = {h: [float(x) for x in c] for h, c in cols.items()}
    return _Artifact(
        header=tuple(cols),
        rows=list(zip(*cols.values())),
        extra=derived,
        doc={"derived": derived, **cols},
    )


def _run_simulate(args):
    n, cert = _certified_grid(args, "simulation reconstruction")
    if args.kmax is None:
        args.kmax = 128
    state = concentrated_initial_data(args.epsilon, kmax=args.kmax, N=args.trunc, L=args.L)
    data = run_trajectory(state, args.tmax, n, alpha=cert.alpha_star, gamma=args.gamma)
    E0 = float(data["entropy"][0])
    return _enveloped(cert, E0, data, truncation_tail=state.truncation_tail)


def _run_sweep(args):
    if not 0.0 < args.sweep_from < args.sweep_to < math.inf:
        raise ValueError(
            "sweep range must satisfy 0 < from < to, both finite, "
            f"got {args.sweep_from} and {args.sweep_to}"
        )
    if args.points < 2:
        raise ValueError("need at least two sweep points")
    Ls = np.geomspace(args.sweep_from, args.sweep_to, args.points).tolist()
    rows = [
        (c.L, c.alpha_plus, c.alpha_star, c.mu, 2.0 * c.mu) for c in certify_many(args.dim, Ls)
    ]
    header = ("L", "alpha_plus", "alpha_star", "mu", "two_mu")
    return _Artifact(header=header, rows=rows, doc={"rows": [dict(zip(header, r)) for r in rows]})


def _run_envelope(args):
    n, cert = _certified_grid(args, "the envelope workflow")
    E0 = _bump_square_norm(args.epsilon)
    return _enveloped(cert, E0, {"t": np.linspace(0.0, args.tmax, n)})


@dataclass(frozen=True)
class _Subcommand:
    """A handler, its help line, the flags it reads in the order of its
    configuration echo (``--out`` is read but not echoed), its default
    format, and the flags among them that take one or more values."""

    run: Callable
    help: str
    echo: tuple
    format: str
    many: tuple = ()


_SUBCOMMANDS = {
    "index": _Subcommand(
        _run_index,
        "hypocoercivity index of a modal generator",
        ("dim", "L", "basis", "trunc", "kappa", "tol_rank", "format"),
        "json",
    ),
    "certificate": _Subcommand(
        _run_certificate,
        "closed-form decay certificate",
        ("dim", "L", "alpha", "format"),
        "json",
    ),
    "spectrum": _Subcommand(
        _run_spectrum,
        "numerical spectral gaps per mode",
        ("dim", "L", "trunc", "kappa", "kmax", "format"),
        "csv",
        many=("kappa",),
    ),
    "minors": _Subcommand(
        _run_minors,
        "closed-form minor chain at one point",
        ("dim", "L", "kappa", "alpha", "format"),
        "json",
    ),
    "simulate": _Subcommand(
        _run_simulate,
        "modal trajectory with diagnostics",
        ("dim", "L", "trunc", "kmax", "alpha", "epsilon", "tmax", "dt", "gamma", "format"),
        "csv",
    ),
    "sweep-L": _Subcommand(
        _run_sweep,
        "certified rate versus torus length",
        ("dim", "format", "from", "to", "points"),
        "csv",
    ),
    "envelope": _Subcommand(
        _run_envelope,
        "L1 decay envelope curve",
        ("dim", "L", "alpha", "epsilon", "tmax", "dt", "format"),
        "csv",
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hypobgk",
        description="Hypocoercivity certificates for linearized BGK modes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for key in spec.echo:
            kw = dict(_FLAGS[key], default=spec.format) if key == "format" else _FLAGS[key]
            if key in spec.many:
                kw = dict(kw, nargs="+")
            p.add_argument("--" + key.replace("_", "-"), **kw)
        p.add_argument("--out", default=None)
    return parser


#: the parser of :func:`main`, built once per process: parse_args leaves
#: it unchanged and puts every default into a fresh namespace
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    flags = vars(args)
    if "L" in flags and not (math.isfinite(args.L) and args.L > 0):
        parser.error(f"torus length must be finite and positive, got {args.L}")
    # defaults that depend on --dim: the basis and four times the block
    # of the certificates
    spec = chain_spec(args.dim)
    if "basis" in flags:
        args.basis = args.basis or spec.variant
    if "trunc" in flags and args.trunc is None:
        args.trunc = 4 * spec.block
    try:
        art = _SUBCOMMANDS[args.subcommand].run(args)
    except VerificationFailure as exc:
        sys.stderr.write(f"hypobgk: verification failure: {exc}\n")
        return EXIT_VERIFY
    except (ValueError, ArithmeticError, MemoryError) as exc:
        parser.error(str(exc))
    try:
        _emit(_render(args, art), args.out)
    except OSError as exc:
        target = repr(args.out) if args.out else "standard output"
        parser.error(f"cannot write the artifact to {target}: {exc.strerror}")
    if art.code == EXIT_VERIFY:
        sys.stderr.write(
            "hypobgk: certificate verification failed; see the emitted artifact\n"
        )
    return art.code


if __name__ == "__main__":
    sys.exit(main())
