"""Command-line front end.

Subcommands: verify, torus, planewave, dynamics, sweep-zeta, dump-matrices.
Exit codes: 0 all checks pass (ledger entries never fail a run), 1 at least
one failure, 2 usage or configuration error.  Identical configuration and
seed produce byte-identical output.

Only ``report`` and ``torus`` load with this module; each handler imports
the checker modules it runs, so ``torus`` and ``sweep-zeta`` start without
them.  ``main`` looks each handler up by name when it is called, and builds
the commands its argv does not name bare, without options or ``-h``:
argparse picks a command only by a token equal to its name, so every
parser it can pick is complete, and the top-level help, usage lines and
"invalid choice" errors come from the root parser and the help lines,
which every command keeps.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import torus
from .report import (DEFAULT_TOL, FAIL, RunConfig, SUITES, csv_rows,
                     document_json, report_csv, report_json, report_text)

USAGE_ERROR = 2
MAX_SIZE = 10 ** 6  # largest --samples, --quad-points or --steps

# (flag, test, domain) of every value that neither its type nor argparse's
# choices bound, in the order checked: the size caps, the floors, the
# tolerances, which may tighten the gates but never loosen them (NaN is
# outside), and the momenta.
DOMAINS = (
    *((flag, lambda v: v <= MAX_SIZE, f"<= {MAX_SIZE}")
      for flag in ("--samples", "--quad-points", "--steps")),
    ("--quad-points", lambda v: v >= torus.MIN_QUAD_POINTS,
     f">= {torus.MIN_QUAD_POINTS}"),
    ("--samples", lambda v: v >= 1, ">= 1"),
    ("--seed", lambda v: v >= 0, ">= 0"),
    *((flag, lambda v: 0 <= v <= DEFAULT_TOL, f"in [0, {DEFAULT_TOL!r}]")
      for flag in ("--tol-abs", "--tol-rel")),
    *((flag, math.isfinite, "finite") for flag in ("--px", "--py", "--pz")),
)


def _meta_config(args):
    """meta.config of a document: the RunConfig settings the command reads,
    in field order."""
    return {k: getattr(args, k) for k in RunConfig._fields if hasattr(args, k)}


def _check_values(args):
    """Reject the first value outside its domain before anything is
    allocated, with one line naming its option."""
    for flag, within, domain in DOMAINS:
        dest = OPTIONS[flag].get("dest", flag[2:].replace("-", "_"))
        value = getattr(args, dest, None)
        if value is not None and not within(value):
            raise ValueError(f"{flag} must be {domain}, got {value}")


def _emit(text, out):
    if out is not None:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # a usage error, not a failed check
            raise ValueError(f"--out {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text + "\n")


def _complex_pairs(vector):
    # + 0.0 folds negative zeros for stable output
    return [[float(z.real) + 0.0, float(z.imag) + 0.0] for z in vector]


def cmd_verify(args):
    from .suites import run_suites
    config = _meta_config(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks, ledger = run_suites(RunConfig(**config), names)
    if args.format == "text":
        _emit(report_text(config, checks, ledger), args.out)
    elif args.format == "csv":
        _emit(report_csv(checks), args.out)
    else:
        _emit(report_json(config, checks, ledger), args.out)
    return 1 if any(c.verdict == FAIL for c in checks) else 0


def cmd_torus(args):
    ev = torus.evaluate(torus.unit_system(args.units), args.zeta,
                        args.quadrature_points)
    model = ev.model
    doc = {
        # every model field but the unit system, in field order
        "model": {k: v for k, v in model._asdict().items() if k != "units"},
        "derived": {"alpha_q": ev.chain.alpha_q, "q": ev.chain.q,
                    "m_s": ev.chain.m_s,
                    **ev.spin._asdict(), **ev.zitter._asdict(),
                    "r_o": ev.chain.r_o,
                    "radius_ratio": ev.chain.radius_ratio},
        "ledger": [e.to_dict() for e in
                   torus.discrepancy_ledger(model, args.quadrature_points)],
    }
    _emit(document_json(_meta_config(args), doc), args.out)
    return 0


def cmd_planewave(args):
    from . import planewave
    p = np.array([args.px, args.py, args.pz])
    states = planewave.make_states(args.branch, p)
    body = []
    for i, state in enumerate(states):
        entry = {
            "solution": i + 1,
            "energy": state.energy,
            "momentum": [float(v) for v in state.momentum],
            "amplitudes": _complex_pairs(state.amplitudes),
            "residual": planewave.residual(state),
        }
        try:
            interp = planewave.field_interpretation(state)
            entry["fields"] = {
                "e": _complex_pairs(interp.field.e),
                "h": _complex_pairs(interp.field.h),
                "sparsity": list(interp.sparsity),
            }
        except planewave.AxisMismatch:
            entry["fields"] = None
        body.append(entry)
    doc = {"branch": args.branch, "states": body}
    _emit(document_json(_meta_config(args), doc), args.out)
    return 0


def cmd_dynamics(args):
    from . import bridge, dirac, dynamics
    units = torus.unit_system(args.units)
    model = torus.derive_parameters(units, args.zeta)
    # before the quartic routes: a tiny zeta names the coupling's underflow
    self_action = dynamics.self_action_constant(model)
    force = dynamics.lorentz_force_ring(model, 1.0, "Ex_Hz")
    force_x = dynamics.lorentz_force_ring(model, 1.0, "Ez_Hx")
    k = 0.8 * model.k
    t_ax = dirac.triad("y", "negative")
    wave = bridge.onshell_plane_wave([t_ax], ["plus"], k, units=units)
    point = bridge.WavePoint._make(f[0] for f in wave.at(0.0, 0.0))
    forms = dynamics.lagrangian_linear(point, units)
    nl = dynamics.lagrangian_nonlinear(point, model)
    comp = dynamics.photon_photon_comparison(
        torus.derive_parameters(torus.GAUSSIAN_CGS, args.zeta))
    doc = {
        "ring_force": {
            "Ex_Hz": {"f2": force.f2, "f0": force.f0},
            "Ez_Hx": {"f2": force_x.f2, "f0": force_x.f0},
        },
        "linear_lagrangian_on_shell": dict(zip(forms._fields,
                                               _complex_pairs(forms))),
        "quartic_lagrangian": {
            "energy_momentum_route": nl.quartic_em,
            "invariant_route": nl.quartic_invariant,
            "bilinear_route": nl.quartic_bilinear,
        },
        "photon_photon_comparison": comp,
        "self_action_constant": self_action,
    }
    _emit(document_json(_meta_config(args), doc), args.out)
    return 0


def cmd_sweep_zeta(args):
    zetas = torus.zeta_grid(args.min, args.max, args.steps)
    ev = torus.evaluate(torus.unit_system(args.units), zetas,
                        args.quadrature_points)
    rows = zip(zetas, *(a.tolist() for a in (ev.chain.alpha_q, ev.chain.q,
                                              ev.chain.m_s, ev.spin.mu_s)))
    _emit(csv_rows(("zeta", "alpha_q", "q", "m_s", "mu_s"), rows), args.out)
    return 0


def cmd_dump_matrices(args):
    from . import dirac
    aset = (dirac.canonical_alpha_set() if args.set == "canonical"
            else dirac.alpha_prime_set())
    doc = {"label": aset.label,
           "matrices": {name: [_complex_pairs(row) for row in m]
                        for name, m in aset.named().items()}}
    _emit(document_json(_meta_config(args), doc), args.out)
    return 0


# Every option once: its flag and its add_argument keywords.  An option's
# dest is the RunConfig field it sets, where it sets one.
OPTIONS = {
    "--suite": dict(choices=SUITES + ("all",), default="all"),
    "--units": dict(choices=tuple(torus.UNIT_SYSTEMS), default="natural"),
    "--zeta": dict(type=float, default=1.0),
    "--tol-abs": dict(type=float, default=DEFAULT_TOL),
    "--tol-rel": dict(type=float, default=DEFAULT_TOL),
    "--samples": dict(type=int, default=1000),
    "--seed": dict(type=int, default=0),
    "--format": dict(choices=("json", "csv", "text"), default="json"),
    "--quad-points": dict(type=int, default=256, dest="quadrature_points"),
    "--out": dict(default=None),
    "--px": dict(type=float, default=0.0),
    "--py": dict(type=float, default=0.0),
    "--pz": dict(type=float, default=0.0),
    "--branch": dict(choices=("positive", "negative"), default="positive"),
    "--min": dict(type=float, default=0.05),
    "--max": dict(type=float, default=1.0),
    "--steps": dict(type=int, default=20),
    "--set": dict(choices=("canonical", "prime"), default="canonical"),
}

# Every command once: its help line and the options it reads.  Its handler
# is cmd_<name>, with "-" as "_".
COMMANDS = {
    "verify": ("run a verification suite",
               ("--suite", "--units", "--zeta", "--tol-abs", "--tol-rel",
                "--samples", "--seed", "--format", "--quad-points", "--out")),
    "torus": ("emit the ring model and its ledger",
              ("--units", "--zeta", "--quad-points", "--out")),
    "planewave": ("solve plane-wave amplitudes",
                  ("--px", "--py", "--pz", "--branch", "--out")),
    "dynamics": ("emit forces and Lagrangian values",
                 ("--units", "--zeta", "--out")),
    "sweep-zeta": ("CSV sweep over the section ratio",
                   ("--min", "--max", "--steps", "--units", "--quad-points",
                    "--out")),
    "dump-matrices": ("serialize a matrix set", ("--set", "--out")),
}


def build_parser(argv=None):
    """The parser; given argv, the commands it does not name are bare: no
    options and no -h.  argparse picks a command only by a token equal to
    its name, and the root parser alone prints the top-level help, usage
    and "invalid choice" errors, so the output is that of the full parser.
    Flags are written in full, so every flag gets its negative values."""
    parser = argparse.ArgumentParser(
        prog="semiphoton", allow_abbrev=False,
        description="Deterministic verification of the rolled-wave electron "
                    "model and its matrix-form field equations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options) in COMMANDS.items():
        named = argv is None or name in argv
        p = sub.add_parser(name, help=help_line, allow_abbrev=False,
                           add_help=named)
        if named:
            for flag in options:
                p.add_argument(flag, **OPTIONS[flag])
    return parser


def pad_negative_floats(argv, options=OPTIONS):
    """argv with a space before each value of a float option of options that
    starts with "-" and that float() reads: argparse takes -1e-3 or -inf for
    an option, a token that starts with a space for a value, and float()
    ignores the space.  An option with nargs takes every value up to the
    next token that starts with "-" and is not a number."""
    out, left = [], 0  # values the last float option may still take
    for token in argv:
        if left and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                left = 0
            else:
                token = " " + token
        if left:
            left -= 1
        else:
            option = options.get(token, {})
            left = option.get("type") is float and (
                math.inf if "nargs" in option else 1)
        out.append(token)
    return out


def main(argv=None):
    argv = pad_negative_floats(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        _check_values(args)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, torus.QuadratureNotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
