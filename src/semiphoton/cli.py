"""Command-line front end.

Subcommands: verify, torus, planewave, dynamics, sweep-zeta, dump-matrices.
Exit codes: 0 all checks pass or are ledgered, 1 at least one failure,
2 usage or configuration error.  Identical configuration and seed produce
byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bridge, dirac, dynamics, planewave, torus
from .report import (FAIL, RunConfig, SUITES, VERSION, csv_rows, report_csv,
                     report_json, report_text)
from .suites import run_suites

USAGE_ERROR = 2


def _add_common(parser):
    parser.add_argument("--units", choices=("natural", "gaussian_cgs"),
                        default="natural")
    parser.add_argument("--zeta", type=float, default=1.0)
    parser.add_argument("--tol-abs", type=float, default=1e-12)
    parser.add_argument("--tol-rel", type=float, default=1e-12)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
    parser.add_argument("--quad-points", type=int, default=256)
    parser.add_argument("--out", default=None)


def _config(args):
    return RunConfig(units=args.units, zeta=args.zeta, tol_abs=args.tol_abs,
                     tol_rel=args.tol_rel, samples=args.samples,
                     seed=args.seed, format=args.format,
                     quadrature_points=args.quad_points,
                     out=args.out).validate()


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _complex_pairs(matrix):
    # + 0.0 folds negative zeros for stable output
    return [[[float(z.real) + 0.0, float(z.imag) + 0.0] for z in row]
            for row in matrix]


def cmd_verify(args):
    cfg = _config(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks, ledger = run_suites(cfg, names)
    if cfg.format == "text":
        _emit(report_text(cfg, checks, ledger), cfg.out)
    elif cfg.format == "csv":
        _emit(report_csv(checks), cfg.out)
    else:
        _emit(report_json(cfg, checks, ledger), cfg.out)
    return 1 if any(c.verdict == FAIL for c in checks) else 0


def cmd_torus(args):
    cfg = _config(args)
    ev = torus.evaluate(torus.unit_system(cfg.units), cfg.zeta,
                        cfg.quadrature_points)
    model = ev.model
    doc = {
        "meta": {"version": VERSION, "config": cfg.to_dict()},
        "model": {
            "zeta": model.zeta, "lambda_p": model.lambda_p,
            "omega_p": model.omega_p, "omega_s": model.omega_s,
            "r_t": model.r_t, "r_s": model.r_s, "r_c": model.r_c,
            "s_c": model.s_c, "delta_tau": model.delta_tau, "k": model.k,
            "e0": model.e0,
        },
        "derived": {
            "alpha_q": ev.alpha_q, "q": ev.q, "m_s": ev.m_s,
            "sigma_p": ev.spin.sigma_p, "sigma_s": ev.spin.sigma_s,
            "mu_s": ev.spin.mu_s, "mu_closed_form": ev.spin.mu_closed_form,
            "omega_z": ev.zitter.omega_z, "r_z": ev.zitter.r_z,
            "v": ev.zitter.v,
            "r_o": ev.chain.r_o, "radius_ratio": ev.chain.radius_ratio,
        },
        "ledger": [e.to_dict() for e in
                   torus.discrepancy_ledger(model, cfg.quadrature_points)],
    }
    _emit(json.dumps(doc, indent=2), cfg.out)
    return 0


def cmd_planewave(args):
    cfg = _config(args)
    aset = dirac.canonical_alpha_set()
    p = np.array([args.px, args.py, args.pz])
    mass, c = 1.0, 1.0
    states = planewave.make_states(args.branch, p, mass, c)
    body = []
    layout = bridge.electron_layout()
    for i, state in enumerate(states):
        entry = {
            "solution": i + 1,
            "energy": state.energy,
            "momentum": [float(v) for v in state.momentum],
            "amplitudes": [[float(b.real), float(b.imag)]
                           for b in state.amplitudes],
            "residual": planewave.residual(state, aset, mass, c),
        }
        try:
            interp = planewave.field_interpretation(state, layout)
            entry["fields"] = {
                "e": [[float(z.real), float(z.imag)] for z in interp.field.e],
                "h": [[float(z.real), float(z.imag)] for z in interp.field.h],
                "sparsity": list(interp.sparsity),
            }
        except planewave.AxisMismatch:
            entry["fields"] = None
        body.append(entry)
    doc = {"meta": {"version": VERSION, "config": cfg.to_dict()},
           "branch": args.branch, "states": body}
    _emit(json.dumps(doc, indent=2), cfg.out)
    return 0


def cmd_dynamics(args):
    cfg = _config(args)
    units = torus.unit_system(cfg.units)
    model = torus.derive_parameters(units, cfg.zeta)
    force = dynamics.lorentz_force_ring(model, 1.0, "Ex_Hz")
    force_x = dynamics.lorentz_force_ring(model, 1.0, "Ez_Hx")
    mass = units.m_e
    c = units.c
    k = 0.8 * model.k
    t_ax = dirac.triad("y", "negative")
    omega, fields, d_dt, d_du = bridge.onshell_plane_wave(
        t_ax, "plus", k, mass, c=c, hbar=units.hbar)
    point = dynamics.WavePoint(f=fields(0.0, 0.0), df_dt=d_dt(0.0, 0.0),
                               df_du=d_du(0.0, 0.0))
    forms = dynamics.lagrangian_linear(point, mass, c=c, hbar=units.hbar)
    nl = dynamics.lagrangian_nonlinear(point, model, c=c, hbar=units.hbar)
    comp = dynamics.photon_photon_comparison(
        torus.derive_parameters(torus.UnitSystem.gaussian_cgs(), cfg.zeta))
    doc = {
        "meta": {"version": VERSION, "config": cfg.to_dict()},
        "ring_force": {
            "Ex_Hz": {"f2": force.f2, "f0": force.f0},
            "Ez_Hx": {"f2": force_x.f2, "f0": force_x.f0},
        },
        "linear_lagrangian_on_shell": {
            "spinor": [forms.spinor.real, forms.spinor.imag],
            "em": [forms.em.real, forms.em.imag],
            "current": [forms.current.real, forms.current.imag],
        },
        "quartic_lagrangian": {
            "energy_momentum_route": nl.quartic_em,
            "invariant_route": nl.quartic_invariant,
            "bilinear_route": nl.quartic_bilinear,
        },
        "photon_photon_comparison": comp,
        "self_action_constant": dynamics.self_action_constant(
            model, torus.coupling_constant(cfg.zeta)),
    }
    _emit(json.dumps(doc, indent=2), cfg.out)
    return 0


def cmd_sweep_zeta(args):
    cfg = _config(args)
    units = torus.unit_system(cfg.units)
    rows = []
    for z in torus.zeta_grid(args.min, args.max, args.steps):
        ev = torus.evaluate(units, z, cfg.quadrature_points)
        rows.append((z, ev.alpha_q, ev.q, ev.m_s, ev.spin.mu_s))
    _emit(csv_rows(("zeta", "alpha_q", "q", "m_s", "mu_s"), rows), cfg.out)
    return 0


def cmd_dump_matrices(args):
    cfg = _config(args)
    aset = (dirac.canonical_alpha_set() if args.set == "canonical"
            else dirac.alpha_prime_set())
    doc = {"meta": {"version": VERSION, "config": cfg.to_dict()},
           "label": aset.label,
           "matrices": {name: _complex_pairs(m)
                        for name, m in aset.named().items()}}
    _emit(json.dumps(doc, indent=2), cfg.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semiphoton",
        description="Deterministic verification of the rolled-wave electron "
                    "model and its matrix-form field equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("torus", help="emit the ring model and its ledger")
    _add_common(p)
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("planewave", help="solve plane-wave amplitudes")
    p.add_argument("--px", type=float, default=0.0)
    p.add_argument("--py", type=float, default=0.0)
    p.add_argument("--pz", type=float, default=0.0)
    p.add_argument("--branch", choices=("positive", "negative"),
                   default="positive")
    _add_common(p)
    p.set_defaults(func=cmd_planewave)

    p = sub.add_parser("dynamics", help="emit forces and Lagrangian values")
    _add_common(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("sweep-zeta", help="CSV sweep over the section ratio")
    p.add_argument("--min", type=float, default=0.05)
    p.add_argument("--max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_sweep_zeta)

    p = sub.add_parser("dump-matrices", help="serialize a matrix set")
    p.add_argument("--set", choices=("canonical", "prime"), default="canonical")
    _add_common(p)
    p.set_defaults(func=cmd_dump_matrices)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except (ValueError, torus.DomainError, torus.QuadratureNotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
