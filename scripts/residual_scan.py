#!/usr/bin/env python3
"""Scan the first-order system residual against frequency detuning.

For each triad and sign form, evaluates the on-shell wave and a family of
detuned frequencies, printing max residual per detuning.  The on-shell column
should sit at rounding level; the residual grows linearly with the detuning.
"""
import argparse

import numpy as np

from semiphoton import bridge, dirac


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=float, default=0.8)
    parser.add_argument("--mass", type=float, default=1.0)
    parser.add_argument("--detunings", type=float, nargs="*",
                        default=[1.0, 1.01, 1.1, 1.5])
    args = parser.parse_args()

    t_grid = np.linspace(0.0, 2.0, 4)
    u_grid = np.linspace(-1.0, 1.0, 5)
    header = "triad        form   " + "".join(f"  x{d:<10g}" for d in args.detunings)
    print(header)
    for t in dirac.axis_triads():
        for form in ("plus", "minus"):
            omega, fields, d_dt, d_du = bridge.onshell_plane_wave(
                t, form, args.k, args.mass)
            cells = []
            for d in args.detunings:
                f, ft, fu = bridge.detuned_wave(fields, d_dt, d_du, d)
                rep = bridge.dirac_residual_em(f, t, args.mass, form,
                                               t_grid, u_grid,
                                               d_dt=ft, d_du=fu)
                cells.append(f"  {rep.max_scalar:<11.3e}")
            print(f"{t.name:<12s} {form:<6s}" + "".join(cells))


if __name__ == "__main__":
    main()
