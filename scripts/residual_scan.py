#!/usr/bin/env python3
"""Scan the first-order system residual against frequency detuning.

For each triad and sign form, evaluates the on-shell wave and a family of
detuned frequencies, printing max residual per detuning.  The on-shell column
should sit at rounding level; the residual grows linearly with the detuning.
All twelve (triad, form) cases of one detuning are one stacked residual call.
The residual kernels work in units of m c^2 and m c, so the wave has mass 1.
A detuning whose residual column is not finite is an error.
"""
import argparse
import sys

import numpy as np

from semiphoton import bridge, dirac
from semiphoton.cli import pad_negative_floats

OPTIONS = {
    "--k": dict(type=float, default=0.8),
    "--detunings": dict(type=float, nargs="*", default=[1.0, 1.01, 1.1, 1.5]),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    for flag, kwargs in OPTIONS.items():
        parser.add_argument(flag, **kwargs)
    args = parser.parse_args(pad_negative_floats(
        sys.argv[1:] if argv is None else argv, OPTIONS))

    t_grid = np.linspace(0.0, 2.0, 4)
    u_grid = np.linspace(-1.0, 1.0, 5)
    cases = [(t, form) for t in dirac.axis_triads()
             for form in ("plus", "minus")]
    triads, forms = zip(*cases)
    try:
        wave = bridge.onshell_plane_wave(triads, forms, args.k)
    except ValueError as err:
        parser.error(f"--k: {err}")
    with np.errstate(over="ignore", invalid="ignore"):
        columns = [bridge.dirac_residual_em(
            wave._replace(omega=d * wave.omega), t_grid, u_grid).max_scalar
            for d in args.detunings]
    for d, col in zip(args.detunings, columns):
        if not np.isfinite(col).all():
            parser.error(f"--detunings: the residual at detuning {d!r} is "
                         f"not finite")
    header = "triad        form   " + "".join(f"  x{d:<10g}" for d in args.detunings)
    print(header)
    for i, (t, form) in enumerate(cases):
        cells = "".join(f"  {col[i]:<11.3e}" for col in columns)
        print(f"{t.name:<12s} {form:<6s}" + cells)


if __name__ == "__main__":
    main()
