#!/usr/bin/env python3
"""Compare the outputs of this checkout with those of another one.

Usage (from the repository root):

    python scripts/compare_outputs.py OTHER_ROOT

Runs every command of ``COMMANDS`` in this tree and in OTHER_ROOT, each
with the current interpreter, from the tree's root and importing
``semiphoton`` from the tree's ``src``, and compares stdout, stderr and the
exit code.  ``COMMANDS`` holds every command whose document is pinned
under ``tests/fixtures/documents``, whose tests compare numbers only to
1e-12, and commands that print argparse help or a usage error.  Prints
each command whose outputs differ and exits 1 if any does, 0 if all are
identical, and 2 if OTHER_ROOT is not a checkout.  Only
the standard library is used, so the other tree may be any checkout of this
repository, such as a parent commit.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# argv after the interpreter: the CLI through -m, the scan as a script
COMMANDS = [
    *(["-m", "semiphoton", "verify", "--suite", "all", "--samples", "1000",
       "--seed", seed] for seed in ("7", "1", "3")),
    ["-m", "semiphoton", "verify", "--suite", "all", "--samples", "1000",
     "--seed", "7", "--units", "gaussian_cgs"],
    ["-m", "semiphoton", "verify", "--suite", "planewave", "--samples",
     "1000", "--seed", "6"],
    *(["-m", "semiphoton", "verify", "--samples", "10", "--format", fmt]
      for fmt in ("json", "text", "csv")),
    ["-m", "semiphoton", "dynamics"],
    ["-m", "semiphoton", "dynamics", "--units", "gaussian_cgs"],
    ["-m", "semiphoton", "dynamics", "--zeta", "0.3"],
    ["-m", "semiphoton", "dynamics", "--zeta", "0.3", "--units",
     "gaussian_cgs"],
    ["-m", "semiphoton", "dynamics", "--zeta", "1e-170"],
    ["-m", "semiphoton", "torus", "--zeta", "0.3"],
    ["-m", "semiphoton", "torus", "--zeta", "0.3", "--units",
     "gaussian_cgs"],
    *(["-m", "semiphoton", "sweep-zeta", "--min", "0.1", "--max", "0.9",
       "--steps", "7", *units] for units in ([], ["--units", "gaussian_cgs"])),
    ["-m", "semiphoton", "planewave", "--px", "0.3", "--py", "1.2", "--pz",
     "-0.4"],
    ["-m", "semiphoton", "planewave", "--py", "1.3", "--branch", "negative"],
    ["-m", "semiphoton", "planewave", "--pz", "-1e-3"],
    ["-m", "semiphoton", "dump-matrices", "--set", "prime"],
    ["-m", "semiphoton", "torus", "--zeta", "0"],
    ["-m", "semiphoton", "planewave", "--px", "nan"],
    ["-m", "semiphoton", "verify", "--tol-abs", "1"],
    ["-m", "semiphoton", "verify", "--samples", "0"],
    ["-m", "semiphoton", "verify", "--seed", "-1"],
    ["-m", "semiphoton", "verify", "--tol-rel", "nan"],
    ["-m", "semiphoton", "torus", "--quad-points", "63"],
    ["-m", "semiphoton", "sweep-zeta", "--steps", "1000001"],
    # two values outside their domains: the first check names its option
    ["-m", "semiphoton", "verify", "--samples", "0", "--quad-points", "10"],
    ["-m", "semiphoton", "sweep-zeta", "--min", "0.5", "--max", "0.1"],
    # help and usage errors: argparse's own text
    ["-m", "semiphoton", "-h"],
    ["-m", "semiphoton", "verify", "-h"],
    ["-m", "semiphoton", "sweep-zeta", "-h"],
    ["-m", "semiphoton"],
    ["-m", "semiphoton", "bogus"],
    ["-m", "semiphoton", "torus", "--samples", "5"],
    ["-m", "semiphoton", "verify", "--units", "foo"],
    ["scripts/residual_scan.py"],
    ["scripts/residual_scan.py", "--k", "1.7", "--detunings", "1", "0.9",
     "1.3"],
]


def run(root, argv):
    """(stdout, stderr, exit code) of argv run in the tree at root."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(root) / "src"))
    result = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                            capture_output=True, timeout=300)
    return result.stdout, result.stderr, result.returncode


def differing(other, commands=COMMANDS):
    """The commands whose outputs differ between this tree and other."""
    return [argv for argv in commands if run(ROOT, argv) != run(other, argv)]


def main():
    other = pathlib.Path(sys.argv[1]).resolve() if len(sys.argv) == 2 else None
    if other is None or not (other / "src" / "semiphoton").is_dir():
        print(f"usage: {sys.argv[0]} OTHER_ROOT, the root of another "
              f"checkout of this repository", file=sys.stderr)
        return 2
    diff = differing(other)
    for argv in diff:
        print("differs:", " ".join(argv))
    print(f"{len(COMMANDS) - len(diff)} of {len(COMMANDS)} commands identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
