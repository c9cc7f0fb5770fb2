"""Benchmark: median wall time of each kernel and suite, and end to end.

Usage (from the repository root):

    python scripts/bench.py [--repeat N] [--profile]

Prints one JSON object.  ``meta`` holds the python and numpy versions, the
CPU count, the repeat count, the git commit of the checkout (null outside
git) and ``PYTHONDONTWRITEBYTECODE`` (null when unset); ``kernel_ms`` and
``suite_ms`` hold, in milliseconds, the time of one call of each kernel
and of each verification suite (samples 1000, seed 0), run in this process
after one untimed call: the median over N batches of the mean call time of
each batch.  A batch repeats the call until it lasts at least 10 ms, so a
call of tens of microseconds is timed over hundreds of calls.  ``e2e_ms`` holds the median wall time of N
runs of each of five fresh interpreters, alternated and importing
``semiphoton`` from this checkout:
``python -m semiphoton verify --suite all --samples 1000 --seed 7``
(``verify_all``), ``python -m semiphoton torus --zeta 0.3`` (``torus``, the
start-up of a command that needs no checker module),
``python -c "import semiphoton"`` (``import_semiphoton``),
``python -c "import numpy"`` (``import_numpy``) and ``python -c pass``
(``interpreter``).  ``--profile`` then writes the top 25 cProfile entries of one
run of every suite, by cumulative time, to stderr.  Nothing is gated: the
numbers compare two trees on one machine.  ``kernel_ms`` and ``suite_ms``
are not scaled for host speed, which drifts between back-to-back runs by
more than many kernel differences, so they compare two trees only when the
runs of the two are alternated (parent, change, change, parent) and each
tree is read over all its runs.
"""
import argparse
import cProfile
import json
import math
import os
import pathlib
import platform
import pstats
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from semiphoton import bridge, cli, dirac, planewave, torus  # noqa: E402
from semiphoton.report import RunConfig, report_json  # noqa: E402
from semiphoton.suites import SUITE_FUNCS, run_suites  # noqa: E402


BATCH_S = 0.01  # shortest timed batch of calls, seconds


def batch_s(fn, calls):
    """Wall time of calls back-to-back calls of fn."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - start


def median_ms(fn, repeat):
    """Median over repeat batches of the mean time of one call, in ms.

    After one untimed call the batch size doubles until one batch lasts at
    least BATCH_S; every timed batch has that size.
    """
    fn()
    calls = 1
    while batch_s(fn, calls) < BATCH_S:
        calls *= 2
    means = [batch_s(fn, calls) / calls for _ in range(repeat)]
    return round(statistics.median(means) * 1e3, 4)


# The end-to-end commands: python's arguments of each fresh interpreter.
E2E = {
    "verify_all": ["-m", "semiphoton", "verify", "--suite", "all",
                   "--samples", "1000", "--seed", "7"],
    "torus": ["-m", "semiphoton", "torus", "--zeta", "0.3"],
    "import_semiphoton": ["-c", "import semiphoton"],
    "import_numpy": ["-c", "import numpy"],
    "interpreter": ["-c", "pass"],
}


def e2e_ms(repeat):
    """Median wall time of each E2E command as a subprocess, run alternated."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    times = {name: [] for name in E2E}
    for _ in range(repeat):
        for name, argv in E2E.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=True)
            times[name].append(time.perf_counter() - start)
    return {name: round(statistics.median(t) * 1e3, 4)
            for name, t in times.items()}


def expansion(triads, forms, t_grid, u_grid):
    """The waves and residuals of a stack of (triad, form) cases, as the
    planewave suite's expansion checks build them."""
    _, fields, d_dt, d_du = bridge.onshell_plane_wave(
        triads, forms, 0.8, 1.0, e1_amp=1.0, e2_amp=0.7)
    return bridge.dirac_residual_em(fields, triads, 1.0, forms, t_grid,
                                    u_grid, d_dt=d_dt, d_du=d_du)


def kernels(cfg):
    canon = dirac.canonical_alpha_set()
    s = dirac.s_matrix()
    natural = torus.UnitSystem.natural()
    model = torus.derive_parameters(natural, 1.0)
    chain_zetas = torus.zeta_grid(0.05, 1.0, 20)
    nodes = np.linspace(0.0, math.pi / 2, 513)
    t_ax = [dirac.triad("y", "negative")]
    _, fields, d_dt, d_du = bridge.onshell_plane_wave(t_ax, ["plus"], 0.7, 1.0)
    t_grid, u_grid = np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 5)
    triads, forms = zip(*[(t, form) for t in dirac.axis_triads()
                          for form in ("plus", "minus")])
    checks, ledger = run_suites(cfg, ["algebra", "torus"])
    x = np.random.default_rng(0).normal(size=(2, 1000, 4))
    psi = x[0] + 1j * x[1]
    p = np.array([0.3, -0.7, 1.1])
    on_shell = planewave.build_system(planewave.dispersion(p, 1.0)[0], p, 1.0)
    return {
        "generate_group": lambda: dirac.generate_group(canon),
        "anticommutation_deviation":
            lambda: dirac.anticommutation_deviation(canon),
        "canonical_transform":
            lambda: dirac.canonical_transform(s, canon, "similarity"),
        "bilinears_1000": lambda: bridge.bilinears(psi, canon),
        "fierz_quantum_1000": lambda: bridge.fierz_quantum(psi, canon),
        "nullspace": lambda: planewave.nullspace(on_shell),
        "simpson": lambda: torus.simpson(np.cos(nodes), nodes[1]),
        "calibrate_e0": lambda: torus.calibrate_e0(model),
        "sweep_zeta_20": lambda: torus.evaluate(natural, chain_zetas, 128),
        "dirac_residual_em_4x5": lambda: bridge.dirac_residual_em(
            fields, t_ax, 1.0, ["plus"], t_grid, u_grid, d_dt=d_dt, d_du=d_du),
        "expansion_12x4x5": lambda: expansion(triads, forms, t_grid, u_grid),
        "report_json": lambda: report_json(cfg, checks, ledger),
        "build_parser": cli.build_parser,
    }


def git_commit():
    """HEAD of the checkout this script is in, or None without git."""
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=50)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    cfg = RunConfig(samples=1000, seed=0).validate()
    result = {
        "meta": {"python": platform.python_version(),
                 "numpy": np.__version__, "cpus": os.cpu_count(),
                 "repeat": args.repeat, "commit": git_commit(),
                 "PYTHONDONTWRITEBYTECODE":
                     os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "kernel_ms": {name: median_ms(fn, args.repeat)
                      for name, fn in kernels(cfg).items()},
        "suite_ms": {name: median_ms(lambda fn=fn: fn(cfg), args.repeat)
                     for name, fn in SUITE_FUNCS.items()},
        "e2e_ms": e2e_ms(args.repeat),
    }
    print(json.dumps(result, indent=2))
    if args.profile:
        profiler = cProfile.Profile()
        profiler.runcall(run_suites, cfg, list(SUITE_FUNCS))
        pstats.Stats(profiler, stream=sys.stderr).sort_stats(
            "cumulative").print_stats(25)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
