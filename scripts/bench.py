"""Benchmark: median wall time of each kernel and suite, and end to end.

Usage (from the repository root):

    python scripts/bench.py [--repeat N] [--profile]

Prints one JSON object.  ``meta`` holds the python and numpy versions, the
CPU count, the repeat count, the git commit of the checkout (null outside
git), ``dirty: true`` when tracked files differ from that commit,
``PYTHONDONTWRITEBYTECODE`` (null when unset) and ``probe_ms``, the times
of the runs of ``speed_probe`` of ``perfbench/child.py``, in order: one
before the first timed item, one after each kernel and each suite, and one
after each round of the end-to-end runs.  ``kernel_ms`` and ``suite_ms``
hold the time of one call of each kernel and of each verification suite
(samples 1000, seed 0), run in this process after one untimed call: the
median over N batches of the mean call time of each batch.  A batch
repeats the call until it lasts at least 10 ms, so a call of tens of
microseconds is timed over hundreds of calls.  ``e2e_ms`` holds the median wall time of N runs of each of five
fresh interpreters, alternated and importing ``semiphoton`` from this
checkout:
``python -m semiphoton verify --suite all --samples 1000 --seed 7``
(``verify_all``), ``python -m semiphoton torus --zeta 0.3`` (``torus``, the
start-up of a command that needs no checker module),
``python -c "import semiphoton"`` (``import_semiphoton``),
``python -c "import numpy"`` (``import_numpy``) and ``python -c pass``
(``interpreter``).  Every time in ``kernel_ms``, ``suite_ms`` and
``e2e_ms`` is divided by the mean of the two probes on either side of it,
as ``perfbench/run.py`` scales each request by the probes near it; an
end-to-end time is the median over rounds of each run divided by the
probes around its round.  The host's speed drifts by up to 2x over minutes,
and the probe drifts with it, so scaled times drift less than raw ones.
They drift still, so compare two trees by alternated runs (parent, change,
change, parent).
``--profile`` then writes the top 25 cProfile entries of one run of every
suite, by cumulative time, to stderr.  Nothing is gated: the numbers
compare two trees on one machine.
"""
import argparse
import cProfile
import importlib.util
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

from semiphoton import bridge, cli, dirac, linalg, planewave, torus  # noqa: E402
from semiphoton.report import RunConfig, report_json  # noqa: E402
from semiphoton.suites import SUITE_FUNCS, run_suites  # noqa: E402


BATCH_S = 0.01  # shortest timed batch of calls, seconds


def load_speed_probe():
    """``speed_probe`` of the benchmark's child module, which is read, not
    changed: seconds taken by a fixed piece of integer Python."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.speed_probe


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
    return statistics.median(means) * 1e3


# The end-to-end commands: python's arguments of each fresh interpreter.
E2E = {
    "verify_all": ["-m", "semiphoton", "verify", "--suite", "all",
                   "--samples", "1000", "--seed", "7"],
    "torus": ["-m", "semiphoton", "torus", "--zeta", "0.3"],
    "import_semiphoton": ["-c", "import semiphoton"],
    "import_numpy": ["-c", "import numpy"],
    "interpreter": ["-c", "pass"],
}


def e2e_ms(repeat, next_scale):
    """Median wall time of each E2E command as a subprocess, run alternated
    in repeat rounds, each run divided by next_scale() called after its
    round."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    times = {name: [] for name in E2E}
    for _ in range(repeat):
        ms = {}
        for name, argv in E2E.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=True)
            ms[name] = (time.perf_counter() - start) * 1e3
        scale = next_scale()
        for name in E2E:
            times[name].append(ms[name] / scale)
    return {name: statistics.median(t) for name, t in times.items()}


# One ring_sweep-like request: the parser builds only its command in full.
SWEEP_ARGV = ["sweep-zeta", "--min", "0.05", "--max", "0.8", "--steps", "12",
              "--units", "natural", "--quad-points", "256"]


def expansion(triads, forms, t_grid, u_grid):
    """The waves and residuals of a stack of (triad, form) cases, as the
    planewave suite's expansion checks build them."""
    wave = bridge.onshell_plane_wave(triads, forms, 0.8, e2_amp=0.7)
    return bridge.dirac_residual_em(wave, t_grid, u_grid)


def suite_grids():
    """The planewave suite's detuned and finite-difference grids: one
    y-negative plus-form case each on a 3 x 3 grid."""
    y_neg, k = [dirac.triad("y", "negative")], 0.8
    wave = bridge.onshell_plane_wave(y_neg, ["plus"], k)
    detuned = wave._replace(omega=1.1 * wave.omega)
    return {
        "expansion_detuned_1x3x3": lambda: bridge.dirac_residual_em(
            detuned, np.linspace(0.1, 1.7, 3), np.linspace(-0.9, 0.9, 3)),
        "expansion_fd_1x3x3": lambda: bridge.dirac_residual_em(
            wave, np.linspace(0.0, 1.0, 3),
            np.linspace(-0.5, 0.5, 3), fd_step=1e-4 * 2 * math.pi / k),
    }


def kernels(cfg):
    canon = dirac.canonical_alpha_set()
    s = dirac.s_matrix()
    model = torus.derive_parameters(torus.NATURAL, 1.0)
    chain_zetas = torus.zeta_grid(0.05, 1.0, 20)
    nodes = np.linspace(0.0, math.pi / 2, 513)
    t_ax = [dirac.triad("y", "negative")]
    wave = bridge.onshell_plane_wave(t_ax, ["plus"], 0.7)
    t_grid, u_grid = np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 5)
    triads, forms = zip(*[(t, form) for t in dirac.axis_triads()
                          for form in ("plus", "minus")])
    checks, ledger = run_suites(cfg, ["algebra", "torus"])
    config = cli._meta_config(cfg)
    x = np.random.default_rng(0).normal(size=(2, 1000, 4))
    psi = x[0] + 1j * x[1]
    p = np.array([0.3, -0.7, 1.1])
    on_shell = planewave.build_system(planewave.dispersion(p)[0], p)
    momenta = 2 * x[0, :, :3]
    state = planewave.make_states("positive", momenta)[0]
    return {
        "generate_group": lambda: dirac.generate_group(canon),
        "anticommutation_deviation":
            lambda: dirac.anticommutation_deviation(canon),
        "canonical_transform":
            lambda: dirac.canonical_transform(s, canon, "similarity"),
        "bilinears_1000": lambda: bridge.bilinears(psi, canon),
        "fierz_quantum_1000": lambda: bridge.fierz_quantum(psi),
        "nullspace": lambda: planewave.nullspace(on_shell),
        "residual_1000": lambda: planewave.residual(state),
        "cross_1000": lambda: linalg.cross(momenta, x[1, :, :3]),
        "simpson": lambda: torus.simpson(np.cos(nodes), nodes[1]),
        "calibrate_e0": lambda: torus.calibrate_e0(model, 512),
        "sweep_zeta_20": lambda: torus.evaluate(torus.NATURAL, chain_zetas,
                                                128),
        "dirac_residual_em_4x5": lambda: bridge.dirac_residual_em(
            wave, t_grid, u_grid),
        "expansion_12x4x5": lambda: expansion(triads, forms, t_grid, u_grid),
        **suite_grids(),
        "report_json": lambda: report_json(config, checks, ledger),
        "build_parser": cli.build_parser,
        "parse_sweep_request":
            lambda: cli.build_parser(SWEEP_ARGV).parse_args(SWEEP_ARGV),
    }


def git(*args):
    """stdout of a git command in this checkout, or None without git."""
    try:
        result = subprocess.run(["git", *args], cwd=ROOT,
                                capture_output=True, text=True)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def git_meta():
    """meta's commit: HEAD of the checkout (None without git), and
    ``dirty: true`` when tracked files differ from it."""
    meta = {"commit": git("rev-parse", "HEAD")}
    if git("status", "--porcelain", "--untracked-files=no"):
        meta["dirty"] = True
    return meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=50)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    cfg = RunConfig(samples=1000, seed=0)
    kernel_fns = kernels(cfg)
    probe = load_speed_probe()
    probe_ms = [probe() * 1e3]

    def next_scale():
        """Probe again: the mean of this probe and the one before it."""
        probe_ms.append(probe() * 1e3)
        return statistics.mean(probe_ms[-2:])

    times = {
        "kernel_ms": {name: median_ms(fn, args.repeat) / next_scale()
                      for name, fn in kernel_fns.items()},
        "suite_ms": {name: median_ms(lambda fn=fn: fn(cfg), args.repeat)
                     / next_scale() for name, fn in SUITE_FUNCS.items()},
        "e2e_ms": e2e_ms(args.repeat, next_scale),
    }
    result = {
        "meta": {"python": platform.python_version(),
                 "numpy": np.__version__, "cpus": os.cpu_count(),
                 "repeat": args.repeat, **git_meta(),
                 "PYTHONDONTWRITEBYTECODE":
                     os.environ.get("PYTHONDONTWRITEBYTECODE"),
                 "probe_ms": [round(ms, 4) for ms in probe_ms]},
        **{key: {name: float(f"{scaled:.4g}")
                 for name, scaled in group.items()}
           for key, group in times.items()},
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
