"""Request generators for the benchmark workloads.

Each generator turns a workload seed into a list of ``semiphoton`` argv
lists.  The program under test only ever sees these argv lists; the same
seed always gives the same list.
"""
from __future__ import annotations

import math
import random

VERIFY_ALL_REQUESTS = 3
QUICK_CHECKS_REQUESTS = 24
QUICK_FORMATS = ("json", "text", "csv")

# Seconds per sweep step of each (units, quad-points) cell, measured on the
# seed program (Intel Xeon, Python 3.11, numpy 2.4).  Only used to place the
# sweep requests on a log-spaced latency grid, so that latencies spread
# continuously and the median does not fall between two clusters.
RING_STEP_COST = {
    ("natural", 256): 0.0070,
    ("natural", 512): 0.0138,
    ("natural", 1024): 0.0280,
    ("gaussian_cgs", 256): 0.0146,
    ("gaussian_cgs", 512): 0.0312,
    ("gaussian_cgs", 1024): 0.0927,
}
RING_SWEEPS = 20
RING_LATENCY_RANGE = (0.035, 0.8)
RING_STEPS = (5, 20)


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def verify_all(seed):
    rng = _rng("verify_all", seed)
    return [["verify", "--suite", "all", "--samples", "1000",
             "--format", "json", "--seed", str(rng.randrange(2**31))]
            for _ in range(VERIFY_ALL_REQUESTS)]


def quick_checks(seed):
    rng = _rng("quick_checks", seed)
    return [["verify", "--suite", "all", "--samples", "10",
             "--format", QUICK_FORMATS[i % len(QUICK_FORMATS)],
             "--seed", str(rng.randrange(2**31))]
            for i in range(QUICK_CHECKS_REQUESTS)]


def _zeta(rng):
    return float(f"{rng.uniform(0.01, 1.0):.6g}")


def ring_sweep(seed):
    """Sweeps on a jittered log-spaced latency grid plus one torus per cell.

    Each sweep's (units, quad-points) cell is drawn among the cells that
    reach its target latency with 5-20 steps; every cell gets at least one
    sweep.  Each torus request evaluates the lower or upper end of a sweep of
    its own cell, so the oracle can compare the two outputs.
    """
    rng = _rng("ring_sweep", seed)
    lo, hi = RING_LATENCY_RANGE
    width = math.log(hi / lo) / RING_SWEEPS
    targets = [lo * math.exp(width * (j + 0.75 - 0.5 * rng.random()))
               for j in range(RING_SWEEPS)]

    def steps(target, cell):
        return round(target / RING_STEP_COST[cell])

    feasible = [[c for c in RING_STEP_COST
                 if RING_STEPS[0] <= steps(t, c) <= RING_STEPS[1]]
                for t in targets]
    cells = [None] * RING_SWEEPS
    for cell in sorted(RING_STEP_COST,
                       key=lambda c: sum(c in f for f in feasible)):
        free = [j for j in range(RING_SWEEPS)
                if cells[j] is None and cell in feasible[j]]
        cells[rng.choice(free)] = cell
    cells = [c or rng.choice(f) for c, f in zip(cells, feasible)]

    requests, ends = [], {}
    for target, (units, qp) in zip(targets, cells):
        zmin, zmax = sorted((_zeta(rng), _zeta(rng)))
        requests.append(["sweep-zeta", "--min", repr(zmin), "--max", repr(zmax),
                         "--steps", str(steps(target, (units, qp))),
                         "--units", units, "--quad-points", str(qp)])
        ends.setdefault((units, qp), []).append((zmin, zmax))
    for (units, qp) in RING_STEP_COST:
        zeta = rng.choice(rng.choice(ends[(units, qp)]))
        requests.append(["torus", "--zeta", repr(zeta), "--units", units,
                         "--quad-points", str(qp)])
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "verify_all": verify_all,
    "ring_sweep": ring_sweep,
    "quick_checks": quick_checks,
}
