"""Benchmark of the semiphoton command line, end to end and per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  Every run starts fresh
child interpreters (``child.py``) with BLAS thread pools set to 1; the child
imports ``semiphoton`` from ``src`` and calls ``cli.main(argv)`` in process
for each generated request, one after the other.

``--trace 0`` measures the end-to-end metrics with nothing patched.  The
child runs a fixed speed probe every half second between requests.  Each
request time is scaled by ``NOMINAL_PROBE_S`` over the mean probe within
``PROBE_WINDOW_S`` of it, so that times read as seconds on a host of fixed
speed; set-up times are scaled by probes in the set-up children.  Unscaled
times are printed too.
``--trace 1`` measures the per-module metrics: one child runs the request
list untraced and then traced, a second child runs it traced again, and the
run checks that tracing changed no output byte and that both traced runs
made the same calls.  Spans go to ``.perfbench_out/``.

The oracle (``oracle.py``) judges every output.  Failed requests (a FAIL
verdict, output that does not parse or does not repeat, ...) are counted in
``failed`` / ``error_share``, each distinct request once, and listed with
their reasons and FAIL check ids.  The run is incorrect only when a request
produced no output at all or the trace self-test fails.  The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracle
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 7
# Timings are scaled to a host on which child.speed_probe() takes this long:
# the shared host's speed drifts by up to 2x over minutes, which would
# otherwise swamp every change worth detecting.
NOMINAL_PROBE_S = 0.03
PROBE_WINDOW_S = 3.0
CHILD_TIMEOUT_S = 150
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
HEADLINE = ["-m", "semiphoton", "verify", "--suite", "all", "--samples",
            "1000", "--seed", "7"]

END_TO_END_UNITS = {"setup_s": "s", "request_p50_s": "s", "run_s": "s",
                    "peak_rss_mb": "MB"}
LAYERS = ("cli", "suites", "report", "dirac", "bridge", "linalg", "torus",
          "planewave", "dynamics")
# Extra per-layer metrics: name -> (unit, kind, traced function).
#   calls: calls per request;  s: mean wall seconds per call.
FUNCTION_METRICS = {
    **{f"suites.{s}.s": ("s", "s", f"suites.suite_{s}") for s in oracle.SUITES},
    "dirac.canonical_alpha_set.calls": ("count", "calls",
                                        "dirac.canonical_alpha_set"),
    "bridge.bilinear.calls": ("count", "calls", "bridge.bilinear"),
    "bridge.dirac_residual_em.s": ("s", "s", "bridge.dirac_residual_em"),
    "torus.calibrate_e0.s": ("s", "s", "torus.calibrate_e0"),
    "torus.calibrate_e0.calls": ("count", "calls", "torus.calibrate_e0"),
    "torus.integrate_mass.calls": ("count", "calls", "torus.integrate_mass"),
    "planewave.make_states.s": ("s", "s", "planewave.make_states"),
    "dynamics.lagrangian_nonlinear.s": ("s", "s",
                                        "dynamics.lagrangian_nonlinear"),
}


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units["report.bytes"] = "bytes"
    units.update({name: spec[0] for name, spec in FUNCTION_METRICS.items()})
    units["torus.integrate_mass_per_calibration"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def spawn(mode, job=None):
    """Run one child to completion; its result, with ``setup_s`` added."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode],
        input=json.dumps(job) if job else "", capture_output=True, text=True,
        env={**os.environ, **BLAS_ENV}, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if Path(result["semiphoton"]).resolve().parent.parent != SRC:
        raise RuntimeError(f"child imported {result['semiphoton']}, "
                           f"not the package under {SRC}")
    result["setup_s"] = result["ready"] - start
    return result


def headline_timing():
    """One cold subprocess run of the ROADMAP headline command."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *HEADLINE], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          timeout=CHILD_TIMEOUT_S)
    return {"argv": ["python3", *HEADLINE], "seconds": time.monotonic() - start,
            "exit_code": proc.returncode}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata(child):
    return {
        "python": child["python"], "numpy": child["numpy"],
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "git_commit": git_commit(),
        "blas_threads": BLAS_ENV, "headline": headline_timing(),
    }


def tally(requests, verdicts, attempts):
    """Count requests and failed requests; a rerun with other bytes fails
    its request too.

    ``attempted`` is the number of distinct requests, each judged once
    however many passes ran, so that ``failed`` depends only on the seed and
    not on how many passes fitted into the run.  The run is correct when
    every request did its work (see ``oracle.judge``); failed requests are
    counted, not hidden.
    """
    differs = {index for index, same in attempts if not same}
    failed = sum(bool(v["reasons"]) or i in differs
                 for i, v in enumerate(verdicts))
    failing, reasons = defaultdict(list), defaultdict(list)
    for argv, v in zip(requests, verdicts):
        for check in v["fails"]:
            failing[check].append(" ".join(argv))
        for reason in v["reasons"]:
            reasons[reason].append(" ".join(argv))
    if differs:
        reasons["output differs from a rerun"] = sorted(
            " ".join(requests[index]) for index in differs)
    return {
        "attempted": len(requests), "failed": failed,
        "correct": all(v["complete"] for v in verdicts),
        "failing_checks": dict(failing), "failure_reasons": dict(reasons),
    }


def speed_factor(probe_s):
    return NOMINAL_PROBE_S / statistics.mean(probe_s)


def scaled_seconds(attempt, probes):
    """Request time scaled by the probes run around it."""
    mid = attempt["start"] + attempt["seconds"] / 2
    near = [d for t, d in probes if abs(t - mid) <= PROBE_WINDOW_S]
    if not near:
        near = [min(probes, key=lambda p: abs(p[0] - mid))[1]]
    return attempt["seconds"] * speed_factor(near)


def untraced_run(requests, seconds):
    run = spawn("measure", {"requests": requests, "seconds": seconds})
    setups = [spawn("setup") for _ in range(SETUP_RUNS)]
    attempts = run["attempts"]
    verdicts = oracle.judge(requests, run["outputs"])
    counts = tally(requests, verdicts,
                   [(a["index"], a["same"]) for a in attempts])
    scaled = [scaled_seconds(a, run["probes"]) for a in attempts]
    pass_s, pass_wall_s = defaultdict(float), defaultdict(float)
    for a, s in zip(attempts, scaled):
        pass_s[a["pass"]] += s
        pass_wall_s[a["pass"]] += a["seconds"]
    values = {
        "setup_s": statistics.median(c["setup_s"] * speed_factor(c["probe_s"])
                                     for c in setups),
        "request_p50_s": statistics.median(scaled),
        "run_s": statistics.median(pass_s.values()),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]}
               for n, v in values.items()}
    wall = {
        "setup_s": statistics.median(c["setup_s"] for c in setups),
        "request_p50_s": statistics.median(a["seconds"] for a in attempts),
        "run_s": statistics.median(pass_wall_s.values()),
    }
    detail = {"wall": wall,
              "speed_factor": speed_factor([d for _, d in run["probes"]]),
              "probes": len(run["probes"]),
              "setup_wall_s": [c["setup_s"] for c in setups],
              "pass_wall_s": list(pass_wall_s.values()),
              "request_max_wall_s": max(a["seconds"] for a in attempts)}
    return run, counts, metrics, detail


def layer_values(summary, n_requests, outputs):
    calls, total, self_s = summary["calls"], summary["total_s"], summary["self_s"]

    def layer_sum(table, layer):
        return sum(v for name, v in table.items()
                   if name.split(".", 1)[0] == layer)

    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_sum(self_s, layer) / n_requests
        values[f"{layer}.calls"] = layer_sum(calls, layer) / n_requests
    values["report.bytes"] = sum(len(out.encode()) for _, out, _ in outputs
                                 ) / n_requests
    for name, (_, kind, fn) in FUNCTION_METRICS.items():
        n = calls.get(fn, 0)
        if kind == "calls":
            values[name] = n / n_requests
        else:
            values[name] = total[fn] / n if n else 0.0
    n_cal = calls.get("torus.calibrate_e0", 0)
    values["torus.integrate_mass_per_calibration"] = (
        summary["integrate_mass_in_calibration"] / n_cal if n_cal else 0.0)
    return values


def traced_run(workload, requests):
    OUT_DIR.mkdir(exist_ok=True)
    a = spawn("trace-a", {"requests": requests,
                          "spans_path": str(OUT_DIR / f"spans-{workload}.npz")})
    b = spawn("trace-b", {"requests": requests})
    reference = a["untraced_outputs"]
    verdicts = oracle.judge(requests, reference)
    attempts = [(i, outputs[i] == reference[i])
                for outputs in (reference, a["traced_outputs"],
                                b["traced_outputs"])
                for i in range(len(requests))]
    counts = tally(requests, verdicts, attempts)
    selftest = {
        "traced_bytes_equal_untraced": a["traced_outputs"] == reference,
        "traced_bytes_repeat": b["traced_outputs"] == a["traced_outputs"],
        "calls_repeat": a["summary"]["calls"] == b["summary"]["calls"],
    }
    counts["correct"] = counts["correct"] and all(selftest.values())
    values = layer_values(a["summary"], len(requests), a["traced_outputs"])
    values["trace.overhead_s"] = a["traced_s"] - a["untraced_s"]
    units = per_layer_units()
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    detail = {"selftest": selftest, "wrapped_functions": a["wrapped"],
              "untraced_s": a["untraced_s"],
              "traced_s": [a["traced_s"], b["traced_s"]]}
    return a, counts, metrics, detail


def run_workload(workload, seed, seconds, trace):
    requests = WORKLOADS[workload](seed)
    if trace:
        child, counts, metrics, detail = traced_run(workload, requests)
    else:
        child, counts, metrics, detail = untraced_run(requests, seconds)
    share = counts["failed"] / counts["attempted"]
    detail.update(workload=workload, seed=seed, trace=trace,
                  loop="closed, 1 client", requests=len(requests),
                  error_share=share, failing_checks=counts["failing_checks"],
                  failure_reasons=counts["failure_reasons"],
                  metadata=metadata(child))
    print(f"# {workload} seed={seed} trace={trace}: {counts['attempted']} "
          f"requests, {counts['failed']} failed, correct={counts['correct']}")
    print(f"error_share = {share:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "wall" in detail:
        print(f"# speed factor {detail['speed_factor']:.4g}; unscaled: "
              + ", ".join(f"{n} = {v:.6g} s" for n, v in detail["wall"].items()))
    for reason, argvs in counts["failure_reasons"].items():
        print(f"failed: {reason} ({len(argvs)} of {len(requests)} requests)")
    for check, argvs in counts["failing_checks"].items():
        print(f"FAIL verdict {check}: {len(argvs)} of {len(requests)} "
              f"requests")
    print(json.dumps({"detail": detail}))
    return {"correct": counts["correct"], "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "semiphoton" / "__init__.py").is_file():
        sys.exit(f"error: no semiphoton package under {SRC}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, args.trace)
               for w in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{n}": m for w, r in results.items()
                              for n, m in r["metrics"].items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
