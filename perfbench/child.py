"""One fresh interpreter of a benchmark run.

Usage: ``python child.py MODE`` with the job as JSON on stdin (except for
``setup``).  The child first imports ``semiphoton`` from the checkout's
``src`` and builds the CLI parser, and records ``time.monotonic()`` when
that is done, so the parent can time set-up from before the spawn.  It then
drives ``semiphoton.cli.main(argv)`` in process, one request after the other
(a closed loop with one client), and prints one JSON result line.

Modes:
  setup     only the set-up and three speed probes
  measure   passes over the request list until ``seconds`` are used, at
            least two, so every request has a rerun to compare bytes with
  trace-a   each request untraced and traced; spans saved
  trace-b   each request traced
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import semiphoton  # noqa: E402
from semiphoton import cli  # noqa: E402

cli.build_parser()
READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

PROBE_INTERVAL_S = 0.5


def _mix(a, b):
    return (a * 31 + b) & 0xFFFFFFFF


def speed_probe():
    """Seconds taken by a fixed piece of integer and call-heavy Python.

    The host's speed drifts by up to 2x over minutes, alike for this probe
    and for the program; run.py scales request times by the probe.  The
    probe allocates no containers, so it never triggers the collector, and
    does no floating point: after a complex matmul the vector registers are
    left in a state that slows later float code by 2-4x on this CPU, so a
    float probe would measure the program's own state, not the host.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for i in range(100_000):
        total = _mix(total, i)
    return time.perf_counter() - start


def run_request(argv):
    """(seconds, exit code, stdout, stderr) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed request, not a failed run
            code = "exception"
            err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def measure(job):
    """Passes over the request list, with a speed probe at least every
    ``PROBE_INTERVAL_S`` between requests; returns start and duration of
    every request and probe."""
    requests, seconds = job["requests"], job["seconds"]
    first, attempts, probes = None, [], []
    start = time.perf_counter()
    last_probe = -PROBE_INTERVAL_S
    n_pass = 0
    while (n_pass < 2 or (time.perf_counter() - start) / n_pass * (n_pass + 1)
           <= seconds):
        results = []
        for argv in requests:
            if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
                last_probe = time.perf_counter()
                probes.append([last_probe - start, speed_probe()])
            results.append((time.perf_counter() - start, run_request(argv)))
        if first is None:
            first = [r for _, r in results]
        for i, (t, (dt, code, out, err)) in enumerate(results):
            attempts.append({"index": i, "pass": n_pass, "start": t,
                             "seconds": dt, "code": code,
                             "same": (code, out, err) == tuple(first[i][1:])})
        n_pass += 1
    probes.append([time.perf_counter() - start, speed_probe()])
    return {
        "attempts": attempts,
        "probes": probes,
        "outputs": [list(r[1:]) for r in first],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(job, untraced_too):
    """Traced pass; with ``untraced_too`` each request also runs untraced,
    alternately before and after its traced run, so that drift in machine
    speed cancels out of the tracing overhead."""
    from tracer import Tracer  # imported after set-up, from this directory

    tracer = Tracer()
    plain, traced = [], []
    for i, argv in enumerate(job["requests"]):
        if untraced_too and i % 2 == 0:
            plain.append(run_request(argv))
        wrapped = tracer.install()
        tracer.request = i
        traced.append(run_request(argv))
        tracer.uninstall()
        if untraced_too and i % 2 == 1:
            plain.append(run_request(argv))
    result = {"wrapped": wrapped,
              "traced_s": sum(r[0] for r in traced),
              "traced_outputs": [list(r[1:]) for r in traced],
              "summary": tracer.summary()}
    if untraced_too:
        result["untraced_s"] = sum(r[0] for r in plain)
        result["untraced_outputs"] = [list(r[1:]) for r in plain]
        tracer.save(job["spans_path"])
    return result


def main():
    mode = sys.argv[1]
    result = {"ready": READY, "python": sys.version.split()[0],
              "semiphoton": semiphoton.__file__}
    if mode == "setup":
        result["probe_s"] = [speed_probe() for _ in range(3)]
    else:
        job = json.load(sys.stdin)
        result["numpy"] = np.__version__
        if mode == "measure":
            result.update(measure(job))
        elif mode in ("trace-a", "trace-b"):
            result.update(trace(job, untraced_too=mode == "trace-a"))
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
