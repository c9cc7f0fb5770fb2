"""Self-test of the benchmark's tracer and oracle.

Run from the repository root:  python3 perfbench/selftest.py

1. Coverage: a few requests run with the tracer installed and, at the same
   time, a ``sys.setprofile`` hook that sees every Python call.  For every
   wrapped function the tracer's call count must equal the profiler's, so
   no binding was missed.  Tracing must not change the output bytes.
2. Oracle: hand-made outputs with NaN, unreadable CSV cells, a wrong exit
   code, a missing suite or a torus/sweep disagreement must fail.
3. Counting: a failed request counts once, however many passes ran.
4. BENCHMARK.json names exactly the metrics and units that run.py prints.
Exits 1 if any part fails.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from child import run_request  # noqa: E402
from tracer import Tracer  # noqa: E402

REQUESTS = [
    ["verify", "--suite", "all", "--samples", "10", "--seed", "7"],
    ["torus", "--zeta", "0.3", "--units", "gaussian_cgs",
     "--quad-points", "256"],
    ["sweep-zeta", "--min", "0.2", "--max", "0.3", "--steps", "3",
     "--units", "natural", "--quad-points", "256"],
]


def coverage():
    tracer = Tracer()
    plain = [run_request(argv)[1:] for argv in REQUESTS]
    tracer.install()
    originals = {fn.__code__: name for fn, name in
                 ((fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
                  for fn in tracer._wrappers)}
    seen = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in originals:
            seen[originals[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        traced = [run_request(argv)[1:] for argv in REQUESTS]
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    counted = {n: c for n, c in tracer.summary()["calls"].items() if c}
    problems = [f"{name}: traced {counted.get(name, 0)}, profiled {n}"
                for name, n in sorted(seen.items()) if counted.get(name) != n]
    if traced != plain:
        problems.append("tracing changed the output bytes")
    return problems, f"{len(counted)} functions, {sum(seen.values())} calls"


def oracle_rejects():
    verify = REQUESTS[0] + ["--format", "json"]
    code, good, _ = run_request(verify)[1:]
    csv_argv = REQUESTS[0] + ["--format", "csv"]
    csv_code, csv_good, _ = run_request(csv_argv)[1:]
    doc = json.loads(good)
    no_dynamics = dict(doc, checks=[c for c in doc["checks"]
                                    if not c["id"].startswith("dynamics/")])
    torus_code, torus_out, _ = run_request(REQUESTS[1])[1:]
    sweep = ["sweep-zeta", "--min", "0.3", "--max", "0.3", "--steps", "1",
             "--units", "gaussian_cgs", "--quad-points", "256"]
    sweep_out = run_request(sweep)[2]
    line = sweep_out.splitlines()[1].split(",")
    shifted = sweep_out.replace(line[2], repr(float(line[2]) * 1.001))
    cases = {
        "NaN in JSON": ([verify], [(code, good.replace("0.0", "NaN", 1), "")]),
        "wrong exit code": ([verify], [(1, good, "")]),
        "missing suite": ([verify], [(code, json.dumps(no_dynamics), "")]),
        "unreadable CSV cell": ([csv_argv], [(csv_code, csv_good.replace(
            "1e-12", "np.float64(1e-12)", 1), "")]),
        "torus/sweep disagree": ([REQUESTS[1], sweep], [
            (torus_code, torus_out, ""), (0, shifted, "")]),
    }
    problems = []
    for name, (requests, outputs) in cases.items():
        if not any(v["reasons"] for v in oracle.judge(requests, outputs)):
            problems.append(f"oracle accepted: {name}")
    agreeing = oracle.judge([REQUESTS[1], sweep],
                            [(torus_code, torus_out, ""), (0, sweep_out, "")])
    if any(v["reasons"] for v in agreeing):
        problems.append(f"oracle rejected a good torus/sweep pair: {agreeing}")
    return problems, f"{len(cases)} defects"


def counting():
    """``failed`` counts requests, so it must not change with the passes."""
    requests = [["a"], ["b"], ["c"]]
    verdicts = [{"reasons": r, "fails": [], "complete": True}
                for r in ([], ["bad"], [])]
    counts = [run.tally(requests, verdicts,
                        [(i, not (i == 2 and p == 1)) for p in range(passes)
                         for i in range(3)])
              for passes in (2, 5)]
    problems = [f"{passes} passes: {c['failed']} of {c['attempted']} failed, "
                f"expected 2 of 3" for passes, c in zip((2, 5), counts)
                if (c["failed"], c["attempted"]) != (2, 3)]
    return problems, "failed requests independent of passes"


def benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }
    printed = {"end_to_end": run.END_TO_END_UNITS,
               "per_layer": run.per_layer_units(),
               "workloads": list(run.WORKLOADS)}
    return ([f"{key} differ" for key in printed if declared[key] != printed[key]],
            "metrics and workloads")


def main():
    failed = False
    for name, test in (("coverage", coverage), ("oracle", oracle_rejects),
                       ("counting", counting),
                       ("BENCHMARK.json", benchmark_json)):
        problems, what = test()
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}: {what}")
        for problem in problems:
            print(f"     {problem}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
