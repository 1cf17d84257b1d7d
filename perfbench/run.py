"""Benchmark runner for instanton-zeta.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every job runs in a fresh, single-threaded
interpreter (worker.py) with cold module caches, one at a time, because the
library's functools and form caches hide repeated work inside one process.
A run

  * launches the set-up worker several times and reports the median time
    from a fresh interpreter to the workload's modules being imported;
  * repeats the workload job in fresh workers for --seconds and reports
    medians over the repetitions;
  * with --trace 1, also runs the job twice with the per-layer tracer,
    checks that its counts repeat exactly, and reports per-layer metrics
    and the tracing overhead instead of the end-to-end metrics.

Every output is checked exactly against the references recorded in
reference/.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it report
every metric by name with its unit, the seed and the worker environment.
The exit code is 0 only when every output check passed.

``--workload all`` runs every workload in turn; ``--size smoke`` runs them
at tiny orders and ``--perturb-reference`` corrupts one reference entry
(a negative control that must fail); both serve the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = tuple(workloads.MODULES)

# Worker environment, fixed so that runs are comparable.
WORKER_ENV = {"INSTANTON_ZETA_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_LAUNCHES = 15
TRACED_RUNS = 2
RUN_LIMIT_S = 170    # a run must end well inside three minutes

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# reported by name on the lines before the result; fail_frac is the
# result's failed / attempted, the others exist on closed-forms only
REPORT_UNITS = {"fail_frac": "ratio", "series_s": "s",
                "tau_ms.p50": "ms", "tau_ms.p90": "ms"}
LAYER_UNITS = dict(tracer.metric_units(), **{"trace.overhead_frac": "ratio"})


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC), **WORKER_ENV)


def _remaining(deadline):
    return max(1.0, deadline - time.monotonic())


def setup_sample(workload, deadline):
    """Seconds from launching a fresh interpreter to the workload's
    modules being imported."""
    cmd = [sys.executable, str(WORKER), "setup",
           ",".join(workloads.MODULES[workload])]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), text=True,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.wait(timeout=_remaining(deadline))
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode:
        raise RuntimeError(f"set-up worker for {workload} failed "
                           f"(exit code {proc.returncode})")
    return elapsed


def job_sample(mode, workload, size, seed, perturb, deadline):
    """One job in a fresh worker; a crashed or hung worker is a failed
    run, reported with its error."""
    cmd = [sys.executable, str(WORKER), mode, workload, size, str(seed)]
    if perturb:
        cmd.append("perturb")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=_env(), text=True,
                              capture_output=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1,
                "problems": [f"{mode} worker timed out"]}
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"attempted": 1, "failed": 1,
                "problems": [f"{mode} worker exit code {done.returncode}: "
                             + done.stderr.strip()[-2000:]]}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _quantile(values, q):
    """Inclusive q-quantile (0 < q < 1) of at least two samples."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def measure(workload, size, seed, seconds, trace, perturb):
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_sample(workload, deadline)   # warm-up: writes bytecode caches
    setups = [setup_sample(workload, deadline)
              for _ in range(SETUP_LAUNCHES)]

    runs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        runs.append(job_sample("job", workload, size, seed, perturb,
                               deadline))
        now = time.monotonic()
        last = now - t0
        # stop when another repetition would end more than half a
        # repetition past --seconds; in a traced run the traced jobs spend
        # part of that budget
        after = last * 1.2 * TRACED_RUNS if trace else 0.0
        if (now - start + last / 2 + after > seconds
                or now + last + after > deadline):
            break
    traced = [job_sample("trace", workload, size, seed, perturb, deadline)
              for _ in range(TRACED_RUNS if trace else 0)]

    everything = runs + traced
    problems = [p for r in everything for p in r["problems"]]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    samples = {"runs": len(runs), "setup_launches": len(setups)}

    layers = {}
    if trace:
        layer_runs = [r["layers"] for r in traced if "layers" in r]
        for name in tracer.metric_units():
            values = [lr[name] for lr in layer_runs if name in lr]
            if name not in tracer.EXACT:
                layers[name] = _median(values)
                continue
            if len(set(values)) > 1:
                problems.append(f"trace count {name} differs between "
                                f"traced runs: {values}")
                failed += 1
            layers[name] = values[0] if values else None
        samples["traced_runs"] = len(layer_runs)
        samples["untraced_functions"] = sorted(
            {f for r in traced for f in r.get("untraced", ())})

    wall = _median(r.get("wall_s") for r in runs)
    if trace:
        traced_wall = _median(r.get("wall_s") for r in traced)
        layers["trace.overhead_frac"] = (
            traced_wall / wall - 1 if traced_wall and wall else None)
    report = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _median(r.get("peak_rss_mb") for r in runs),
        "fail_frac": failed / attempted,
    }
    if workload == "closed-forms":
        taus = [1000 * t for r in runs for t in r.get("tau_s", ())]
        report["series_s"] = _median(r.get("series_s") for r in runs)
        if len(taus) >= 2:
            report["tau_ms.p50"] = statistics.median(taus)
            report["tau_ms.p90"] = _quantile(taus, 0.9)
        samples["tau_points"] = len(taus)

    return {"workload": workload, "seed": seed, "size": size,
            "env": WORKER_ENV, "python": sys.version.split()[0],
            "samples": samples, "report": report, "layers": layers,
            "attempted": attempted, "failed": failed,
            "problems": problems}


def result_line(m, trace):
    if trace:
        metrics = {n: {"value": m["layers"][n], "unit": u}
                   for n, u in LAYER_UNITS.items()}
    else:
        metrics = {n: {"value": m["report"][n], "unit": u}
                   for n, u in E2E_UNITS.items()}
    return {"correct": m["failed"] == 0, "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


def print_report(m):
    units = dict(E2E_UNITS, **REPORT_UNITS)
    print(f"# {m['workload']}  seed {m['seed']}  size {m['size']}  "
          f"samples {json.dumps(m['samples'])}  env {json.dumps(m['env'])}")
    for name, value in m["report"].items():
        print(f"  {name:<14} {value!s:>24} {units[name]}")
    for name, value in m["layers"].items():
        print(f"  {name:<40} {value!s:>24} {LAYER_UNITS[name]}")
    print(json.dumps({k: m[k] for k in ("workload", "seed", "size", "env",
                                        "python", "samples", "report")}))
    for p in m["problems"][:20]:
        print(f"check failed: {p}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full")
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "instanton_zeta" / "__init__.py").is_file():
        print(f"error: the library source is missing ({SRC}); run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        m = measure(name, args.size, args.seed, args.seconds,
                    bool(args.trace), args.perturb_reference)
        print_report(m)
        results.append(result_line(m, bool(args.trace)))
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {n: r["metrics"]
                             for n, r in zip(names, results)}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
