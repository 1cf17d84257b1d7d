"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload end to end at tiny orders, untraced and traced, and
checks that the result line carries exactly the keys correct, attempted,
failed and metrics, and every metric named in BENCHMARK.json with its unit.  It also runs the negative
control (a perturbed reference must give fail_frac > 0 and a nonzero exit)
and checks that the runner refuses to run, without printing a result, in a
directory that holds only the benchmark.  Exits nonzero on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def expect(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    done = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          text=True, capture_output=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def check_units(label, metrics, units):
    expect(set(metrics) == set(units),
           f"{label}: metrics {sorted(set(metrics) ^ set(units))} differ "
           "from BENCHMARK.json")
    for name, unit in units.items():
        entry = metrics.get(name, {})
        expect(entry.get("unit") == unit, f"{label}: {name} unit")
        expect(isinstance(entry.get("value"), (int, float)),
               f"{label}: {name} value {entry.get('value')!r}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.E2E_UNITS, "end_to_end metrics match run.py")
    expect(layers == run.LAYER_UNITS, "per_layer metrics match run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "workloads match run.py")

    for workload in run.WORKLOADS:
        common = ("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--size", "smoke")
        for trace, units in (("0", e2e), ("1", layers)):
            label = f"{workload} trace {trace}"
            code, lines = bench(*common, "--trace", trace)
            result = json.loads(lines[-1])
            expect(code == 0, f"{label}: exit code {code}")
            expect(set(result) == RESULT_KEYS, f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label}: outputs checked")
            check_units(label, result["metrics"], units)
            report = json.loads(lines[-2])["report"]
            named = {"fail_frac"} | ({"series_s", "tau_ms.p50", "tau_ms.p90"}
                                     if workload == "closed-forms" else set())
            expect(named <= set(report), f"{label}: report names {named}")
            expect(report["fail_frac"] == 0, f"{label}: fail_frac is 0")

        code, lines = bench(*common, "--trace", "0", "--perturb-reference")
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
        expect(code != 0 and result["correct"] is False
               and result["failed"] > 0 and report["fail_frac"] > 0,
               f"{workload}: perturbed reference must fail")

    # run.py must refuse to run beside the benchmark files alone
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = bench("--workload", "verify-all", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=bare,
                            script=bare / HERE.name / "run.py")
        expect(code != 0 and not lines, "bare benchmark directory refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("smoke test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
