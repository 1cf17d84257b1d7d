"""The benchmark's workloads: what each runs, how it is timed, and how its
outputs are checked.

Every workload reaches the library only through public entry points
(``cli.main`` and ``numeric.sduality_check``), looked up on the module at
call time so that a traced run goes through its wrappers.  A job returns
its raw outputs and timings; ``check`` compares the outputs with the
references in ``reference/<size>.json`` after the timed span has ended.
An operation is one identity result, one table, one expanded series or one
tau point; an exception inside the job fails every operation it owned.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import time
import traceback
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Problem sizes.  "full" is what the benchmark measures; "smoke" runs the
# same code paths at tiny orders for the benchmark's own smoke test.
SIZES = {
    "full": {
        "verify-all": {"order": "16", "oracle_order": "3"},
        "euler-tables": {"max_delta": "24"},
        "closed-forms": {"order": "100", "digits": 40, "grid": (6, 10)},
    },
    "smoke": {
        "verify-all": {"order": "2", "oracle_order": "1"},
        "euler-tables": {"max_delta": "4"},
        "closed-forms": {"order": "8", "digits": 40, "grid": (2, 2)},
    },
}

TABLE_CLASSES = ("v0", "even", "odd")
SERIES_FORMS = ("Z_SU2", "Z_SO3", "Z0", "Z_even", "Z_odd")

# Modules each workload imports before its clock starts; importing them
# also builds the module constants (surface invariants, class data,
# prefactors, mpmath).
MODULES = {
    "verify-all": ("instanton_zeta.cli", "instanton_zeta.assembly",
                   "instanton_zeta.forms", "instanton_zeta.lattice",
                   "instanton_zeta.results"),
    "euler-tables": ("instanton_zeta.cli", "instanton_zeta.results"),
    "closed-forms": ("instanton_zeta.cli", "instanton_zeta.results",
                     "instanton_zeta.formexpr", "instanton_zeta.numeric"),
}


def tau_points(seed, columns, rows):
    """One point drawn uniformly from each cell of a columns x rows grid
    over the truncated fundamental domain (|Re tau| <= 1/2, |tau| >= 1,
    Im tau <= 2.5), each followed by its S-image -1/tau.  Stratifying
    keeps the total evaluation cost nearly equal from seed to seed."""
    rng = random.Random(seed)
    y_lo, y_hi = math.sqrt(3) / 2, 2.5
    points = []
    for i in range(columns):
        for j in range(rows):
            while True:
                x = -0.5 + (i + rng.random()) / columns
                y = y_lo + (j + rng.random()) * (y_hi - y_lo) / rows
                if x * x + y * y >= 1:
                    break
            tau = complex(x, y)
            points.extend((tau, -1 / tau))
    return points


def _cli(argv):
    """Run cli.main, returning (exit code, stdout text)."""
    cli = importlib.import_module("instanton_zeta.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Job:
    """Raw outputs of one run of a workload, with its timings."""

    def __init__(self, points):
        self.points = points
        self.outputs = {}
        self.error = None
        self.wall_s = None
        self.series_s = None
        self.tau_s = []


def run(workload, size, seed):
    params = SIZES[size][workload]
    points = (tau_points(seed, *params["grid"])
              if workload == "closed-forms" else ())
    job = Job(points)
    clock = time.perf_counter
    t0 = clock()
    try:
        if workload == "verify-all":
            job.outputs["verify"] = _cli(
                ["verify", "--suite", "all", "--order", params["order"],
                 "--oracle-order", params["oracle_order"],
                 "--format", "json"])
        elif workload == "euler-tables":
            delta = params["max_delta"]
            for cls in TABLE_CLASSES:
                job.outputs[cls] = _cli(
                    ["table", "--class", cls, "--max-delta", delta,
                     "--order", delta, "--format", "json"])
        else:
            for form in SERIES_FORMS:
                job.outputs[form] = _cli(
                    ["eval", "--form", form, "--series", "--order",
                     params["order"], "--format", "json"])
            job.series_s = clock() - t0
            numeric = importlib.import_module("instanton_zeta.numeric")
            for tau in points:
                t1 = clock()
                job.outputs[tau] = numeric.sduality_check(
                    tau, digits=params["digits"])
                job.tau_s.append(clock() - t1)
    except Exception:  # a failing run is reported, never dropped
        job.error = traceback.format_exc()
    job.wall_s = clock() - t0
    return job


def reference_of(workload, job):
    """The reference record of a job's outputs, as stored on disk."""
    if workload == "verify-all":
        data = json.loads(job.outputs["verify"][1])
        return {"names": sorted([s["suite"], r["name"]]
                                for s in data["suites"]
                                for r in s["results"])}
    if workload == "euler-tables":
        return {cls: json.loads(job.outputs[cls][1])
                for cls in TABLE_CLASSES}
    return {form: json.loads(job.outputs[form][1]) for form in SERIES_FORMS}


def load_reference(workload, size, perturb=False):
    with open(REFERENCE_DIR / f"{size}.json") as fh:
        ref = json.load(fh)[workload]
    if perturb:
        # negative control: one wrong entry must fail its operation
        if workload == "verify-all":
            ref["names"].append(["perturbed", "identity that never runs"])
        elif workload == "euler-tables":
            ref["v0"]["rows"][0]["euler"] += "0"
        else:
            ref["Z_SU2"]["series"][0]["coefficient"] += "0"
    return ref


def _parse(text):
    """The JSON a command printed, or {} when it printed none."""
    try:
        return json.loads(text)
    except ValueError:
        return {}


def _first_difference(got, want):
    """Index of the first differing list entry, or the shorter length."""
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i
    return min(len(got), len(want))


def check(workload, job, ref):
    """Compare a job's outputs with the reference.  Returns (attempted,
    failed, problems)."""
    problems = []
    if workload == "verify-all":
        want = {tuple(n) for n in ref["names"]}
        if "verify" not in job.outputs:
            return len(want), len(want), [job.error]
        code, text = job.outputs["verify"]
        data = _parse(text)
        seen = {(s["suite"], r["name"]): r["passed"]
                for s in data.get("suites", ()) for r in s["results"]}
        bad = sorted(n for n in want | set(seen)
                     if n not in want or not seen.get(n, False))
        problems += [f"identity {s}/{n}: "
                     + ("not in reference" if (s, n) not in want
                        else "missing" if (s, n) not in seen else "failed")
                     for s, n in bad]
        if code != 0 or data.get("ok") is not True:
            problems.append(f"verify exit code {code}, ok={data.get('ok')}")
        failed = max(len(bad), 1 if problems else 0)
        return len(want | set(seen)), failed, problems

    if workload == "euler-tables":
        keys, field = TABLE_CLASSES, "rows"
    else:
        keys, field = SERIES_FORMS, "series"
    for key in keys:
        if key not in job.outputs:
            problems.append(f"{key}: not produced")
            continue
        code, text = job.outputs[key]
        got = _parse(text)
        if code != 0 or got != ref[key]:
            i = _first_difference(got.get(field, []), ref[key][field])
            problems.append(f"{key}: exit code {code}, output differs from "
                            f"the reference at {field}[{i}]")
    attempted = len(keys)
    if workload == "closed-forms":
        attempted += len(job.points)
        for tau in job.points:
            report = job.outputs.get(tau)
            if report is None:
                problems.append(f"tau {tau}: not evaluated")
            elif report.passed is not True:
                problems.append(f"tau {tau}: S-duality relative error "
                                f"{report.rel_error} above threshold")
    if job.error:
        problems.append(job.error)
    failed = len([p for p in problems if p is not job.error])
    return attempted, max(failed, 1 if problems else 0), problems
