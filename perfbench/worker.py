"""One benchmark job in a fresh interpreter (started by run.py).

  worker.py setup MODULE[,MODULE...]
      import the modules, print "ready" and exit (set-up timing);
  worker.py job|trace WORKLOAD SIZE SEED [perturb]
      run the workload once, untraced or traced, check its outputs outside
      the timed span and print one JSON line with the result.

The library must be importable (run.py puts src/ on PYTHONPATH).
"""

import importlib
import sys


def main(argv):
    mode = argv[0]
    if mode == "setup":
        for name in argv[1].split(","):
            importlib.import_module(name)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    import json
    import resource

    import workloads

    workload, size, seed = argv[1], argv[2], int(argv[3])
    perturb = argv[4:] == ["perturb"]
    for name in workloads.MODULES[workload]:
        importlib.import_module(name)
    assembly = importlib.import_module("instanton_zeta.assembly")
    proposition_series = assembly.proposition_series
    if proposition_series.cache_info().currsize != 0:
        print("proposition_series cache is not empty before timing",
              file=sys.stderr)
        return 1
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    job = workloads.run(workload, size, seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, problems = workloads.check(
        workload, job, workloads.load_reference(workload, size, perturb))
    result = {"wall_s": job.wall_s, "series_s": job.series_s,
              "tau_s": job.tau_s, "peak_rss_mb": peak_rss_mb,
              "attempted": attempted, "failed": failed,
              "problems": problems}
    if tracer is not None:
        result["layers"] = tracer.metrics(proposition_series.cache_info())
        result["untraced"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
