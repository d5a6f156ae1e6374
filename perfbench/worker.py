"""One workload process: cold start, set-up, then timed passes over the jobs.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path, so
no cache filled by another workload or run is present.  Prints ``READY``
when set-up is done; with ``--setup-only`` it exits there.  Otherwise it
runs passes over the job list, one job after the other, and prints one
JSON line with pass times, job latencies and failures.

    python3 perfbench/worker.py --workload morph-spherical --seed 1 \
        --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs  # noqa: E402
import tracing  # noqa: E402

WARM_BOUND = 2  # admit-nonspherical warm-up bound
# a timed run makes at least this many passes, so that taking each job at
# its median over the passes votes out one slow spell of the machine
MIN_PASSES = 3


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS[:2])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes (overrides the time box)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


def main() -> int:
    args = _args()
    import coxmon  # noqa: F401  (the import is part of set-up)

    cold = tracing.cache_info()
    if any(c["currsize"] for c in cold.values()):
        print(f"caches not empty at start: {cold}", file=sys.stderr)
        return 1
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    ref = jobs.load_reference(args.workload)
    job_list = jobs.select_jobs(args.workload, args.seed, ref)
    if args.workload == "morph-spherical":
        morphisms = jobs.build_morphisms()
        expected = {k: ref["pool"][k]["digest"] for k in job_list}

        def run(key):
            return jobs.run_morph_job(morphisms, key)

        check = jobs.check_morph_job

        # warm-up: root systems, atom images and identity elements
        from coxmon import verify_respects_lcm, verify_respects_normal_forms
        for m in morphisms.values():
            verify_respects_lcm(m, pairs=1, seed=0)
            verify_respects_normal_forms(m, samples=1, seed=0)
        props = {"morphism": [k.rsplit("#", 1)[0] for k in job_list]}
    else:
        pool, tail = ref["pool"], ref["tail"]
        inputs = {k: jobs.admit_partition(pool[k]) for k in job_list if k in pool}
        expected = {k: (pool[k] if k in pool else tail[k])["digest"] for k in job_list}

        def run(key):
            return jobs.run_admit_job(inputs, key)

        check = jobs.check_admit_job

        # warm-up: one untimed run of every job at a small bound fills what
        # the library caches per graph (fields, matrix tables, root systems
        # of blocks; no cache is keyed by the bound), so every timed pass is
        # equally warm without paying for a whole pass in set-up
        for key in dict.fromkeys(job_list):
            jobs.run_admit_job(inputs, key, bound=WARM_BOUND)
        drawn = [pool[k] for k in job_list if k in pool]
        props = {
            "field_degree": [e["degree"] for e in drawn],
            "outcome": [e["outcome"] for e in drawn],
            "graph_rank": [e["rank"] for e in drawn],
            "blocks": [len(e["blocks"]) for e in drawn],
        }
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes, latencies, cpu, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        for n, key in enumerate(job_list):
            if tracer is not None:
                tracer.job = len(passes) * len(job_list) + n
            t0, c1 = time.perf_counter(), time.process_time()
            try:
                result, error = run(key), None
            except Exception as e:  # every failure is counted, the run goes on
                result, error = None, e
            latencies.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c1)
            attempted += 1
            # re-checks and the digest stay outside the timed call
            try:
                if error is not None:
                    raise error
                got = jobs.digest(check(key, result))
                if got != expected[key]:
                    raise jobs.JobFailure(f"{key}: digest {got} != frozen {expected[key]}")
            except Exception as e:
                failures.append(f"{key}: {type(e).__name__}: {e}")
                if len(failures) == 1:
                    traceback.print_exc()
        passes.append({"wall_s": time.perf_counter() - w0,
                       "cpu_s": time.process_time() - c0})
        if args.passes:
            if len(passes) >= args.passes:
                break
        elif (time.perf_counter() - start >= args.seconds and attempted >= jobs.MIN_JOBS
              and len(passes) >= MIN_PASSES):
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs_per_pass": len(job_list),
        "passes": passes,
        "latencies_s": latencies,
        "cpu_s": cpu,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cold_cache": cold,
        "properties": props,
    }
    if tracer is None:
        result["patched"] = tracing.patched_objects()
    else:
        result["trace"] = tracer.summary()
        tracer.write_spans(os.path.join(jobs.OUT, f"spans-{args.workload}-{args.seed}.json"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
