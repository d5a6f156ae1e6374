"""coxmon benchmark: time to exact decisions, end to end and per layer.

    python3 perfbench/run.py --workload morph-spherical --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (the library is taken from ``src``).  One
client, closed loop: each job starts after the previous one has finished.
Workloads (see BENCHMARK.json for why each one is there):

* ``morph-spherical``: ``verify_respects_lcm`` then
  ``verify_respects_normal_forms`` on fixed morphisms with seeded job seeds;
* ``admit-nonspherical``: ``check_admissible`` (bound 16) on seeded
  non-spherical graphs and partitions, plus a fixed tail;
* ``cli-cold``: a script of ``python -m coxmon.cli`` processes.

Every workload runs in fresh interpreters, so no cache warmed by another
workload or run helps it.  A run repeats passes over the seeded job list
until ``--seconds`` have passed and at least ``jobs.MIN_JOBS`` jobs have
run (so the p90 latency has ten or more jobs beyond it); a workload process
also makes at least three passes.  ``wall_s`` and ``cpu_s`` are the time of
one pass, each job taken at its median over the passes; ``job_p50_ms`` is
the median of those per-job medians, ``job_p90_ms`` the p90 over every job
run.  Every job output is compared with the
digest frozen in ``reference/``, plus independent re-checks; any failure
makes the run exit non-zero.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
workload untraced and then traced for a fixed number of passes, and reports
per-layer calls and self time from spans taken around the library's public
functions, plus the tracing overhead.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it restate every metric with its unit, the machine and the
input properties.  Full results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs  # noqa: E402

OUT = jobs.OUT
SETUPS = 5           # fresh set-ups per run; setup_s is their median
CLI_STARTS = 9       # cold `coxmon --help` starts per run for setup_s
TRACE_PASSES = 2     # passes of the untraced and the traced run
RUN_LIMIT_S = 165    # a child still running this long after the run began is killed
_DEADLINE = time.perf_counter() + RUN_LIMIT_S


class BenchError(Exception):
    pass


class _Deadline:
    """Kills a child that is still running when the run's time is up; its
    pipes then close, so blocking reads and waits return."""

    def __init__(self, proc, what: str):
        self.pid, self.what, self.expired = proc.pid, what, False
        self.timer = threading.Timer(max(0.0, _DEADLINE - time.perf_counter()), self._kill)

    def _kill(self) -> None:
        self.expired = True
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def __enter__(self):
        self.timer.start()
        return self

    def __exit__(self, *exc) -> None:
        self.timer.cancel()
        self.timer.join()
        if self.expired:
            raise BenchError(f"{self.what} still running {RUN_LIMIT_S} s after the"
                             " run began; killed")


def _env() -> dict:
    src = os.path.join(ROOT, "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def _check_checkout(workload: str) -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "coxmon", "__init__.py")):
        raise BenchError(f"no coxmon sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(jobs.reference_path(workload)):
        raise BenchError(f"missing reference {jobs.reference_path(workload)}")


def machine() -> dict:
    try:
        import mpmath
        mp = mpmath.__version__
    except ImportError:
        mp = "missing"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):  # never search above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except OSError:
            commit = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "mpmath": mp,
        "commit": commit,
    }


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8]


def shares(values: list) -> dict:
    counts = collections.Counter(str(v) for v in values)
    return {k: counts[k] / len(values) for k in sorted(counts)}


def pool_properties() -> dict:
    """admit-nonspherical: shares over every frozen candidate, and over those
    never drawn because their first run outlasted the freeze time limit."""
    pool = list(jobs.load_reference("admit-nonspherical")["pool"].values())
    untimed = [e for e in pool if e["ms"] is None]
    return {
        f"field_degree, all {len(pool)} candidates": shares([e["degree"] for e in pool]),
        f"outcome, all {len(pool)} candidates (None: not timed)":
            shares([e["outcome"] for e in pool]),
        f"field_degree, {len(untimed)} not timed": shares([e["degree"] for e in untimed]),
    }


# -- in-process workloads --------------------------------------------------


def _worker(workload: str, seed: int, extra: list) -> tuple:
    """Start a worker; return (seconds until READY, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        with _Deadline(proc, f"worker {' '.join(extra)}"):
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(extra)} failed with exit code {code}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def _job_medians(values: list, n: int) -> list:
    """Each of the n jobs of a pass at its median over the passes (every pass
    runs the same jobs, so a slow spell in one pass is voted out)."""
    return [statistics.median(values[j::n]) for j in range(n)]


def _per_pass(values: list, n: int) -> float:
    """Time of one pass of n jobs, each job at its median over the passes."""
    return sum(_job_medians(values, n))


def _job_metrics(res: dict) -> dict:
    n, latencies = res["jobs_per_pass"], res["latencies_s"]
    per_job = _job_medians(latencies, n)
    return {
        "wall_s": sum(per_job),
        "cpu_s": _per_pass(res["cpu_s"], n),
        # the median is taken over the jobs of a pass, each at its median
        # latency, like wall_s; the p90 over every job run, so that ten or
        # more latencies lie beyond it
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_p90_ms": 1000 * p90(latencies),
    }


def run_inprocess(workload: str, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUPS - 1):
        setups.append(_worker(workload, seed, ["--setup-only"])[0])
    setup, res = _worker(workload, seed, [
        "--seconds", str(seconds), "--trace", "0"])
    setups.append(setup)
    metrics = _job_metrics(res)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    res["setups_s"] = setups
    return metrics, res


def trace_inprocess(workload: str, seed: int) -> tuple:
    fixed = ["--passes", str(TRACE_PASSES)]
    _, plain = _worker(workload, seed, fixed + ["--trace", "0"])
    _, traced = _worker(workload, seed, fixed + ["--trace", "1"])
    return plain, traced


# -- cli-cold --------------------------------------------------------------


def _spawn(argv: list, log) -> tuple:
    """Run one child to completion; (exit code, stdout, wall s, cpu s, rss MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=log)
    try:
        with _Deadline(proc, " ".join(argv[1:])):
            out = proc.stdout.read()
            _, status, ru = os.wait4(proc.pid, 0)
    finally:
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def _cli_passes(job_list: list, ref: dict, child: list, log, seconds: float = 0.0,
                count: int = 0) -> dict:
    """Passes over the script: exactly ``count`` of them, or else until
    ``seconds`` have passed and ``jobs.MIN_JOBS`` jobs have run."""
    passes, latencies, cpus, failures, rss = [], [], [], [], 0.0
    start = time.perf_counter()
    while True:
        wall = cpu = 0.0
        for key in job_list:
            argv = jobs.cli_argv(ref, key)
            code, out, w, c, r = _spawn(child + argv, log)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            latencies.append(w)
            cpus.append(c)
            want = ref["digests"][key]
            try:
                jobs.check_cli_output(argv, code, out)
                if code != want["code"] or jobs.cli_digest(code, out) != want["digest"]:
                    raise jobs.JobFailure(
                        f"{key}: exit {code}, output differs from the frozen reference")
            except jobs.JobFailure as e:
                failures.append(str(e))
        passes.append({"wall_s": wall, "cpu_s": cpu})
        if count:
            if len(passes) >= count:
                break
        elif time.perf_counter() - start >= seconds and len(latencies) >= jobs.MIN_JOBS:
            break
    return {"jobs_per_pass": len(job_list), "passes": passes,
            "latencies_s": latencies, "cpu_s": cpus, "attempted": len(latencies),
            "failed": len(failures), "failures": failures[:10], "peak_rss_mb": rss}


def run_cli(seed: int, seconds: float, log) -> tuple:
    ref = jobs.load_reference("cli-cold")
    job_list = jobs.select_jobs("cli-cold", seed, ref)
    starts = []
    for _ in range(CLI_STARTS):
        code, _, w, _, _ = _spawn([sys.executable, "-m", "coxmon.cli", "--help"], log)
        if code != 0:
            raise BenchError(f"coxmon --help exited with {code}")
        starts.append(w)
    res = _cli_passes(job_list, ref, [sys.executable, "-m", "coxmon.cli"], log,
                      seconds=seconds)
    metrics = _job_metrics(res)
    metrics["setup_s"] = statistics.median(starts)
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    res["setups_s"] = starts
    res["properties"] = _cli_properties(ref, job_list)
    # every child is a fresh interpreter; the client itself never loads coxmon
    res["client_imported_coxmon"] = "coxmon" in sys.modules
    return metrics, res


def _cli_properties(ref: dict, job_list: list) -> dict:
    return {
        "subcommand": [jobs.cli_argv(ref, k)[0] for k in job_list],
        "expected_exit": [ref["digests"][k]["code"] for k in job_list],
    }


def trace_cli(seed: int, log) -> tuple:
    import tracing

    ref = jobs.load_reference("cli-cold")
    job_list = jobs.select_jobs("cli-cold", seed, ref)
    plain = _cli_passes(job_list, ref, [sys.executable, "-m", "coxmon.cli"], log, count=1)
    plain["properties"] = _cli_properties(ref, job_list)
    spans_dir = os.path.join(OUT, f"cli-spans-{seed}")
    os.makedirs(spans_dir, exist_ok=True)
    for name in os.listdir(spans_dir):
        os.remove(os.path.join(spans_dir, name))
    child = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_dir]
    traced = _cli_passes(job_list, ref, child, log, count=1)
    summaries, mains, colds = [], [], []
    for name in sorted(os.listdir(spans_dir)):
        if name.endswith(".summary.json"):
            with open(os.path.join(spans_dir, name)) as f:
                s = json.load(f)
            summaries.append(s["trace"])
            mains.append(s["main_s"])
            colds.append(s["cold_cache"])
    if len(summaries) != len(job_list):
        raise BenchError(f"{len(summaries)} traced CLI children reported,"
                         f" {len(job_list)} expected")
    traced["trace"] = tracing.merge(summaries)
    traced["main_s"] = mains
    traced["cold_cache"] = colds
    return plain, traced


def cli_probes(log) -> dict:
    """Cold interpreter start and `import coxmon.cli`, as medians."""
    bare = [_spawn([sys.executable, "-c", "pass"], log)[2] for _ in range(CLI_STARTS)]
    imp = [_spawn([sys.executable, "-c", "import coxmon.cli"], log)[2]
           for _ in range(CLI_STARTS)]
    interp = statistics.median(bare)
    return {"cli.interpreter_s": interp, "cli.import_s": statistics.median(imp) - interp}


# -- per-layer metrics -----------------------------------------------------

PER_LAYER_CALLS = (
    "graphs.is_spherical", "graphs.automorphisms", "graphs.restrict",
    "exact.scalar_mul", "exact.sign",
    "elements.perm_gen", "elements.matrix_gen", "elements.matrix_mul",
    "elements.order", "elements.longest_element", "elements.canonical_word",
    "monoid.normalize", "monoid.reverse_complement", "monoid.lcm",
    "monoid.divides", "monoid.gcd", "monoid.braid_from_word",
    "partitions.check_pair", "partitions.pair_order",
    "morphisms.apply_morphism",
)
PER_LAYER_SELF = (
    "graphs.is_spherical", "graphs.automorphisms",
    "exact.scalar_mul", "exact.sign", "exact.minimal_polynomial",
    "elements.root_system", "elements.perm_gen", "elements.matrix_gen",
    "elements.matrix_mul", "elements.order", "elements.longest_element",
    "elements.canonical_word",
    "monoid.normalize", "monoid.reverse_complement",
    "partitions.check_pair", "partitions.pair_order",
    "partitions.classify_2partitions",
    "morphisms.apply_morphism", "morphisms.verify_respects_lcm", "cli.main",
)


def layer_metrics(trace: dict) -> dict:
    out = {}
    for name in PER_LAYER_CALLS:
        out[f"{name}.calls"] = trace["calls"][name]
    for name in PER_LAYER_SELF:
        out[f"{name}.self_s"] = trace["self_s"][name]
        out[f"{name}.self_share"] = trace["self_s"][name] / trace["elapsed_s"]
    out["exact.minimal_polynomial.builds"] = trace["builds"]["exact.minimal_polynomial"]
    out["elements.root_system.builds"] = trace["builds"]["elements.root_system"]
    out["monoid.budget_exceeded"] = trace["budget_exceeded"]
    pairs = trace["calls"]["partitions.check_pair"]
    out["partitions.decided_ratio"] = trace["decided_pairs"] / pairs if pairs else 0.0
    out["morphisms.skipped_pairs"] = trace["skipped_pairs"]
    return out


END_TO_END = ("wall_s", "cpu_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb")
# what the last line reports with --trace 1.  Every self time goes there as
# its share of the traced processes' time (a layer that a workload bypasses
# reads 0 there, as its call count does); the self times in seconds are
# printed and kept in the result file.
PER_LAYER = (
    tuple(f"{n}.calls" for n in PER_LAYER_CALLS)
    + ("exact.minimal_polynomial.builds", "elements.root_system.builds",
       "monoid.budget_exceeded", "partitions.decided_ratio", "morphisms.skipped_pairs")
    + tuple(f"{n}.self_share" for n in PER_LAYER_SELF)
    + ("cli.interpreter_s", "cli.import_s", "trace.overhead_s", "error_rate")
)

UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", ".calls": "count", ".builds": "count",
         "_ratio": "ratio", "_share": "ratio", "_rate": "ratio", "_pairs": "count", "_exceeded": "count"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


# -- main ------------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, log) -> tuple:
    if workload == "cli-cold":
        metrics, res = run_cli(seed, seconds, log)
    else:
        metrics, res = run_inprocess(workload, seed, seconds)
        if res["patched"]:
            raise BenchError(f"untraced run holds wrappers: {res['patched']}")
    metrics["error_rate"] = res["failed"] / res["attempted"]
    return metrics, res


def per_layer(workload: str, seed: int, log) -> tuple:
    if workload == "cli-cold":
        plain, traced = trace_cli(seed, log)
        if any(c["currsize"] for cold in traced["cold_cache"] for c in cold.values()):
            raise BenchError("a traced CLI child started with filled caches")
        main_s = statistics.median(traced["main_s"])
    else:
        plain, traced = trace_inprocess(workload, seed)
        main_s = 0.0  # no CLI process in this workload
    if plain.get("patched"):
        raise BenchError(f"untraced run holds wrappers: {plain['patched']}")
    metrics = layer_metrics(traced["trace"])
    metrics.update(cli_probes(log))
    metrics["cli.main_s"] = main_s
    metrics["trace.overhead_s"] = (
        _per_pass(traced["latencies_s"], traced["jobs_per_pass"])
        - _per_pass(plain["latencies_s"], plain["jobs_per_pass"]))
    res = {
        "untraced": plain,
        "traced": traced,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
        "properties": plain.get("properties", {}),
    }
    metrics["error_rate"] = res["failed"] / res["attempted"]
    return metrics, res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    _check_checkout(args.workload)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "cli-stderr.log"), "ab") as log:
        if args.trace:
            metrics, res = per_layer(args.workload, args.seed, log)
        else:
            metrics, res = end_to_end(args.workload, args.seed, args.seconds, log)
    record = {"machine": machine(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "metrics": metrics,
              "result": res}
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)

    m = record["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} mpmath={m['mpmath']}"
          f" platform={m['platform']} commit={m['commit']}")
    print(f"workload {args.workload} seed {args.seed}: {res['attempted']} jobs"
          f" attempted, {res['failed']} failed; one client, closed loop")
    if args.trace:
        t = res["traced"]["trace"]
        print(f"{len(res['untraced']['passes'])} passes untraced, then"
              f" {len(res['traced']['passes'])} traced; spans recorded"
              f" {t['spans_recorded']}, dropped {t['spans_dropped']}; decided_ratio"
              f" base: {t['calls']['partitions.check_pair']} check_pair calls")
    else:
        print(f"{len(res['passes'])} passes of {res['jobs_per_pass']} jobs; job_p50_ms"
              f" over {res['jobs_per_pass']} jobs, each at its median over the passes;"
              f" job_p90_ms over {len(res['latencies_s'])} jobs run")
    print("caches at workload process start: "
          + ("root_system, field_for_modulus and minimal_polynomial empty"
             if args.workload != "cli-cold" or args.trace
             else "every coxmon process is a fresh interpreter"))
    for key, values in sorted(res.get("properties", {}).items()):
        print(f"share by {key} (of {len(values)} jobs): {shares(values)}")
    if args.workload == "admit-nonspherical":
        for key, value in pool_properties().items():
            print(f"pool share by {key}: {value}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {unit_of(key)}")
    for msg in res["failures"]:
        print(f"FAILED: {msg}")
    reported = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in reported},
    }))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(2)
