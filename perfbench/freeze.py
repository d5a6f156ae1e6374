"""Write the job pools and frozen output digests to ``reference/``.

    PYTHONPATH=src python3 perfbench/freeze.py [morph-spherical|admit-nonspherical|cli-cold ...]

Run from the repository root.  The digests record the library's outputs at
the commit where they were frozen; re-freezing is only right when a change
is meant to alter outputs.  For admit-nonspherical this also generates the
candidate graphs.  Every drawable job's time is recorded as its median over
several runs in one process (``_pass_ms``); with the field degree of an
admit job it fixes the job's stratum and cost class for good (they decide
the job mix, not the later timings).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs  # noqa: E402

ROOT = os.path.dirname(jobs.HERE)
# a candidate whose first run takes longer than this is kept untimed, with
# its rank and field degree but no outcome, and is never drawn
LIMIT_S = 6.0
# timed runs of each drawable job in one long-lived process; its cost class
# is decided by their median
ROUNDS = 5


def _write(workload: str, data: dict) -> None:
    os.makedirs(jobs.REFERENCE_DIR, exist_ok=True)
    with open(jobs.reference_path(workload), "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def _warm_ms(run, check, out) -> float:
    """Best warm time of a job's library calls, checking that its output
    repeats."""
    times = []
    while len(times) < 3 and (not times or min(times) < 0.1):
        t = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t)
        if check(result) != out:
            raise SystemExit("job output differs between runs")
    return 1000 * min(times)


def _pass_ms(runs: dict) -> dict:
    """key -> median time in ms of ``runs[key]()`` over ``ROUNDS`` runs in this
    process, after one untimed run of every job, as a workload pass runs them.
    Each round takes the jobs in a fresh random order, so the runs of one job
    lie a round apart: a single fast or slow spell of a shared machine does
    not decide its time, as it can for the best of a few back-to-back runs."""
    for run in runs.values():
        run()
    times = {key: [] for key in runs}
    order = sorted(runs)
    rng = random.Random(0)
    for _ in range(ROUNDS):
        rng.shuffle(order)
        for key in order:
            t = time.perf_counter()
            runs[key]()
            times[key].append(time.perf_counter() - t)
    return {key: round(1000 * statistics.median(v), 3) for key, v in times.items()}


def _rank_groups(entries: list, groups: int) -> None:
    """Cut entries sorted by time into equal groups (``cost_class``)."""
    ranked = sorted(entries, key=lambda e: e["ms"])
    size = len(ranked) // groups
    for entry in ranked:
        entry["cost_class"] = None
    for rank, entry in enumerate(ranked[:size * groups]):
        entry["cost_class"] = rank // size


def freeze_morph() -> None:
    morphisms = jobs.build_morphisms()
    pool, runs = {}, {}
    for label, *_ in jobs.MORPHISMS:
        for s in range(jobs.MORPH_JOB_SEEDS):
            key = f"{label}#{s}"
            runs[key] = functools.partial(jobs.run_morph_job, morphisms, key)
            out = jobs.check_morph_job(key, runs[key]())
            pool[key] = {"digest": jobs.digest(out)}
    for key, ms in _pass_ms(runs).items():
        pool[key]["ms"] = ms
        print(key, f"{ms:.1f}ms", flush=True)
    for label, *_ in jobs.MORPHISMS:
        _rank_groups([e for k, e in pool.items() if k.startswith(label + "#")],
                     jobs.MORPH_SEEDS_PER_PASS)
    _write("morph-spherical", {"pool": pool})


# -- admit-nonspherical candidates -----------------------------------------


def _random_graph(rng, rank):
    from coxmon import is_spherical
    from coxmon.graphs import CoxeterGraph

    vs = [str(k) for k in range(1, rank + 1)]
    labels = [m for m in jobs.ADMIT_LABELS if m != 2]
    while True:
        order = vs[:]
        rng.shuffle(order)
        edges = {}
        for k in range(1, rank):  # a random spanning tree keeps it connected
            edges[tuple(sorted((order[k], rng.choice(order[:k]))))] = rng.choice(labels)
        for a, b in itertools.combinations(vs, 2):
            if (a, b) not in edges:
                m = rng.choice(jobs.ADMIT_LABELS)
                if m != 2:
                    edges[(a, b)] = m
        spec = [[a, b, m] for (a, b), m in sorted(edges.items())]
        g = CoxeterGraph.from_edges(vs, [(a, b, float("inf") if m == "inf" else m)
                                         for a, b, m in spec])
        if not is_spherical(g):
            return vs, spec, g


def _random_blocks(rng, g):
    from coxmon import is_spherical

    while True:
        k = rng.choice((2, 3))
        assign = [rng.randrange(k) for _ in g.vertices]
        blocks = [[v for v, a in zip(g.vertices, assign) if a == i] for i in range(k)]
        if all(blocks) and all(is_spherical(g.restrict(b)) for b in blocks):
            return blocks


def _admit_child() -> None:
    """One candidate, read as JSON from stdin, in a fresh interpreter: its
    first (cold) run, then, if that ended within ``LIMIT_S``, its outcome,
    digest and warm time."""
    inputs = {"job": jobs.admit_partition(json.load(sys.stdin))}
    run = functools.partial(jobs.run_admit_job, inputs, "job")
    check = functools.partial(jobs.check_admit_job, "job")
    t = time.perf_counter()
    out = check(run())
    result = {"first_s": round(time.perf_counter() - t, 3)}
    if result["first_s"] <= LIMIT_S:
        result.update(outcome=out["verdict"]["outcome"], ms=round(_warm_ms(run, check, out), 3),
                      digest=jobs.digest(out))
    print(json.dumps(result))


def freeze_admit() -> None:
    """Every candidate is kept with its rank, field degree and blocks; those
    whose first run ends within ``LIMIT_S`` also with outcome, digest and
    warm time.  Each is timed in its own process, so no candidate runs on
    caches that an earlier one filled.  Which of them a pass draws is
    decided by ``jobs.ADMIT_MIX``."""
    from coxmon import field_for_modulus

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    rng = random.Random(jobs.ADMIT_POOL_SEED)
    pool = {}
    for n in range(jobs.ADMIT_CANDIDATES):
        rank = rng.choice(jobs.ADMIT_RANKS)
        vs, spec, g = _random_graph(rng, rank)
        blocks = _random_blocks(rng, g)
        key = f"g{n:04d}"
        entry = pool[key] = {
            "vertices": vs, "edges": spec, "blocks": blocks, "rank": rank,
            "modulus": g.modulus, "degree": field_for_modulus(g.modulus).degree,
            "first_s": None, "outcome": None, "ms": None, "digest": None,
        }
        try:
            r = subprocess.run([sys.executable, os.path.abspath(__file__), "--admit-child"],
                               input=json.dumps(entry), env=env, cwd=ROOT, text=True,
                               capture_output=True, check=True, timeout=2 * LIMIT_S + 10)
            entry.update(json.loads(r.stdout))
        except subprocess.TimeoutExpired:
            pass  # still in its first run, or its warm run is as slow
        print(key, rank, entry["degree"], entry["outcome"], entry["first_s"], entry["ms"],
              flush=True)
    tail = {key: {"digest": jobs.digest(jobs.check_admit_job(key, jobs.run_admit_job({}, key)))}
            for key in jobs.ADMIT_TAIL}
    time_admit_pool(pool)
    _write("admit-nonspherical", {"pool": pool, "tail": tail, "limit_s": LIMIT_S})


def time_admit_pool(pool: dict) -> None:
    """Set ``pass_ms`` of every timed candidate of a degree in ``jobs.ADMIT_MIX``:
    its median time in one process that holds all of them (``_pass_ms``),
    which decides its cost class.  The first run of each is checked against
    its frozen digest."""
    keys = [k for k, e in sorted(pool.items())
            if e["ms"] is not None and e["degree"] in jobs.ADMIT_MIX]
    inputs = {k: jobs.admit_partition(pool[k]) for k in keys}
    for k in keys:
        out = jobs.check_admit_job(k, jobs.run_admit_job(inputs, k))
        if jobs.digest(out) != pool[k]["digest"]:
            raise SystemExit(f"{k}: output differs from its frozen digest")
    times = _pass_ms({k: functools.partial(jobs.run_admit_job, inputs, k) for k in keys})
    for k, e in pool.items():
        e["pass_ms"] = times.get(k)


def freeze_cli() -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    ref = {"script": jobs.cli_script(), "digests": {}}
    keys = list(ref["script"])
    for k in range(jobs.CLI_WORDS):
        keys += [f"normal-form#{k}", f"lcm#{k}", f"gcd#{k}", f"lcm-json#{k}"]
    for key in keys:
        argv = jobs.cli_argv(ref, key)
        r = subprocess.run([sys.executable, "-m", "coxmon.cli"] + argv,
                           env=env, cwd=ROOT, capture_output=True, timeout=120)
        jobs.check_cli_output(argv, r.returncode, r.stdout)
        ref["digests"][key] = {"code": r.returncode,
                               "digest": jobs.cli_digest(r.returncode, r.stdout)}
        print(key, r.returncode, flush=True)
    _write("cli-cold", ref)


if __name__ == "__main__":
    if sys.argv[1:] == ["--admit-child"]:
        _admit_child()
        sys.exit()
    todo = sys.argv[1:] or list(jobs.WORKLOADS)
    for w in todo:
        {"morph-spherical": freeze_morph, "admit-nonspherical": freeze_admit,
         "cli-cold": freeze_cli}[w]()
