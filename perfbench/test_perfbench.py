"""Self-checks of the benchmark harness (not part of the library's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(jobs.HERE)


@pytest.fixture(scope="module")
def refs():
    return {w: jobs.load_reference(w) for w in jobs.WORKLOADS}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs(refs, workload):
    ref = refs[workload]
    assert jobs.select_jobs(workload, 7, ref) == jobs.select_jobs(workload, 7, ref)


def test_other_seed_changes_graphs_and_job_seeds(refs):
    ref = refs["admit-nonspherical"]
    a, b = (jobs.select_jobs("admit-nonspherical", s, ref) for s in (1, 2))
    graphs = [{json.dumps(ref["pool"][k]["edges"]) for k in x if k in ref["pool"]}
              for x in (a, b)]
    assert graphs[0] != graphs[1]
    ref = refs["morph-spherical"]
    a, b = (jobs.select_jobs("morph-spherical", s, ref) for s in (1, 2))
    assert sorted(a) != sorted(b)


def test_every_selected_job_has_a_reference(refs):
    for seed in range(20):
        for key in jobs.select_jobs("morph-spherical", seed, refs["morph-spherical"]):
            assert key in refs["morph-spherical"]["pool"]
        ref = refs["admit-nonspherical"]
        for key in jobs.select_jobs("admit-nonspherical", seed, ref):
            assert key in ref["tail"] or ref["pool"][key]["ms"] is not None
        for key in jobs.select_jobs("cli-cold", seed, refs["cli-cold"]):
            assert key in refs["cli-cold"]["digests"]


def test_same_job_same_digest(refs):
    ref = refs["admit-nonspherical"]
    keys = jobs.admit_strata(ref["pool"])[2][0][:3]
    inputs = {k: jobs.admit_partition(ref["pool"][k]) for k in keys}
    for key in keys + ["atilde3-1,3/2,4"]:
        want = (ref["pool"].get(key) or ref["tail"][key])["digest"]
        for _ in range(2):
            out = jobs.check_admit_job(key, jobs.run_admit_job(inputs, key))
            assert jobs.digest(out) == want
    morphisms = jobs.build_morphisms()
    key = "F4 1,4/2,3#5"
    want = refs["morph-spherical"]["pool"][key]["digest"]
    out = jobs.check_morph_job(key, jobs.run_morph_job(morphisms, key))
    assert jobs.digest(out) == want


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_child_still_running_at_the_deadline_is_killed(monkeypatch):
    monkeypatch.setattr(run, "_DEADLINE", time.perf_counter() + 0.5)
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    t0 = time.perf_counter()
    with pytest.raises(run.BenchError):
        with run._Deadline(proc, "sleeper"):
            proc.wait()
    assert proc.returncode is not None and time.perf_counter() - t0 < 30


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src") + os.pathsep + jobs.HERE)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def test_tracer_patches_every_binding_and_keeps_results():
    out = _python(
        "import coxmon, coxmon.monoid as mo, coxmon.morphisms as mm, tracing\n"
        "from coxmon import braid_from_word, lcm, named_graph\n"
        "g = named_graph('A3')\n"
        "x, y = braid_from_word(g, '12'), braid_from_word(g, '32')\n"
        "before = lcm(x, y).word()\n"
        "assert tracing.patched_objects() == []\n"
        "t = tracing.Tracer(); t.install()\n"
        "assert mo.lcm is mm.lcm is coxmon.lcm and hasattr(mm.lcm, tracing.MARK)\n"
        "assert coxmon.lcm(x, y).word() == before\n"
        "s = t.summary()\n"
        "print(s['calls']['monoid.lcm'], s['calls']['monoid.reverse_complement'])\n"
    )
    lcm_calls, rev_calls = map(int, out.split())
    assert lcm_calls == 1 and rev_calls == 1


def test_worker_starts_with_cold_caches():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    r = subprocess.run(
        [sys.executable, os.path.join(jobs.HERE, "worker.py"), "--workload",
         "admit-nonspherical", "--seed", "3", "--setup-only"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0 and r.stdout.strip() == "READY"
