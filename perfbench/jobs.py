"""Job pools, per-seed job lists and job execution for the three workloads.

Every workload draws its jobs from a finite pool that is stored, with the
frozen output digest of every job, in ``reference/<workload>.json``.  The
pools are written by ``freeze.py``; the workload seed only selects from
them, so any seed has a correctness reference and the library receives
nothing but the generated inputs.  Selection uses ``random.Random(seed)``
and nothing else, so the same seed gives the same job list.

This module imports ``coxmon`` lazily: ``run.py`` uses the pure selection
helpers without paying the import.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT = os.path.join(HERE, "out")  # results and spans of each run

WORKLOADS = ("morph-spherical", "admit-nonspherical", "cli-cold")
# a timed run goes on until at least this many jobs have run, so that the
# p90 latency has ten or more jobs beyond it
MIN_JOBS = 100

# -- morph-spherical -------------------------------------------------------

# the morphisms of criterion 7 that dominate its cost (the two bursts and
# the E6 flip) plus three classified partitions; the bipartite E8 morphism
# is left out because its jobs cost ten times those of the others
MORPHISMS = (
    ("H3 into D6", "burst", "H3", 2),
    ("H4 into E8", "burst", "H4", 2),
    ("E6 flip", "orbits", "E6", None),
    ("F4 1,4/2,3", "partition", "F4", "1,4/2,3"),
    ("E6 1,2,6/3,4,5", "partition", "E6", "1,2,6/3,4,5"),
    ("A8 1,3,6,8/2,4,5,7", "partition", "A8", "1,3,6,8/2,4,5,7"),
)
# a pass takes one job seed per morphism from each of MORPH_SEEDS_PER_PASS
# cost groups (the pool's job seeds of that morphism sorted by the warm job
# time measured when the pool was frozen, cut into equal groups), so the
# cost of a pass barely depends on the workload seed
MORPH_JOB_SEEDS = 64     # job seeds per morphism in the pool
MORPH_SEEDS_PER_PASS = 16
MORPH_PAIRS = 4          # pairs per verify_respects_lcm call
MORPH_SAMPLES = 2        # samples per verify_respects_normal_forms call
MORPH_MAX_LEN = 6

# -- admit-nonspherical ----------------------------------------------------

ADMIT_BOUND = 16
ADMIT_LABELS = (2, 3, 4, 5, 6, "inf")
ADMIT_RANKS = (3, 4, 5)
ADMIT_POOL_SEED = 20080404
ADMIT_CANDIDATES = 600
# The pass is stratified by field degree.  The candidates of a degree that
# finished within the freeze time limit are sorted by ``pass_ms`` (their
# median time over several runs in one process holding all of them, taken
# when the pool was frozen) and cut into equal cost classes; a pass draws
# one job from each class, so the draw follows each degree's time
# distribution and the cost of a pass barely depends on the seed.
ADMIT_MIX = {1: 4, 2: 12, 4: 24, 8: 6}  # field degree: cost classes (jobs per pass)
# Degree 16 jobs take seconds each (in a long-lived process often twice
# their frozen time), so one drawn job would make the cost of a pass depend
# on the seed.  Every pass holds the same typical one instead: the timed
# degree 16 candidate with the median warm time.
ADMIT_TYPICAL_DEGREE = 16
ADMIT_TAIL = ("atilde3-1,3/2,4", "verify-burst-I2(inf)", "star-lift")

# -- cli-cold --------------------------------------------------------------

CLI_SPHERICAL = (
    ["A%d" % n for n in range(2, 9)]
    + ["B%d" % n for n in range(2, 9)]
    + ["D%d" % n for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + ["I2(%d)" % m for m in range(3, 13)]
)
CLI_WORDS = 32           # seeded E8 word triples in the pool
CLI_WORDS_PER_PASS = 1


# -- references and selection ---------------------------------------------


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload)) as f:
        return json.load(f)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cost_groups(pool: dict) -> dict:
    """(morphism, cost class) -> sorted pool keys; unclassed keys left out."""
    groups = {}
    for key, entry in sorted(pool.items()):
        if entry["cost_class"] is not None:
            groups.setdefault((key.rsplit("#", 1)[0], entry["cost_class"]), []).append(key)
    return groups


def admit_strata(pool: dict) -> dict:
    """degree -> its cost classes, each a list of pool keys (see ADMIT_MIX)."""
    strata = {}
    for degree, classes in ADMIT_MIX.items():
        timed = sorted((e["pass_ms"], key) for key, e in pool.items()
                       if e["degree"] == degree and e["pass_ms"] is not None)
        strata[degree] = [
            [key for _, key in timed[len(timed) * c // classes:len(timed) * (c + 1) // classes]]
            for c in range(classes)
        ]
    return strata


def admit_typical(pool: dict) -> str:
    """The timed candidate of ADMIT_TYPICAL_DEGREE with the median warm time."""
    timed = sorted((e["ms"], key) for key, e in pool.items()
                   if e["degree"] == ADMIT_TYPICAL_DEGREE and e["ms"] is not None)
    return timed[len(timed) // 2][1]


def select_jobs(workload: str, seed: int, ref: dict) -> list:
    """The job list of one pass: pool keys in execution order."""
    rng = random.Random(seed)
    if workload == "morph-spherical":
        groups = _cost_groups(ref["pool"])
        jobs = [rng.choice(groups[label, c])
                for label, *_ in MORPHISMS for c in range(MORPH_SEEDS_PER_PASS)]
        rng.shuffle(jobs)
        return jobs
    if workload == "admit-nonspherical":
        strata = admit_strata(ref["pool"])
        jobs = [rng.choice(cls) for degree in ADMIT_MIX for cls in strata[degree]]
        jobs.append(admit_typical(ref["pool"]))
        rng.shuffle(jobs)
        return jobs + list(ADMIT_TAIL)
    if workload == "cli-cold":
        words = rng.sample(range(CLI_WORDS), CLI_WORDS_PER_PASS)
        jobs = list(ref["script"])
        for w in words:
            jobs += [f"normal-form#{w}", f"lcm#{w}", f"gcd#{w}", f"lcm-json#{w}"]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# -- encoding library results ----------------------------------------------


def encode_certificate(cert):
    from coxmon import ExhaustiveFiniteCertificate, LiftCertificate, OrbitCertificate

    if cert is None:
        return None
    if isinstance(cert, ExhaustiveFiniteCertificate):
        return ["exhaustive", cert.order]
    if isinstance(cert, OrbitCertificate):
        return ["orbit", cert.group_order, [list(o) for o in cert.orbits]]
    if isinstance(cert, LiftCertificate):
        return ["lift", cert.outer.to_json(), cert.inner.to_json()]
    return [type(cert).__name__]


def encode_verdict(v) -> dict:
    w = v.witness
    return {
        "outcome": v.outcome,
        "bound": v.bound,
        "reason": v.reason,
        "witness": None if w is None else [list(w.alpha), list(w.beta), w.n, w.first],
        "certificate": encode_certificate(v.certificate),
        "pair": None if v.pair is None else [list(x) for x in v.pair],
        "details": [[list(names), encode_verdict(d)] for names, d in v.details],
    }


def encode_report(r) -> dict:
    return {
        "label": r.label,
        "checks": [[n, ok, d] for n, ok, d in r.checks],
        "skipped": [list(s) for s in r.skipped],
    }


# -- building inputs -------------------------------------------------------


def build_morphisms() -> dict:
    """label -> AdmissibleMorphism, through the public API."""
    from coxmon import build_morphism, burst, named_graph, orbit_partition, parse_partition

    out = {}
    for label, kind, name, arg in MORPHISMS:
        g = named_graph(name)
        if kind == "burst":
            b = burst(g, arg)
            out[label] = build_morphism(b.graph, b.partition)
        elif kind == "orbits":
            out[label] = build_morphism(g, orbit_partition(g))
        else:
            out[label] = build_morphism(g, parse_partition(g, arg))
    return out


def admit_partition(spec: dict):
    """BlockPartition of a pool entry (graph given by its edge list)."""
    from coxmon import INFINITY, block_partition
    from coxmon.graphs import CoxeterGraph

    edges = [(i, j, INFINITY if m == "inf" else m) for i, j, m in spec["edges"]]
    g = CoxeterGraph.from_edges(spec["vertices"], edges)
    return block_partition(g, spec["blocks"])


# -- running jobs ----------------------------------------------------------


class JobFailure(Exception):
    """A job whose output fails an independent re-check."""


def run_morph_job(morphisms: dict, key: str) -> tuple:
    """The library calls of one job: the lcm and normal-form reports."""
    from coxmon import verify_respects_lcm, verify_respects_normal_forms

    label, seed = key.rsplit("#", 1)
    m = morphisms[label]
    return (
        verify_respects_lcm(m, pairs=MORPH_PAIRS, max_len=MORPH_MAX_LEN, seed=int(seed)),
        verify_respects_normal_forms(
            m, samples=MORPH_SAMPLES, max_len=MORPH_MAX_LEN, seed=int(seed)),
    )


def check_morph_job(key: str, reports: tuple) -> dict:
    """Every check passed and no pair was skipped; returns the encoding."""
    for r in reports:
        if not r.ok or r.skipped:
            raise JobFailure(f"{key}: {r.label} failures={r.failures()} skipped={r.skipped}")
    rl, rn = reports
    return {"lcm": encode_report(rl), "nf": encode_report(rn)}


def run_admit_job(inputs: dict, key: str, bound: int = ADMIT_BOUND) -> tuple:
    """The library calls of one job, as (graph, verdict, extra); ``inputs``
    maps pool keys to partitions."""
    from coxmon import (
        block_partition,
        burst,
        certify_by_lift,
        check_admissible,
        named_graph,
        parse_graph,
        partition_type,
        verify_burst,
    )

    if key == "atilde3-1,3/2,4":
        g = named_graph("Atilde3")
        p = block_partition(g, [["1", "3"], ["2", "4"]])
        return g, check_admissible(p, bound), None
    if key == "verify-burst-I2(inf)":
        b = burst(named_graph("I2(inf)"), 2)
        rep = verify_burst(b, bound)
        return b.graph, rep.verdict, rep
    if key == "star-lift":
        star = parse_graph("\n".join(f"edge c {leaf} 3" for leaf in "abdex"))
        outer = block_partition(
            star, [["a", "b", "d", "e"], ["c"], ["x"]], names=["1", "2", "3"]
        )
        t = partition_type(outer, bound, assume_admissible=True).graph()
        inner = block_partition(t, [["1", "3"], ["2"]])
        return t, certify_by_lift(outer, inner, bound=bound), None
    p = inputs[key]
    v = check_admissible(p, bound)
    return p.graph, v, partition_type(p, bound) if v.is_admissible else None


def check_admit_job(key: str, result: tuple) -> dict:
    """Replay every refusal's witness, check the tail's known answers;
    returns the encoding."""
    from coxmon import replay_witness

    g, v, extra = result
    for d in (v,) + tuple(d for _, d in v.details):
        if d.outcome == "not_admissible" and not replay_witness(g, d.witness):
            raise JobFailure(f"{key}: witness {d.witness} does not replay")
    out = {"verdict": encode_verdict(v)}
    if key == "verify-burst-I2(inf)":
        if not extra.ok:
            raise JobFailure("burst of I2(inf) does not verify")
        out["type"] = extra.ptype.to_json()
        out["structure"] = [[list(p), ok, d] for p, ok, d in extra.infinite_pair_structure]
    elif key == "star-lift":
        if not v.is_admissible:
            raise JobFailure("five-leaf star lift is not certified")
    elif extra is not None:
        out["type"] = extra.to_json()
    return out


# -- cli-cold script -------------------------------------------------------


def cli_script() -> dict:
    """The fixed part of a cli-cold pass: key -> argv after ``-m coxmon.cli``."""
    script = {}
    for k, name in enumerate(CLI_SPHERICAL):
        argv = ["check-partition", name, "bipartite"] + (["--json"] if k % 2 else [])
        script[f"check-partition {name}"] = argv
    for name in ("E6", "E7", "E8", "F4", "H4"):
        script[f"classify {name}"] = ["classify", name, "--json"]
    script["type E6"] = ["type", "E6", "1,2,6/3,4,5"]
    for name in ("H3", "H4", "I2(inf)"):
        script[f"verify-burst {name}"] = ["verify-burst", name, "--json"]
    script["folding E6 F4"] = ["folding", "E6", "F4", "1:1,6:1,3:2,5:2,4:3,2:4"]
    script["fixed-points A3"] = [
        "fixed-points", "A3", "1:3,3:1,2:2", "--length-bound", "6",
    ]
    script["orbits D4"] = ["orbits", "D4", "--json"]
    script["morphism-verify B3"] = [
        "morphism-verify", "B3", "bipartite", "--pairs", "10", "--samples", "5", "--json",
    ]
    # the other exit codes of the contract: certified negative (1),
    # undecided within the bound (2) and input errors (3)
    script["check-partition H4 1,4/2,3"] = ["check-partition", "H4", "1,4/2,3"]
    script["check-partition A3 1/2,3"] = ["check-partition", "A3", "1/2,3", "--json"]
    script["lcm I2(inf)"] = ["lcm", "I2(inf)", "1", "2", "--json"]
    script["check-partition open"] = [
        "check-partition", "perfbench/inputs/open.graph", "1,3/2", "--bound", "10", "--json",
    ]
    script["check-partition overlap"] = ["check-partition", "A3", "1,2/2,3"]
    script["normal-form bad vertex"] = ["normal-form", "A3", "1,9"]
    return script


def cli_words(k: int) -> tuple:
    """The k-th seeded E8 word triple (w, x, y) of the pool."""
    rng = random.Random(f"cli-words-{k}")
    letters = [str(i) for i in range(1, 9)]
    return tuple(
        ",".join(rng.choice(letters) for _ in range(rng.randint(6, 14)))
        for _ in range(3)
    )


def cli_argv(ref: dict, key: str) -> list:
    if key in ref["script"]:
        return list(ref["script"][key])
    op, k = key.split("#")
    w, x, y = cli_words(int(k))
    if op == "normal-form":
        return ["normal-form", "E8", w]
    if op == "lcm":
        return ["lcm", "E8", x, y]
    if op == "lcm-json":
        return ["lcm", "E8", w, y, "--side", "left", "--json"]
    if op == "gcd":
        return ["gcd", "E8", x, w]
    raise ValueError(f"unknown cli job {key!r}")


def check_cli_output(argv: list, code: int, stdout: bytes) -> None:
    """The exit-code contract (0/1/2/3) and, for --json, a well-formed
    envelope whose verdict agrees with the exit code."""
    if code not in (0, 1, 2, 3):
        raise JobFailure(f"{argv}: exit code {code} outside the contract")
    if "--json" not in argv:
        return
    try:
        payload = json.loads(stdout)
    except ValueError as e:
        raise JobFailure(f"{argv}: --json output does not parse: {e}") from None
    if payload.get("schema") != 1 or payload.get("command") != argv[0]:
        raise JobFailure(f"{argv}: bad JSON envelope")
    verdict = payload.get("verdict")
    if verdict is not None:
        want = {"admissible": 0, "not_admissible": 1}.get(verdict["outcome"], 2)
        if payload.get("ok", True) and code != want:
            raise JobFailure(f"{argv}: verdict {verdict['outcome']} with exit {code}")
    if "ok" in payload and payload["ok"] != (code == 0):
        raise JobFailure(f"{argv}: ok={payload['ok']} with exit {code}")


def cli_digest(code: int, stdout: bytes) -> str:
    return digest([code, hashlib.sha256(stdout).hexdigest()])
