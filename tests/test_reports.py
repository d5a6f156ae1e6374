"""Golden digests of whole reports on fixed inputs.

Each report is encoded field by field (graphs, partitions, types and braids
through their own JSON forms) and pinned by the first 16 hex digits of the
sha256 of that encoding: the morphism reports, LCM-partition reports,
burst, folding and fixed-submonoid reports, and admissibility verdicts that
are admissible, unknown and not admissible.  The digests were recorded
before the morphism and partition reports were rebuilt, so every check
name, detail, reason, witness and skip entry must come out the same.
"""

import hashlib
import json

import pytest

from coxmon import (
    AdmissibleMorphism,
    CoxeterGraph,
    block_partition,
    braid_to_json,
    build_morphism,
    burst,
    check_admissible,
    check_folding,
    fixed_submonoid_check,
    is_infinite,
    is_lcm_partition,
    named_graph,
    orbit_partition,
    parse_graph,
    verify_burst,
    verify_respects_lcm,
    verify_respects_normal_forms,
)
from coxmon.monoid import PosBraid
from coxmon.partitions import BlockPartition, PartitionType


def encode(x):
    """A JSON-able form of a report, field by field."""
    if isinstance(x, CoxeterGraph):
        return x.to_json()
    if isinstance(x, BlockPartition):
        return {"names": list(x.names), "blocks": x.to_json()}
    if isinstance(x, PartitionType):
        return x.to_json()
    if isinstance(x, PosBraid):
        return braid_to_json(x)
    if hasattr(x, "_asdict"):
        out = {k: encode(v) for k, v in x._asdict().items()}
        if hasattr(type(x), "ok"):
            out["ok"] = x.ok
        return out
    if isinstance(x, dict):
        return {str(k): encode(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [encode(v) for v in x]
    if is_infinite(x):
        return "inf"
    return x


def digest(report) -> str:
    text = json.dumps(encode(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _h3_burst():
    b = burst(named_graph("H3"), 2)
    return build_morphism(b.graph, b.partition)


def _e6_flip():
    e6 = named_graph("E6")
    return build_morphism(e6, orbit_partition(e6))


def _atilde3():
    g = named_graph("Atilde3")
    return build_morphism(g, block_partition(g, [["1", "3"], ["2", "4"]]))


def _mislabelled():
    # atom 2 goes to the longest element of {2, 3}, whose pair with s1
    # has order 4, not the label 3 of the stated source A2
    a3 = named_graph("A3")
    return AdmissibleMorphism(
        a3, block_partition(a3, [["1"], ["2", "3"]]), None, named_graph("A2"))


OPEN = "edge 1 2 3\nedge 2 3 inf\n"

REPORTS = {
    "lcm H3 burst": (
        lambda: verify_respects_lcm(_h3_burst(), pairs=30, max_len=4, seed=3),
        "dc47a96865f7ff1a"),
    "nf H3 burst": (
        lambda: verify_respects_normal_forms(_h3_burst(), samples=20, max_len=4, seed=3),
        "23708e2e267202ce"),
    "lcm E6 flip": (
        lambda: verify_respects_lcm(_e6_flip(), pairs=30, max_len=5, seed=1),
        "4d85c16f834eaf9e"),
    "nf E6 flip": (
        lambda: verify_respects_normal_forms(_e6_flip(), samples=25, max_len=5, seed=1),
        "0811cbd1a6f06ccd"),
    "lcm Atilde3 skips": (
        lambda: verify_respects_lcm(_atilde3(), pairs=12, max_len=3, step_bound=800),
        "e9ac5fb7f39d7ece"),
    "nf Atilde3": (
        lambda: verify_respects_normal_forms(_atilde3(), samples=12, max_len=3),
        "f79905be996ee445"),
    "lcm mislabelled": (
        lambda: verify_respects_lcm(_mislabelled(), pairs=6, max_len=4),
        "a6758432ba2680e9"),
    "nf mislabelled": (
        lambda: verify_respects_normal_forms(_mislabelled(), samples=6, max_len=4),
        "d50de80bfabe74ec"),
    "nf mislabelled wide": (
        lambda: verify_respects_normal_forms(_mislabelled(), samples=40, max_len=6),
        "5fd0cd1a4fcf0238"),
    "lcm partition Atilde3": (
        lambda: is_lcm_partition(
            block_partition(named_graph("Atilde3"), [["1", "3"], ["2", "4"]])),
        "7b18cbe11109b2d9"),
    "lcm partition F4": (
        lambda: is_lcm_partition(
            block_partition(named_graph("F4"), [["1", "4"], ["2", "3"]])),
        "3383a0096873b177"),
    "lcm partition A3 singletons": (
        lambda: is_lcm_partition(block_partition(named_graph("A3"), [["1"], ["2"], ["3"]])),
        "cc823e9f1e582ca4"),
    "verify burst I2(inf)": (
        lambda: verify_burst(burst(named_graph("I2(inf)"), 2)),
        "7a2d42ace7250fa6"),
    "verify burst B2": (
        lambda: verify_burst(burst(named_graph("B2"), 3)),
        "a10fbe17f8c1e305"),
    "verify burst B2 as A2": (
        lambda: verify_burst(burst(named_graph("B2"), 3)._replace(original=named_graph("A2"))),
        "fa3b5a4a5e609909"),
    "folding E6 F4": (
        lambda: check_folding(named_graph("E6"), named_graph("F4"), {
            "1": "1", "6": "1", "3": "2", "5": "2", "4": "3", "2": "4"}),
        "fadeab4cba711991"),
    "folding A3 I2(3)": (
        lambda: check_folding(named_graph("A3"), named_graph("I2(3)"),
                              {"1": "1", "3": "1", "2": "2"}),
        "72941554496fea78"),
    "fixed A3 flip": (
        lambda: fixed_submonoid_check(named_graph("A3"), [{"1": "3", "3": "1", "2": "2"}], 6),
        "059527ea90ef973e"),
    "admissible A4 singletons": (
        lambda: check_admissible(
            block_partition(named_graph("A4"), [["1"], ["2"], ["3"], ["4"]])),
        "361d8ab7b00a1773"),
    "admissible by pairs": (
        lambda: check_admissible(block_partition(
            parse_graph("edge 1 2 4\nedge 2 3 3\nvertex 4\n"), [["1", "3"], ["2"], ["4"]])),
        "5dc7d8d00a616370"),
    "admissible Atilde3 orbits": (
        lambda: check_admissible(
            block_partition(named_graph("Atilde3"), [["1", "3"], ["2", "4"]])),
        "b5c89f45739ce9a8"),
    "unknown open": (
        lambda: check_admissible(block_partition(parse_graph(OPEN), [["1", "3"], ["2"]]), 10),
        "26833383bd292cb3"),
    "unknown beside admissible": (
        lambda: check_admissible(block_partition(
            parse_graph(OPEN + "edge 4 5 3\n"), [["1", "3"], ["2"], ["4"], ["5"]]), 10),
        "59ede3e9bc3f33f6"),
    "refused H4": (
        lambda: check_admissible(block_partition(named_graph("H4"), [["1", "4"], ["2", "3"]])),
        "a5c2913c3be173ce"),
    "refused twice": (
        lambda: check_admissible(
            block_partition(named_graph("A4"), [["1"], ["2", "3"], ["4"]])),
        "437d28fc76f859ac"),
    "refused beside unknown": (
        lambda: check_admissible(block_partition(
            parse_graph(OPEN + "edge 3 4 3\n"), [["1", "3"], ["2"], ["4"]]), 10),
        "403624d64152445a"),
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_report_digest(name):
    build, want = REPORTS[name]
    report = build()
    assert digest(report) == want, json.dumps(encode(report))[:2000]


def test_mislabelled_morphism_fails_the_expected_checks():
    m = _mislabelled()
    rl = verify_respects_lcm(m, pairs=6, max_len=4)
    rn = verify_respects_normal_forms(m, samples=6, max_len=4)
    assert rl.failures() + rn.failures() == [
        ("lcm atoms 1,2", "phi(lcm)=PosBraid(12321) lcm(phi)=PosBraid(121321)"),
        ("divisibility reflection on 6 pairs", "5/6"),
        ("lcm respect on 6 decided pairs", "3/6"),
        ("image of source longest element", "PosBraid(12321) vs PosBraid(121321)"),
        ("gcd respect on 6 pairs", "5/6"),
        ("irreducible fractions on 6 pairs", "5/6"),
    ]
    assert not rl.skipped and not rn.skipped


def test_verdict_outcomes_cover_every_kind():
    outcomes = {name: REPORTS[name][0]().outcome for name in REPORTS
                if name.startswith(("admissible", "unknown", "refused"))}
    assert set(outcomes.values()) == {"admissible", "unknown", "not_admissible"}
