import itertools
import os
import pathlib
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

import coxmon.morphisms

from coxmon import (
    INFINITY,
    LiftCertificate,
    OrbitCertificate,
    apply_morphism,
    bipartite_partition,
    block_partition,
    braid_from_word,
    braid_identity,
    build_morphism,
    burst,
    burst_base_multiplicity,
    canonical_word,
    check_folding,
    compose,
    divides,
    fixed_submonoid_check,
    is_isomorphic,
    is_lcm_partition,
    lcm,
    lift,
    longest_element,
    multiply,
    named_graph,
    orbit_partition,
    parse_graph,
    verify_burst,
    verify_respects_lcm,
    verify_respects_normal_forms,
)
from coxmon.morphisms import burst_multiplier


# -- morphisms from admissible partitions ---------------------------------


def test_build_morphism_basics():
    g = named_graph("A3")
    m = build_morphism(g, bipartite_partition(g))
    assert m.target == g
    assert m.source.vertices == ("1", "2")
    assert m.source.m("1", "2") == 4  # the type is B2
    # atoms map to the lifted block longest elements
    assert m.image_of_atom("1") == lift(longest_element(g, ("1", "3")))
    assert m.image_of_atom("2") == braid_from_word(g, "2")


def test_build_morphism_rejects_inadmissible():
    g = named_graph("A3")
    with pytest.raises(ValueError):
        build_morphism(g, block_partition(g, [["1"], ["2", "3"]]))


def test_build_morphism_refuses_a_partition_over_another_graph():
    # 1,3/2 is admissible over B3, but its images would be taken in A3
    p = block_partition(named_graph("B3"), [["1", "3"], ["2"]])
    assert build_morphism(p.graph, p).target == named_graph("B3")
    with pytest.raises(ValueError, match="partition is not over the given graph"):
        build_morphism(named_graph("A3"), p)


def test_apply_morphism_is_multiplicative():
    g = named_graph("A3")
    m = build_morphism(g, bipartite_partition(g))
    src = m.source
    x = braid_from_word(src, "121")
    y = braid_from_word(src, "2")
    fx, fy = apply_morphism(m, x), apply_morphism(m, y)
    assert apply_morphism(m, multiply(x, y)) == multiply(fx, fy)
    # image of a word is the product of atom images
    assert fx == multiply(
        multiply(m.image_of_atom("1"), m.image_of_atom("2")), m.image_of_atom("1")
    )
    # a braid over another graph is refused, also under python -O
    with pytest.raises(ValueError):
        apply_morphism(m, braid_from_word(g, "1"))


def _atom_by_atom(m, x):
    """The image of x as the product of its atom images, one at a time."""
    out = braid_identity(m.target)
    for f in x.factors:
        for name in canonical_word(f):
            out = multiply(out, m.image_of_atom(name))
    return out


def test_apply_morphism_matches_the_atom_by_atom_product():
    # one normalize over all image factors gives the normal form that
    # multiplying in the atom images one by one gives
    b = burst(named_graph("H3"), 2)
    e6 = named_graph("E6")
    rng = random.Random(11)
    for m in (build_morphism(b.graph, b.partition),
              build_morphism(e6, orbit_partition(e6))):
        vs = m.source.vertices
        for _ in range(30):
            word = [rng.choice(vs) for _ in range(rng.randint(0, 8))]
            x = braid_from_word(m.source, word)
            assert apply_morphism(m, x) == _atom_by_atom(m, x), word


def test_full_verification_on_small_spherical_targets():
    for name in ("A3", "B3", "H3"):
        g = named_graph(name)
        m = build_morphism(g, bipartite_partition(g))
        rl = verify_respects_lcm(m, pairs=40, max_len=5)
        rn = verify_respects_normal_forms(m, samples=30, max_len=5)
        assert rl.ok and not rl.skipped, (name, rl.failures())
        assert rn.ok, (name, rn.failures())


def test_verification_skips_undecidable_pairs_on_affine_target():
    # the affine square has no infinite labels, so reversing can never
    # certify a missing common multiple: those pairs are skipped, not
    # counted as violations
    g = named_graph("Atilde3")
    m = build_morphism(g, block_partition(g, [["1", "3"], ["2", "4"]]))
    r = verify_respects_lcm(m, pairs=12, max_len=3, step_bound=800)
    assert r.skipped
    assert r.ok, r.failures()


# -- lcm partitions -------------------------------------------------------


def test_lcm_partition_positive():
    g = named_graph("A3")
    rep = is_lcm_partition(bipartite_partition(g))
    assert rep.ok
    f = named_graph("F4")
    assert is_lcm_partition(block_partition(f, [["1", "4"], ["2", "3"]])).ok


def test_lcm_partition_negative_on_affine_square():
    # admissible, but block {1,3} extends vertex 2 to a spherical subgraph,
    # so the blocks cannot carry a common-multiple structure
    g = named_graph("Atilde3")
    rep = is_lcm_partition(block_partition(g, [["1", "3"], ["2", "4"]]))
    assert not rep.ok
    assert any(
        "spherical" in detail
        for _, ok, detail in rep.checks
        if not ok
    )


# -- bursts ---------------------------------------------------------------

# base multiplicities: lcm over the edges of (m-1) for even m, (m-1)/2 for
# odd m, 2 for an infinite label
BASE_MULT = {
    "A2": 1,
    "B2": 3,
    "B3": 3,
    "F4": 3,
    "H3": 2,
    "H4": 2,
    "I2(inf)": 2,
    "E6": 1,
}


def test_burst_base_multiplicity():
    for name, n0 in BASE_MULT.items():
        assert burst_base_multiplicity(named_graph(name)) == n0, name
    assert burst_multiplier(4) == 3
    assert burst_multiplier(5) == 2
    assert burst_multiplier(INFINITY) == 2


def test_burst_rejects_bad_copy_counts():
    g = named_graph("B2")
    with pytest.raises(ValueError):
        burst(g, 2)  # not a multiple of 3
    with pytest.raises(ValueError):
        burst(g, 0)


# frozen burst shapes: (input, copies) -> graph isomorphic to
BURST_SHAPES = [
    ("H3", 2, ["D6"]),
    ("H4", 2, ["E8"]),
    ("I2(inf)", 2, ["Atilde3"]),
    ("B2", 3, ["A3", "A3"]),
    ("F4", 3, ["E6", "E6"]),
    ("B3", 3, ["A5", "D4"]),
    ("A2", 1, ["A2"]),
]


def test_burst_shapes():
    for name, copies, parts in BURST_SHAPES:
        g = named_graph(name)
        b = burst(g, copies)
        assert b.copies == copies
        comps = sorted(
            (b.graph.restrict(c) for c in b.graph.components()),
            key=lambda h: h.rank,
        )
        want = sorted((named_graph(p) for p in parts), key=lambda h: h.rank)
        assert len(comps) == len(want), name
        for got, expect in zip(comps, want):
            assert is_isomorphic(got, expect), (name, expect.vertices)


def test_burst_partition_blocks_are_the_fibers():
    b = burst(named_graph("H3"), 2)
    assert b.partition.names == ("1", "2", "3")
    assert b.partition.block_of("1") == ("1^1", "1^2")


def test_verify_burst():
    for name, copies, _ in BURST_SHAPES:
        b = burst(named_graph(name), copies)
        rep = verify_burst(b)
        assert rep.ok, (name, rep)
        assert rep.type_matches
        assert rep.verdict.is_admissible


def test_verify_burst_infinite_edge_structure():
    b = burst(named_graph("I2(inf)"), 2)
    rep = verify_burst(b)
    assert rep.ok
    assert isinstance(rep.verdict.certificate, OrbitCertificate)
    ((pair, ok, detail),) = rep.infinite_pair_structure
    assert pair == ("1", "2") and ok
    assert "opposite-pair squares" in detail


def test_burst_partitions_are_lcm_partitions():
    for name, copies in (("H3", 2), ("B2", 3)):
        b = burst(named_graph(name), copies)
        assert is_lcm_partition(b.partition).ok, name


def test_burst_morphism_h3_into_d6():
    b = burst(named_graph("H3"), 2)
    m = build_morphism(b.graph, b.partition)
    assert is_isomorphic(m.source, named_graph("H3"))
    rl = verify_respects_lcm(m, pairs=30, max_len=4)
    assert rl.ok and not rl.skipped, rl.failures()


# -- foldings -------------------------------------------------------------


def test_folding_e6_to_f4():
    rep = check_folding(
        named_graph("E6"),
        named_graph("F4"),
        {"1": "1", "6": "1", "3": "2", "5": "2", "4": "3", "2": "4"},
    )
    assert rep.ok and rep.type_matches
    tags = {pair: tag for pair, _, tag, _, _ in rep.pair_tags}
    assert tags[("1", "2")] == "A"
    assert tags[("2", "3")] == "B"  # the folded A3 chain against label 4
    assert tags[("1", "3")] == "product"


def test_folding_exceptional_tags():
    # the three exceptional families show up when a single base edge
    # carries a full non-bipartite admissible partition
    a4 = check_folding(
        named_graph("A4"), named_graph("I2(4)"),
        {"1": "1", "4": "1", "2": "2", "3": "2"},
    )
    assert a4.ok and [t for _, _, t, _, _ in a4.pair_tags] == ["C1"]
    e6 = check_folding(
        named_graph("E6"), named_graph("I2(8)"),
        {"1": "1", "2": "1", "6": "1", "3": "2", "4": "2", "5": "2"},
    )
    assert e6.ok and [t for _, _, t, _, _ in e6.pair_tags] == ["C2"]
    f4 = check_folding(
        named_graph("F4"), named_graph("I2(8)"),
        {"1": "1", "4": "1", "2": "2", "3": "2"},
    )
    assert f4.ok and [t for _, _, t, _, _ in f4.pair_tags] == ["C3"]


def test_folding_mixed_components():
    # two components over one base edge with matching orders but different
    # mechanisms: tagged D(...) with the member tags
    g = parse_graph(
        "edge a b 3\nedge b c 3\nedge 1 2 3\nedge 2 3 3\nedge 3 4 3"
    )
    rep = check_folding(
        g, named_graph("I2(4)"),
        {"a": "1", "c": "1", "b": "2", "1": "1", "4": "1", "2": "2", "3": "2"},
    )
    assert rep.ok
    assert [t for _, _, t, _, _ in rep.pair_tags] == ["D(C1,B)"]


def test_folding_negative():
    # folding A3 onto I2(3) is impossible: the folded pair has order 4
    rep = check_folding(
        named_graph("A3"), named_graph("I2(3)"), {"1": "1", "3": "1", "2": "2"}
    )
    assert not rep.ok
    assert any("pair order 4 != label 3" in d for _, _, _, ok, d in rep.pair_tags
               if not ok)


def test_folding_rejects_non_surjective_mapping():
    with pytest.raises(ValueError):
        check_folding(named_graph("A3"), named_graph("I2(3)"),
                      {"1": "1", "3": "1", "2": "1"})


# -- composition ----------------------------------------------------------


def test_compose_two_foldings_of_a6():
    # A6 folded by its flip has type B3; folding that by its bipartite
    # partition lands on I2(6); the composite is the order-6 two-block
    # partition of A6 directly
    a6 = named_graph("A6")
    outer = build_morphism(a6, orbit_partition(a6))
    assert outer.source.m("2", "3") == 4  # type B3
    inner = build_morphism(outer.source, bipartite_partition(outer.source))
    assert inner.source.m("1", "2") == 6
    comp = compose(outer, inner)
    assert comp.partition.blocks == (("1", "3", "4", "6"), ("2", "5"))
    assert comp.source.m("1", "2") == 6
    assert isinstance(comp.verdict.certificate, LiftCertificate)
    # the composite morphism acts exactly like applying one after the other
    x = braid_from_word(inner.source, "1221")
    assert apply_morphism(comp, x) == apply_morphism(
        outer, apply_morphism(inner, x)
    )


def test_compose_requires_matching_graphs():
    a6 = named_graph("A6")
    outer = build_morphism(a6, orbit_partition(a6))
    other = build_morphism(named_graph("A3"),
                           bipartite_partition(named_graph("A3")))
    with pytest.raises(ValueError):
        compose(outer, other)


def test_compose_and_folding_checks_raise_without_assert(monkeypatch):
    # each re-check of compose (and the irreducibility check of a folding
    # component) raises, also under python -O, when it fails
    a6 = named_graph("A6")
    outer = build_morphism(a6, orbit_partition(a6))
    inner = build_morphism(outer.source, bipartite_partition(outer.source))
    failing = {
        "apply_morphism": (lambda m, x: braid_identity(m.target),
                           "not the lifted longest element"),
        "check_admissible": (lambda p, bound: SimpleNamespace(outcome="not_admissible"),
                             "direct re-check"),
        "partition_type": (lambda p, bound: SimpleNamespace(entry=lambda i, j: 7),
                           "composite type disagrees"),
    }
    for name, (fake, message) in failing.items():
        with monkeypatch.context() as mp:
            mp.setattr(coxmon.morphisms, name, fake)
            with pytest.raises(RuntimeError, match=message):
                compose(outer, inner)
    assert compose(outer, inner).source.m("1", "2") == 6
    real = coxmon.morphisms.classify_spherical
    with monkeypatch.context() as mp:
        mp.setattr(coxmon.morphisms, "classify_spherical", lambda g: real(g) * 2)
        with pytest.raises(RuntimeError, match="not irreducible"):
            check_folding(named_graph("A4"), named_graph("I2(4)"),
                          {"1": "1", "4": "1", "2": "2", "3": "2"})


# -- fixed submonoids -----------------------------------------------------


def test_fixed_submonoid_a3_flip():
    # elements fixed by the end swap of A3, counted by length, match the
    # submonoid generated by the orbit elements s2 and s1 s3 exactly
    rep = fixed_submonoid_check(
        named_graph("A3"), [{"1": "3", "3": "1", "2": "2"}], 6
    )
    assert rep.ok and rep.sets_match
    assert rep.fixed_counts == (1, 1, 2, 3, 5, 8, 12)
    assert rep.generated_counts == rep.fixed_counts
    assert rep.ptype.graph().m("1", "2") == 4  # the orbit type is B2


def test_fixed_submonoid_d4_rotation():
    rep = fixed_submonoid_check(
        named_graph("D4"), [{"1": "3", "3": "4", "4": "1", "2": "2"}], 5
    )
    assert rep.ok and rep.sets_match
    assert rep.fixed_counts == (1, 1, 1, 2, 3, 4)
    assert rep.ptype.graph().m("1", "2") == 6  # the orbit type is I2(6)


def test_fixed_submonoid_tests_each_generator():
    # the leaves 1, 3 and 4 of D4 sit around vertex 2: the transpositions
    # (1 3) and (3 4) generate S3, and a braid fixed by each is fixed by
    # every product, so they report what all six elements of S3 report
    g = named_graph("D4")
    leaves = ("1", "3", "4")
    s3 = [{"2": "2", **dict(zip(leaves, image))} for image in itertools.permutations(leaves)]
    whole = fixed_submonoid_check(g, s3, 5)
    assert whole.ok and whole.sets_match
    assert whole.fixed_counts == (1, 1, 1, 2, 3, 4)
    swap_13 = {"1": "3", "3": "1", "4": "4", "2": "2"}
    swap_34 = {"1": "1", "3": "4", "4": "3", "2": "2"}
    cycle = {"1": "3", "3": "4", "4": "1", "2": "2"}
    assert fixed_submonoid_check(g, [swap_13, swap_34], 5) == whole
    assert fixed_submonoid_check(g, [cycle, swap_13], 5) == whole
    # a repeated generator changes nothing
    flip = {"1": "3", "3": "1", "2": "2"}
    a3 = named_graph("A3")
    assert fixed_submonoid_check(a3, [flip, flip], 6) == fixed_submonoid_check(a3, [flip], 6)


def test_fixed_submonoid_rejects_non_automorphism():
    with pytest.raises(ValueError):
        fixed_submonoid_check(
            named_graph("A3"), [{"1": "2", "2": "1", "3": "3"}], 4
        )


def test_fixed_submonoid_rejects_negative_length_bound():
    with pytest.raises(ValueError):
        fixed_submonoid_check(
            named_graph("A3"), [{"1": "3", "3": "1", "2": "2"}], -1
        )


_COUNT_PERM_STEPS = """
from coxmon import fixed_submonoid_check, named_graph
from coxmon.elements import RootPermElement

calls = [0]
for name in ("gen_left", "gen_right"):
    def counted(self, v, _f=getattr(RootPermElement, name)):
        calls[0] += 1
        return _f(self, v)
    setattr(RootPermElement, name, counted)
rep = fixed_submonoid_check(named_graph("A3"), [{"1": "3", "3": "1", "2": "2"}], 6)
print(calls[0], rep.fixed_counts)
"""


def test_fixed_submonoid_work_does_not_follow_the_hash_seed():
    # the enumeration visits braids in insertion order, so the same
    # permutation steps are made whatever the string hash seed
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _COUNT_PERM_STEPS],
                              env=env, capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs
