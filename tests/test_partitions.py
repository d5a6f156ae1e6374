import itertools
import math
import random

import pytest

from coxmon import (
    INFINITY,
    AdmissibilityVerdict,
    CoxeterGraph,
    ExhaustiveFiniteCertificate,
    IncompatibleWord,
    LiftCertificate,
    OrbitCertificate,
    bipartite_partition,
    block_partition,
    certify_by_lift,
    check_admissible,
    check_pair,
    classify_2partitions,
    automorphisms,
    coxeter_number,
    is_spherical,
    lift_partition,
    named_graph,
    orbit_partition,
    pair_order,
    parse_graph,
    parse_partition,
    partition_from_json,
    partition_type,
    product_split_check,
    replay_witness,
)
from coxmon import partitions


def blocks_text(p):
    return "/".join(",".join(b) for b in p.blocks)


def test_partition_construction():
    g = named_graph("A4")
    p = block_partition(g, [["1", "3"], ["2", "4"]])
    assert p.carrier == ("1", "2", "3", "4")
    assert p.block_of("1") == ("1", "3")
    assert p.names == ("1", "2")
    with pytest.raises(ValueError):
        block_partition(g, [["1"], ["1", "2"]])  # overlap
    with pytest.raises(ValueError):
        block_partition(g, [["1", "2"], ["3", "9"]])  # unknown vertex
    # the vertex fault is named, not the equal default names it implies
    with pytest.raises(ValueError, match="'1' appears in two blocks"):
        parse_partition(g, "1/1")
    with pytest.raises(ValueError, match="'1' is repeated in one block"):
        parse_partition(g, "1,1")


def test_parse_and_json_roundtrip():
    g = named_graph("A4")
    p = parse_partition(g, "1,4/2,3")
    assert blocks_text(p) == "1,4/2,3"
    assert partition_from_json(g, p.to_json()) == p
    assert bipartite_partition(g) == parse_partition(g, "1,3/2,4")


def test_pair_order_small_cases():
    g = named_graph("A3")
    assert pair_order(g, ("1", "3"), ("2",)) == 4
    assert pair_order(g, ("1",), ("3",)) == 2  # commuting atoms
    assert pair_order(g, ("1",), ("2",)) == 3  # an edge with label 3
    f = named_graph("F4")
    assert pair_order(f, ("1", "4"), ("2", "3")) == 8
    # past the scan bound the order is unknown, reported as None; the
    # promotion to an infinite type entry needs an admissibility
    # certificate and happens in partition_type instead
    inf_g = named_graph("I2(inf)")
    assert pair_order(inf_g, ("1",), ("2",), bound=50) is None


def test_pair_order_and_check_pair_refuse_bad_blocks():
    # one block check serves both: vertices first, before any sorting, then
    # disjoint nonempty blocks, then spherical ones; at the parent of this
    # check pair_order(A3, ["1"], ["1"]) gave 1, and a vertex that is not a
    # str raised a TypeError from sorting
    g = named_graph("A3")
    h = parse_graph("edge 1 2 inf\nedge 2 3 3")
    for call in (pair_order, check_pair):
        for a, b in ((["1"], ["1"]), (["1", "2"], ["2", "3"]), ([], ["1"]), (["1"], [])):
            with pytest.raises(ValueError, match="blocks must be disjoint and nonempty"):
                call(g, a, b)
        for a, b, bad in ((["1"], [2], "2"), (["9"], ["1"], "'9'"), (["1"], ["1", 2], "2")):
            with pytest.raises(ValueError, match=f"{bad} is not a vertex"):
                call(g, a, b)
        with pytest.raises(ValueError, match=r"block \('1', '2'\) does not span a spherical"):
            call(h, ["1", "2"], ["3"])
    # repeated vertices within a block are one vertex
    assert pair_order(g, ["1", "1", "3"], ["2"]) == 4


def test_check_pair_admissible_with_finite_certificate():
    g = named_graph("A3")
    v = check_pair(g, ("1", "3"), ("2",))
    assert v.outcome == "admissible"
    assert isinstance(v.certificate, ExhaustiveFiniteCertificate)
    assert v.certificate.order == 4


def test_check_pair_commuting_blocks():
    g = parse_graph("vertex 1\nvertex 2")
    v = check_pair(g, ("1",), ("2",))
    assert v.is_admissible
    assert pair_order(g, ("1",), ("2",)) == 2


def test_check_pair_not_admissible_with_replayable_witness():
    # {1} against {2,3} in A3: vertex 3 commutes with the other block while
    # vertex 2 does not, which breaks compatibility at the third product
    g = named_graph("A3")
    v = check_pair(g, ("1",), ("2", "3"))
    assert v.outcome == "not_admissible"
    assert isinstance(v.witness, IncompatibleWord)
    assert replay_witness(g, v.witness)


def test_partition_calls_check_no_pair_again(monkeypatch):
    # a partition's blocks are checked once, at check_admissible and
    # partition_type; their pairs run the ladder with no second block check
    def no_check(*args):
        raise AssertionError("a pair of checked blocks was checked again")

    monkeypatch.setattr(partitions, "_check_blocks", no_check)
    a3, at3 = named_graph("A3"), named_graph("Atilde3")
    g2 = parse_graph("edge 1 2 3\nedge 2 3 6")  # G~2: 1,2 / 3 is refused
    cases = [(bipartite_partition(a3), "admissible", 4),
             (parse_partition(at3, "1,3/2,4"), "admissible", INFINITY),
             (parse_partition(g2, "1,2/3"), "not_admissible", 6)]
    for p, outcome, order in cases:
        assert check_admissible(p).outcome == outcome
        assert partition_type(p).orders[0][1] == order
    assert [o for _, o in classify_2partitions(a3).admissible] == [4]


def test_partition_arguments_are_refused_by_name():
    # at the parent of this check each call raised AttributeError
    p = bipartite_partition(named_graph("A3"))
    inner = block_partition(partition_type(p).graph(), [["1"], ["2"]])
    for call, name in ((lambda: check_admissible("x"), "p"),
                       (lambda: partition_type("x", 4), "p"),
                       (lambda: certify_by_lift("x", "y"), "outer"),
                       (lambda: certify_by_lift(p, "y"), "inner"),
                       (lambda: lift_partition("x", "y"), "outer"),
                       (lambda: lift_partition(p, ("1",)), "inner")):
        with pytest.raises(TypeError, match=f"^{name} must be a BlockPartition"):
            call()
    assert lift_partition(p, inner).blocks == p.blocks


def test_verdict_invariants_hold_without_assert():
    # an unknown outcome and a refusal without a witness are rejected on
    # construction, also under python -O
    with pytest.raises(ValueError):
        AdmissibilityVerdict("maybe", 8)
    with pytest.raises(ValueError):
        AdmissibilityVerdict("not_admissible", 8, reason="no witness")
    witness = IncompatibleWord(("1",), ("2", "3"), 3, "alpha")
    v = AdmissibilityVerdict("not_admissible", 8, witness=witness)
    assert v.witness == witness and not v.is_admissible
    assert AdmissibilityVerdict("unknown", 8).outcome == "unknown"


def test_classification_recheck_raises_without_assert(monkeypatch):
    # every pair over a spherical graph is decided; an undecided one is an
    # internal error, also under python -O
    import coxmon.partitions as partitions

    monkeypatch.setattr(partitions, "_decide_pair",
                        lambda g, a, b, bound: AdmissibilityVerdict("unknown", bound))
    with pytest.raises(RuntimeError, match="unknown"):
        classify_2partitions(named_graph("A6"))


def test_check_pair_unknown_when_nothing_settles():
    # a path with labels 3 and inf: the alternating products stay reduced
    # (so no witness), the pair order is infinite (so no finite scan), and
    # the graph has no symmetry (so no orbit certificate)
    g = parse_graph("edge 1 2 3\nedge 2 3 inf")
    v = check_pair(g, ("1", "3"), ("2",), bound=12)
    assert v.outcome == "unknown"
    assert v.bound == 12
    assert not v.is_admissible


def test_orbit_certificate_on_affine_square():
    # {1,2} and {3,4} on the 4-cycle: swapping 1 with 2 and 3 with 4 is a
    # graph symmetry whose orbits are exactly the blocks
    g = named_graph("Atilde3")
    p = block_partition(g, [["1", "2"], ["3", "4"]])
    v = check_admissible(p)
    assert v.outcome == "admissible"
    assert isinstance(v.certificate, OrbitCertificate)
    # opposite pairs: same story through the rotation
    q = block_partition(g, [["1", "3"], ["2", "4"]])
    w = check_admissible(q)
    assert w.is_admissible


def test_orbit_partition():
    g = named_graph("D4")
    p = orbit_partition(g)
    assert blocks_text(p) == "1,3,4/2"
    e6 = named_graph("E6")
    q = orbit_partition(e6)  # the diagram flip has three fixed vertices
    assert blocks_text(q) == "1,6/2/3,5/4"


def test_orbit_partition_checks_each_map():
    g = named_graph("A3")
    with pytest.raises(ValueError, match="automorphism must be a vertex bijection"):
        orbit_partition(g, [{"1": "3", "3": "1", "2": "2"}, {"1": "1", "2": "2"}])
    with pytest.raises(ValueError, match="automorphism must be a vertex bijection"):
        orbit_partition(g, [{"1": "2", "2": "2", "3": "3"}])
    with pytest.raises(ValueError, match="map does not preserve labels"):
        orbit_partition(g, [{"1": "2", "2": "1", "3": "3"}])


def ref_orbit_partition(g, generators):
    """The route orbit_partition used to take: close the generators under
    composition into the whole group, then read the orbit of v as {a[v]}.
    None when no orbit is spherical."""
    ident = {v: v for v in g.vertices}
    group = {tuple(sorted(ident.items())): ident}
    frontier = [ident]
    while frontier:
        new = []
        for cur in frontier:
            for a in generators:
                nxt = {v: a[cur[v]] for v in cur}
                key = tuple(sorted(nxt.items()))
                if key not in group:
                    group[key] = nxt
                    new.append(nxt)
        frontier = new
    orbits = sorted({tuple(sorted({a[v] for a in group.values()})) for v in g.vertices})
    spherical = [o for o in orbits if is_spherical(g.restrict(o))]
    return block_partition(g, spherical) if spherical else None


def test_orbits_by_generators_agree_with_the_generated_group():
    # seeded graphs of rank <= 5, with labels drawn so that symmetry is
    # common, and random sets of their automorphisms as generators
    rng = random.Random(5)
    compared = first_map_finer = 0
    for _ in range(80):
        verts = [str(k) for k in range(1, rng.randint(2, 5) + 1)]
        g = CoxeterGraph.from_edges(verts, [
            (a, b, m) for a, b in itertools.combinations(verts, 2)
            if (m := rng.choice((2, 2, 3, 3, 4, INFINITY))) != 2])
        auts = automorphisms(g)
        for _ in range(3):
            gens = rng.sample(auts, rng.randint(0, min(3, len(auts))))
            want = ref_orbit_partition(g, gens)
            if want is None:
                with pytest.raises(ValueError, match="no spherical orbits"):
                    orbit_partition(g, gens)
            else:
                assert orbit_partition(g, gens) == want, (g, gens)
            compared += 1
            first_map_finer += ref_orbit_partition(g, gens[:1]) != want
    assert compared == 240
    # generators beyond the first matter in enough cases to be tested
    assert first_map_finer >= 10


def test_orbits_of_a_star_from_a_cycle_and_a_transposition():
    # the leaves generate the symmetric group S12 (12! maps), whose orbits
    # are read off the two maps without building it
    leaves = "abdefghijklm"
    g = parse_graph("\n".join(f"edge c {leaf} 3" for leaf in leaves))
    cycle = {"c": "c", **{u: v for u, v in zip(leaves, leaves[1:] + leaves[0])}}
    swap = {**{v: v for v in g.vertices}, "a": "b", "b": "a"}
    p = orbit_partition(g, [cycle, swap])
    assert p.blocks == (tuple(leaves), ("c",))


def test_partition_type_entries():
    g = named_graph("A3")
    t = partition_type(bipartite_partition(g))
    assert t.is_resolved
    assert t.entry("1", "2") == 4
    tg = t.graph()
    assert tg.vertices == ("1", "2")
    assert tg.m("1", "2") == 4

    # infinite entries carry the infinity label into the type graph
    sq = named_graph("Atilde3")
    p = block_partition(sq, [["1", "3"], ["2", "4"]])
    t2 = partition_type(p, assume_admissible=True)
    assert math.isinf(t2.entry("1", "2"))
    assert "inf" in str(t2.to_json())


def test_assume_admissible_takes_the_callers_word_over_an_infinite_carrier():
    # G~2 with blocks 1,2 / 3: check_pair refuses the pair at rung (ii) and
    # r_a r_b has order 6, but under assume_admissible the caller's word
    # decides, as for every pair over an infinite carrier: infinite
    g = parse_graph("edge 1 2 3\nedge 2 3 6")
    p = block_partition(g, [["1", "2"], ["3"]])
    v = check_pair(g, ["1", "2"], ["3"])
    assert v.outcome == "not_admissible" and replay_witness(g, v.witness)
    assert pair_order(g, ["1", "2"], ["3"], 64) == 6
    assert partition_type(p, 64).entry("1", "3") == 6
    assert math.isinf(partition_type(p, 64, assume_admissible=True).entry("1", "3"))


def test_assume_admissible_searches_no_order_over_an_infinite_carrier(monkeypatch):
    # rung (iv) is empty, so an admissible pair over an infinite carrier
    # has infinite order: the caller's word needs no power scan behind it
    def no_search(*args):
        raise AssertionError("an order was searched behind an infinite entry")

    monkeypatch.setattr(partitions, "_pair_order", no_search)
    p = block_partition(named_graph("Atilde3"), [["1", "3"], ["2", "4"]])
    assert math.isinf(partition_type(p, assume_admissible=True).entry("1", "2"))


def test_partition_type_unresolved_within_bound():
    # over a spherical carrier the order is computed exactly, so even a
    # tiny bound resolves it
    g = named_graph("I2(13)")
    p = block_partition(g, [["1"], ["2"]])
    assert partition_type(p, bound=2).entry("1", "2") == 13

    # over a non-spherical carrier with no certificate the entry stays
    # open and is reported against the bound
    h = parse_graph("edge 1 2 3\nedge 2 3 inf")
    q = block_partition(h, [["1", "3"], ["2"]])
    t = partition_type(q, bound=12)
    assert not t.is_resolved
    assert ">" in str(t.to_json())


def test_partition_type_refuses_a_non_spherical_block():
    # a single block meets no pair check, so the type itself refuses it,
    # with and without the caller's word, as check_admissible does
    g = named_graph("Atilde3")
    p = block_partition(g, [["1", "2", "3", "4"]])
    for assume in (False, True):
        with pytest.raises(ValueError, match="every block must span a spherical subgraph"):
            partition_type(p, assume_admissible=assume)
    with pytest.raises(ValueError, match="every block must span a spherical subgraph"):
        check_admissible(p)


def test_lift_partition():
    g = named_graph("A4")
    outer = bipartite_partition(g)  # {1,3}/{2,4} named 1/2
    inner = block_partition(partition_type(outer).graph(), [["1", "2"]])
    lifted = lift_partition(outer, inner)
    assert lifted.graph == g
    assert blocks_text(lifted) == "1,2,3,4"
    assert lifted.names == inner.names


# frozen two-block classifications of small irreducible spherical graphs;
# independently derived: admissible pairs were re-checked through the
# definitional order scan and the eliminations replay their stage reasons
CLASSIFICATIONS = {
    # name: (admissible {blocks: order}, eliminated stage counts, total)
    "A4": ({"1,3/2,4": 5, "1,4/2,3": 4}, {"isolated": 3}, 5),
    "A6": ({"1,3,5/2,4,6": 7, "1,3,4,6/2,5": 6},
           {"isolated": 15, "length": 1, "direct": 1}, 19),
    "B3": ({"1,3/2": 6}, {"isolated": 2}, 3),
    "B4": ({"1,3/2,4": 8}, {"isolated": 5, "length": 1}, 7),
    "D4": ({"1,3,4/2": 6}, {"isolated": 2}, 3),
    "D5": ({"1,3/2,4,5": 8}, {"isolated": 9, "length": 1}, 11),
    "F4": ({"1,3/2,4": 12, "1,4/2,3": 8}, {"isolated": 3}, 5),
    "H3": ({"1,3/2": 10}, {"isolated": 2}, 3),
    "E6": ({"1,4,6/2,3,5": 12, "1,2,6/3,4,5": 8},
           {"isolated": 16, "length": 1}, 19),
}


def test_classify_small_graphs():
    for name, (want_adm, want_stages, total) in CLASSIFICATIONS.items():
        g = named_graph(name)
        rep = classify_2partitions(g)
        got = {blocks_text(p): o for p, o in rep.admissible}
        assert got == want_adm, name
        stages = {}
        for _, s, _ in rep.eliminated:
            stages[s] = stages.get(s, 0) + 1
        assert stages == want_stages, name
        assert len(rep.admissible) + len(rep.eliminated) == total, name
        # the bipartite partition is always among the admissible ones, with
        # the Coxeter number as its order
        assert got[blocks_text(bipartite_partition(g))] == coxeter_number(g)


def test_classification_eliminations_detail():
    rep = classify_2partitions(named_graph("A6"))
    (direct,) = rep.eliminated_by("direct")
    assert blocks_text(direct[0]) == "1,3,6/2,4,5"
    assert "n=6" in direct[2]
    (length,) = rep.eliminated_by("length")
    assert blocks_text(length[0]) == "1,4,5/2,3,6"


def test_classification_json():
    rep = classify_2partitions(named_graph("A4"))
    data = rep.to_json()
    assert len(data["admissible"]) == 2
    assert {e["stage"] for e in data["eliminated"]} == {"isolated"}


def _leaf_star(m=3):
    """A star with five leaves, all labels m, one leaf marked x."""
    edges = [("c", leaf, m) for leaf in ("a", "b", "d", "e", "x")]
    return parse_graph(
        "\n".join(f"edge {i} {j} {lab}" for i, j, lab in edges)
    )


def test_two_step_partition_certified_through_its_lift():
    # outer: the symmetry orbits after marking the leaf x; its type is a
    # path 1 -(inf)- 2 -(3)- 3.  The inner two-block partition of that
    # type cannot be settled directly, but its lift back to the star can.
    g = _leaf_star(3)
    outer = block_partition(
        g, [["a", "b", "d", "e"], ["c"], ["x"]], names=["1", "2", "3"]
    )
    ov = check_admissible(outer)
    assert ov.is_admissible
    assert isinstance(ov.certificate, OrbitCertificate)

    t = partition_type(outer, assume_admissible=True)
    tg = t.graph()
    assert math.isinf(tg.m("1", "2"))
    assert tg.m("2", "3") == 3
    assert tg.m("1", "3") == 2

    inner = block_partition(tg, [["1", "3"], ["2"]])
    direct = check_admissible(inner, bound=16)
    assert direct.outcome == "unknown"

    v = certify_by_lift(outer, inner, bound=16)
    assert v.outcome == "admissible"
    assert isinstance(v.certificate, LiftCertificate)

    lifted = lift_partition(outer, inner)
    assert sorted(map(sorted, lifted.blocks)) == [
        ["a", "b", "d", "e", "x"], ["c"]
    ]
    t2 = partition_type(inner, assume_admissible=True)
    assert math.isinf(t2.entry("1", "2"))  # the composite type is I2(inf)


def test_certify_by_lift_requires_inner_over_the_outer_type():
    # outer: the singletons of A3, whose type is A3 on the names 1, 2, 3;
    # inner: a partition over A2 x A1 on the same names, which is refused
    # directly, so its lift through outer must not certify it
    a3 = named_graph("A3")
    outer = block_partition(a3, [["1"], ["2"], ["3"]])
    inner = parse_partition(parse_graph("edge 1 2 3\nvertex 3"), "1,3/2")
    direct = check_admissible(inner)
    assert direct.outcome == "not_admissible"
    assert replay_witness(inner.graph, direct.witness)
    with pytest.raises(ValueError, match="type graph of the outer"):
        certify_by_lift(outer, inner)
    # over the type graph itself the lift decides as before
    over_type = parse_partition(partition_type(outer).graph(), "1,3/2")
    assert certify_by_lift(outer, over_type).is_admissible


def test_certify_by_lift_requires_admissible_outer():
    g = named_graph("A3")
    outer = block_partition(g, [["1"], ["2", "3"]])  # not admissible
    inner = block_partition(named_graph("I2(3)"), [["1", "2"]])
    with pytest.raises(ValueError):
        certify_by_lift(outer, inner)


def test_product_split():
    g = parse_graph("edge 1 2 3\nedge 2 3 3\nedge 4 5 3\nedge 5 6 3")
    rep = product_split_check(
        g,
        [("1", "2", "3"), ("4", "5", "6")],
        [[["1", "3"], ["2"]], [["4", "6"], ["5"]]],
    )
    assert rep.consistent
    assert rep.factor_orders == (4, 4)
    assert rep.global_order == 4
    assert rep.global_pair == (("1", "3", "4", "6"), ("2", "5"))


@pytest.mark.parametrize("bound, error", [
    (-5, ValueError), (0, ValueError), ("x", TypeError), (2.5, TypeError),
    (True, TypeError), (None, TypeError)])
def test_nonsense_bounds_are_refused_at_every_public_call(bound, error):
    # m(1,2) = 4, m(2,3) = 3, m(1,3) = inf: at the parent of this check,
    # -5 and 0 gave "unknown", "compatible up to -5 factors"; "x" and 2.5
    # raised a TypeError from inside the scan that did not name the bound
    g = parse_graph("edge 1 2 4\nedge 2 3 3\nedge 1 3 inf")
    p = block_partition(g, [["1"], ["2", "3"]])
    a3 = named_graph("A3")
    outer = block_partition(a3, [["1"], ["2"], ["3"]])
    inner = parse_partition(partition_type(outer).graph(), "1,3/2")
    split = parse_graph("edge 1 2 3\nedge 2 3 3\nedge 4 5 3\nedge 5 6 3")
    calls = [
        lambda: check_pair(g, ["1"], ["2", "3"], bound),
        lambda: check_admissible(p, bound),
        lambda: partition_type(p, bound),
        lambda: pair_order(g, ["1"], ["2", "3"], bound),
        lambda: certify_by_lift(outer, inner, bound),
        lambda: product_split_check(split, [("1", "2", "3"), ("4", "5", "6")],
                                    [[["1", "3"], ["2"]], [["4", "6"], ["5"]]], bound),
        lambda: classify_2partitions(a3, bound),
    ]
    for call in calls:
        with pytest.raises(error, match="bound"):
            call()
    # the least bound the CLI takes is a bound here too
    assert check_pair(g, ["1"], ["2", "3"], 1).outcome == "unknown"
