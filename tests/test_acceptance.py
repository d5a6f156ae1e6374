"""End-to-end acceptance checks at fixed sizes, each with a wall-clock
limit and a single PASS/FAIL line in the terminal summary (see conftest).

The frozen tables below were computed once and are re-verified here
through independent routes — element orders through the group backends,
classification content against the bipartite/Coxeter-number arithmetic
and replayable witnesses, monoid operations against the word-rewriting
closure model in oracles.py — so a regression on either route breaks the
comparison rather than silently shifting both."""

import contextlib
import math
import random
import time

from conftest import ACCEPTANCE_LINES
from oracles import (
    canon,
    elements_up_to,
    oracle_divides,
    oracle_gcd,
    oracle_nf,
    is_simple_word,
    tits_oracle,
    verify_lcm,
)

from coxmon import (
    OrbitCertificate,
    bipartite_partition,
    block_partition,
    braid_from_word,
    build_morphism,
    burst,
    canonical_word,
    certify_by_lift,
    check_admissible,
    check_pair,
    classify_2partitions,
    coxeter_number,
    descents,
    divides,
    element_from_word,
    fixed_submonoid_check,
    gcd,
    identity_element,
    is_isomorphic,
    is_lcm_partition,
    lcm,
    length,
    lift_partition,
    longest_element,
    named_graph,
    multiply,
    orbit_partition,
    order_of,
    pair_order,
    parse_graph,
    parse_partition,
    partition_type,
    positive_root_count,
    replay_witness,
    verify_burst,
    verify_respects_lcm,
    verify_respects_normal_forms,
)


@contextlib.contextmanager
def criterion(number, limit_s, desc):
    t0 = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        dt = time.monotonic() - t0
        status = "FAIL" if failed or dt >= limit_s else "PASS"
        line = (f"criterion {number}: {status} - {desc}"
                f" ({dt:.1f}s, limit {limit_s:.0f}s)")
        print(line)
        ACCEPTANCE_LINES.append(line)
    assert dt < limit_s, f"criterion {number} took {dt:.1f}s (limit {limit_s}s)"


# every irreducible spherical graph of rank 2..8 (dihedrals up to I2(12))
RANK_LE_8 = (
    ["A%d" % n for n in range(2, 9)]
    + ["B%d" % n for n in range(2, 9)]
    + ["D%d" % n for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
)
DIHEDRALS = ["I2(%d)" % m for m in range(3, 13)]


def test_criterion_1_longest_element_lengths():
    with criterion(1, 5.0, "longest elements of E6/E7/E8 have"
                           " lengths 36/63/120"):
        for name, want in (("E6", 36), ("E7", 63), ("E8", 120)):
            g = named_graph(name)
            w0 = longest_element(g)
            assert length(w0) == want == positive_root_count(g)
            assert w0 * w0 == identity_element(g)
            assert descents(w0, "left") == frozenset(g.vertices)


def test_criterion_2_bipartite_partitions_are_admissible():
    # the two-block colour partition is admissible on every irreducible
    # spherical graph, with product order the Coxeter number; the order is
    # recomputed on the actual group element as a second route
    with criterion(2, 30.0, "bipartite partitions admissible with product"
                            " order = Coxeter number on all 35 graphs"):
        for name in RANK_LE_8 + DIHEDRALS:
            g = named_graph(name)
            p = bipartite_partition(g)
            verdict = check_admissible(p)
            assert verdict.is_admissible, (name, verdict.reason)
            a, b = p.blocks
            h = coxeter_number(g)
            assert pair_order(g, a, b) == h, name
            w = longest_element(g, a) * longest_element(g, b)
            assert order_of(w) == h, name


# admissible 2-partitions (blocks "a,b/c,d" -> product order) and the
# elimination-stage tallies for every irreducible spherical graph of rank
# 2..8.  The pattern: the bipartite partition of order h everywhere, plus
# one extra of order n on A_n for even n, one of order 8 on E6, one of
# order 8 on F4.
EXPECTED_CLASSIFICATION = {
    "A2": ({"1/2": 3}, {}),
    "A3": ({"1,3/2": 4}, {"isolated": 1}),
    "A4": ({"1,3/2,4": 5, "1,4/2,3": 4}, {"isolated": 3}),
    "A5": ({"1,3,5/2,4": 6}, {"isolated": 7, "length": 1}),
    "A6": ({"1,3,5/2,4,6": 7, "1,3,4,6/2,5": 6},
           {"isolated": 15, "length": 1, "direct": 1}),
    "A7": ({"1,3,5,7/2,4,6": 8}, {"isolated": 30, "length": 4}),
    "A8": ({"1,3,5,7/2,4,6,8": 9, "1,3,6,8/2,4,5,7": 8},
           {"isolated": 62, "length": 5, "direct": 2}),
    "B2": ({"1/2": 4}, {}),
    "B3": ({"1,3/2": 6}, {"isolated": 2}),
    "B4": ({"1,3/2,4": 8}, {"isolated": 5, "length": 1}),
    "B5": ({"1,3,5/2,4": 10}, {"isolated": 12, "length": 2}),
    "B6": ({"1,3,5/2,4,6": 12}, {"isolated": 26, "length": 3, "direct": 1}),
    "B7": ({"1,3,5,7/2,4,6": 14}, {"isolated": 55, "length": 7}),
    "B8": ({"1,3,5,7/2,4,6,8": 16}, {"isolated": 114, "length": 12}),
    "D4": ({"1,3,4/2": 6}, {"isolated": 2}),
    "D5": ({"1,3/2,4,5": 8}, {"isolated": 9, "length": 1}),
    "D6": ({"1,3,5,6/2,4": 10}, {"isolated": 20, "length": 2}),
    "D7": ({"1,3,5/2,4,6,7": 12}, {"isolated": 42, "length": 4}),
    "D8": ({"1,3,5,7,8/2,4,6": 14}, {"isolated": 87, "length": 7}),
    "E6": ({"1,4,6/2,3,5": 12, "1,2,6/3,4,5": 8},
           {"isolated": 16, "length": 1}),
    "E7": ({"1,4,6/2,3,5,7": 18}, {"isolated": 57, "length": 4, "direct": 1}),
    "E8": ({"1,4,6,8/2,3,5,7": 30},
           {"isolated": 117, "length": 5, "direct": 4}),
    "F4": ({"1,3/2,4": 12, "1,4/2,3": 8}, {"isolated": 3}),
    "H3": ({"1,3/2": 10}, {"isolated": 2}),
    "H4": ({"1,3/2,4": 30}, {"isolated": 5, "direct": 1}),
}

# the direct refusals on the big exceptional graphs, with the length of
# the alternating witness word; every one is replayed below
DIRECT_REFUSALS = {
    "E7": {("1,2,5,6/3,4,7", 5)},
    "E8": {("1,2,5,6,8/3,4,7", 6), ("1,2,5,8/3,4,6,7", 6),
           ("1,2,6,7/3,4,5,8", 5), ("1,4,5,8/2,3,6,7", 6)},
    "H4": {("1,4/2,3", 6)},
}


def _blocks_key(p):
    return "/".join(",".join(b) for b in p.blocks)


def test_criterion_3_classification_of_2partitions():
    with criterion(3, 600.0, "admissible 2-partitions of all 25 irreducible"
                             " spherical graphs of rank 2..8 match the"
                             " frozen classification"):
        for name, (want_adm, want_stages) in EXPECTED_CLASSIFICATION.items():
            g = named_graph(name)
            rep = classify_2partitions(g)
            got = {_blocks_key(p): o for p, o in rep.admissible}
            assert got == want_adm, (name, got)
            stages = {}
            for _, stage, _ in rep.eliminated:
                stages[stage] = stages.get(stage, 0) + 1
            assert stages == want_stages, (name, stages)

            # second route on the content: the bipartite entry carries the
            # Coxeter number, and every recorded order is the order of the
            # actual product of the block longest elements
            assert want_adm[_blocks_key(bipartite_partition(g))] == \
                coxeter_number(g)
            for p, o in rep.admissible:
                a, b = p.blocks
                w = longest_element(g, a) * longest_element(g, b)
                assert order_of(w) == o, (name, _blocks_key(p))

            # every direct refusal is backed by a replayable witness
            for p, stage, _ in rep.eliminated:
                if stage != "direct":
                    continue
                a, b = p.blocks
                v = check_pair(g, a, b)
                assert v.outcome == "not_admissible"
                assert replay_witness(g, v.witness)
                if name in DIRECT_REFUSALS:
                    assert (_blocks_key(p), v.witness.n) in \
                        DIRECT_REFUSALS[name]

        # the non-isolated candidates on E6/E7/E8 number fifteen in all
        beyond = sum(
            c for name in ("E6", "E7", "E8")
            for s, c in EXPECTED_CLASSIFICATION[name][1].items()
            if s != "isolated"
        )
        assert beyond == 15


BURST_CORPUS = (
    ("A2", 1), ("B2", 3), ("B3", 3), ("F4", 3),
    ("H3", 2), ("H4", 2), ("I2(inf)", 2),
)


def test_criterion_4_bursts():
    with criterion(4, 60.0, "bursts land on D6/E8/Atilde3 as expected and"
                            " all verify admissible of the original type"):
        assert is_isomorphic(burst(named_graph("H3"), 2).graph,
                             named_graph("D6"))
        assert is_isomorphic(burst(named_graph("H4"), 2).graph,
                             named_graph("E8"))
        for name, copies in BURST_CORPUS:
            b = burst(named_graph(name), copies)
            rep = verify_burst(b)
            assert rep.ok, name
            assert rep.verdict.is_admissible and rep.type_matches, name

        # the one infinite label in the corpus: the burst is the affine
        # square, certified by symmetry, with the right crossing structure
        b = burst(named_graph("I2(inf)"), 2)
        assert is_isomorphic(b.graph, named_graph("Atilde3"))
        rep = verify_burst(b)
        assert isinstance(rep.verdict.certificate, OrbitCertificate)
        assert rep.infinite_pair_structure
        assert all(ok for _, ok, _ in rep.infinite_pair_structure)


def test_criterion_5_admissible_but_not_lcm():
    with criterion(5, 60.0, "three admissible partitions that are not"
                            " LCM-partitions (affine square pair, burst of"
                            " an infinite edge, two-step lift)"):
        # opposite pairs of the affine square
        g = named_graph("Atilde3")
        p = block_partition(g, [["1", "3"], ["2", "4"]])
        assert check_admissible(p).is_admissible
        rep = is_lcm_partition(p)
        assert not rep.ok
        assert any("spherical" in detail
                   for _, ok, detail in rep.checks if not ok)

        # the fiber partition of the burst of a single infinite edge is the
        # same obstruction in burst clothing
        b = burst(named_graph("I2(inf)"), 2)
        assert check_admissible(b.partition).is_admissible
        assert not is_lcm_partition(b.partition).ok

        # a two-step partition: outer symmetry orbits of a five-leaf star,
        # inner two-block partition of the resulting type, settled only
        # through its lift; the composite has type I2(inf) and is not LCM
        star = parse_graph("\n".join(
            f"edge c {leaf} 3" for leaf in ("a", "b", "d", "e", "x")
        ))
        outer = block_partition(
            star, [["a", "b", "d", "e"], ["c"], ["x"]], names=["1", "2", "3"]
        )
        assert check_admissible(outer).is_admissible
        t = partition_type(outer, assume_admissible=True).graph()
        inner = block_partition(t, [["1", "3"], ["2"]])
        assert check_admissible(inner, bound=16).outcome == "unknown"
        v = certify_by_lift(outer, inner, bound=16)
        assert v.is_admissible
        t2 = partition_type(inner, assume_admissible=True)
        assert math.isinf(t2.entry("1", "2"))
        lifted = lift_partition(outer, inner)
        assert not is_lcm_partition(lifted).ok


def test_criterion_6_fixed_submonoids():
    with criterion(6, 120.0, "fixed submonoids of the A3 flip (<=8) and the"
                             " D4 leaf rotation (<=6) match the generated"
                             " submonoids element for element"):
        rep = fixed_submonoid_check(
            named_graph("A3"), [{"1": "3", "3": "1", "2": "2"}], 8
        )
        assert rep.ok and rep.sets_match
        assert rep.fixed_counts == (1, 1, 2, 3, 5, 8, 12, 19, 29)
        assert rep.generated_counts == rep.fixed_counts
        assert rep.ptype.graph().m("1", "2") == 4

        rep = fixed_submonoid_check(
            named_graph("D4"), [{"1": "3", "3": "4", "4": "1", "2": "2"}], 6
        )
        assert rep.ok and rep.sets_match
        assert rep.fixed_counts == (1, 1, 1, 2, 3, 4, 6)
        assert rep.ptype.graph().m("1", "2") == 6


def test_criterion_7_morphisms_respect_the_operations():
    with criterion(7, 300.0, "injective morphisms (H3->D6, H4->E8, the E6"
                             " flip, and every classified partition)"
                             " respect lcm/gcd/normal forms: zero"
                             " violations, zero skipped pairs"):
        jobs = []
        for name, copies, target in (("H3", 2, "D6"), ("H4", 2, "E8")):
            b = burst(named_graph(name), copies)
            assert is_isomorphic(b.graph, named_graph(target))
            jobs.append((f"{name} into {target}",
                         build_morphism(b.graph, b.partition)))
        e6 = named_graph("E6")
        flip = build_morphism(e6, orbit_partition(e6))
        assert is_isomorphic(flip.source, named_graph("F4"))
        jobs.append(("E6 flip", flip))
        for name, (adm, _) in EXPECTED_CLASSIFICATION.items():
            g = named_graph(name)
            for key in adm:
                jobs.append((f"{name} {key}",
                             build_morphism(g, parse_partition(g, key))))

        for label, m in jobs:
            r = verify_respects_lcm(m, pairs=200, max_len=6, seed=0)
            assert r.ok, (label, r.failures())
            assert not r.skipped, (label, r.skipped)
            r = verify_respects_normal_forms(m, samples=100, max_len=6, seed=0)
            assert r.ok, (label, r.failures())


def _nf_words(x):
    return tuple(canonical_word(f) for f in x.factors)


def _pair_against_model(g, u, v):
    u, v = tuple(u), tuple(v)
    x, y = braid_from_word(g, u), braid_from_word(g, v)
    assert multiply(x, y) == braid_from_word(g, u + v)
    assert divides(x, y, "left") == oracle_divides(g, u, v, "left")
    assert divides(x, y, "right") == oracle_divides(g, u, v, "right")
    assert canon(g, gcd(x, y, "left").word()) == oracle_gcd(g, u, v, "left")
    z = lcm(x, y)
    assert verify_lcm(g, u, v, None if z is None else z.word())


def _enumerate_group(g, backend):
    e = identity_element(g, backend)
    seen = {e}
    frontier = [e]
    while frontier:
        new = []
        for w in frontier:
            for vtx in g.vertices:
                x = w.gen_right(vtx)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return seen


def test_criterion_8_model_and_backend_agreement():
    with criterion(8, 300.0, "monoid ops match the word-rewriting model"
                             " (exhaustive + sampled), the two group"
                             " backends agree on W(A3)/W(B3), and 500 word"
                             " pairs match the rewriting equality test"):
        small = [named_graph(n) for n in ("A2", "B2", "I2(inf)", "A3")]

        # normal forms, exhaustively over all elements of length <= 6
        for g in small:
            for w in elements_up_to(g, 6):
                x = braid_from_word(g, w)
                got = _nf_words(x)
                assert tuple(canon(g, f) for f in got) == oracle_nf(g, w)
                for f in got:
                    assert is_simple_word(g, f)

        # pair operations, exhaustively over all elements of length <= 4
        for g in small:
            els = elements_up_to(g, 4)
            for u in els:
                for v in els:
                    _pair_against_model(g, u, v)

        # and on 100 random word pairs of length <= 6 per graph
        rng = random.Random(0)
        for g in small:
            for _ in range(100):
                u = [rng.choice(g.vertices)
                     for _ in range(rng.randint(0, 6))]
                v = [rng.choice(g.vertices)
                     for _ in range(rng.randint(0, 6))]
                _pair_against_model(g, u, v)

        # the permutation and matrix backends build the same groups
        for name, order in (("A3", 24), ("B3", 48)):
            g = named_graph(name)
            perm = {canonical_word(w): w for w in _enumerate_group(g, "perm")}
            mat = {canonical_word(w): w for w in _enumerate_group(g, "matrix")}
            assert len(perm) == len(mat) == order
            assert perm.keys() == mat.keys()
            for word in perm:
                p, m = perm[word], mat[word]
                assert length(p) == length(m) == len(word)
                assert order_of(p) == order_of(m)
                assert descents(p, "left") == descents(m, "left")
                assert descents(p, "right") == descents(m, "right")

        # group-element equality of raw words: pure rewriting versus the
        # backend, on 250 pairs built to be equal (a doubled letter is
        # invisible in the group) and 250 unconstrained pairs
        g = named_graph("B3")
        rng = random.Random(1)
        pairs = []
        for _ in range(250):
            u = tuple(rng.choice(g.vertices) for _ in range(rng.randint(0, 8)))
            k = rng.randint(0, len(u))
            s = rng.choice(g.vertices)
            pairs.append((u, u[:k] + (s, s) + u[k:]))
        for _ in range(250):
            pairs.append(tuple(
                tuple(rng.choice(g.vertices)
                      for _ in range(rng.randint(0, 8)))
                for _ in range(2)
            ))
        same = 0
        for u, v in pairs:
            backend_eq = element_from_word(g, u) == element_from_word(g, v)
            assert tits_oracle(g, u, v) == backend_eq
            same += backend_eq
        assert same >= 250  # the constructed half really is equal
