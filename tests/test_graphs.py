import math

import pytest
from hypothesis import given, strategies as st

from coxmon import (
    INFINITY,
    CoxeterGraph,
    automorphisms,
    bipartite_classes,
    classify_spherical,
    coxeter_number,
    graph_from_json,
    is_infinite,
    is_isomorphic,
    is_spherical,
    isomorphisms,
    named_graph,
    parse_graph,
    positive_root_count,
)
from coxmon.graphs import (
    SphericalType,
    _leg_length,
    is_direct_product,
    label_from_text,
    label_to_text,
)

# rank, Coxeter number, and number of positive roots (= rank * h / 2) for
# the irreducible spherical types, from the standard closed forms
SPHERICAL_DATA = {
    "A1": (1, 2, 1),
    "A2": (2, 3, 3),
    "A5": (5, 6, 15),
    "A8": (8, 9, 36),
    "B2": (2, 4, 4),
    "B3": (3, 6, 9),
    "B5": (5, 10, 25),
    "D4": (4, 6, 12),
    "D6": (6, 10, 30),
    "E6": (6, 12, 36),
    "E7": (7, 18, 63),
    "E8": (8, 30, 120),
    "F4": (4, 12, 24),
    "H3": (3, 10, 15),
    "H4": (4, 30, 60),
    "I2(5)": (2, 5, 5),
    "I2(7)": (2, 7, 7),
    "I2(12)": (2, 12, 12),
}


def test_construction_and_labels():
    g = CoxeterGraph.from_edges("abc", [("a", "b", 3), ("b", "c", INFINITY)])
    assert g.vertices == ("a", "b", "c")
    assert g.m("a", "a") == 1
    assert g.m("a", "b") == g.m("b", "a") == 3
    assert g.m("a", "c") == 2  # non-edges commute
    assert is_infinite(g.m("b", "c"))
    assert g.has_infinite_label()
    assert not named_graph("A3").has_infinite_label()
    assert g.neighbors("b") == ("a", "c")
    assert g.degree("b") == 2


def test_construction_rejects_bad_labels():
    # an explicit 2 is legal and the same as omitting the edge
    g = CoxeterGraph.from_edges("ab", [("a", "b", 2)])
    assert g == CoxeterGraph.from_edges("ab", [])
    with pytest.raises(ValueError):
        CoxeterGraph.from_edges("ab", [("a", "b", 1)])
    with pytest.raises(ValueError):
        CoxeterGraph.from_edges("ab", [("a", "x", 3)])  # unknown vertex
    with pytest.raises(ValueError):
        CoxeterGraph.from_edges("ab", [("a", "a", 3)])  # self-loop


def test_label_text_roundtrip():
    assert label_to_text(INFINITY) == "inf"
    assert label_from_text("inf") == INFINITY
    assert label_from_text("7") == 7
    with pytest.raises(ValueError):
        label_from_text("two")


def test_named_graphs_and_spherical_data():
    for name, (rank, h, roots) in SPHERICAL_DATA.items():
        g = named_graph(name)
        assert g.rank == rank, name
        assert is_spherical(g), name
        assert coxeter_number(g) == h, name
        assert positive_root_count(g) == roots, name
        assert roots == rank * h // 2, name


def test_classification_normalizes_small_ranks():
    # the rank-2 members of other families are all dihedral
    assert classify_spherical(named_graph("I2(3)")) == classify_spherical(
        named_graph("A2")
    )
    assert classify_spherical(named_graph("I2(4)")) == classify_spherical(
        named_graph("B2")
    )
    (t,) = classify_spherical(named_graph("D4"))
    assert (t.family, t.param) == ("D", 4)


def test_non_spherical_graphs():
    # affine graphs sit on the boundary: any proper restriction is spherical
    for g in (
        named_graph("Atilde3"),
        named_graph("I2(inf)"),
        parse_graph("edge 1 2 3\nedge 2 3 3\nedge 3 1 3"),  # affine triangle
        parse_graph("edge 1 2 4\nedge 2 3 4"),  # affine C2
    ):
        assert not is_spherical(g)
        assert positive_root_count(g) is None
        for v in g.vertices:
            rest = g.restrict(tuple(u for u in g.vertices if u != v))
            assert is_spherical(rest), (g.vertices, v)


def test_parse_and_text_roundtrip():
    g = parse_graph("edge 1 2 3\nedge 2 3 inf\nvertex 4")
    assert g.rank == 4
    assert is_infinite(g.m("2", "3"))
    assert g.m("1", "4") == 2
    again = parse_graph(g.to_text())
    assert again == g


def test_json_roundtrip():
    for name in ("A3", "H4", "I2(inf)", "Atilde3"):
        g = named_graph(name)
        obj = g.to_json()
        assert graph_from_json(obj) == g
    g = named_graph("I2(inf)")
    assert "inf" in str(g.to_json())  # infinity must serialize portably


def test_components_and_restrict():
    g = parse_graph("edge 1 2 3\nedge 3 4 5\nvertex 5")
    comps = g.components()
    assert sorted(len(c) for c in comps) == [1, 2, 2]
    assert not g.is_connected()
    sub = g.restrict(("3", "4"))
    assert sub.m("3", "4") == 5
    assert is_direct_product(g, [("1", "2"), ("3", "4"), ("5",)])
    assert not is_direct_product(g, [("1",), ("2", "3", "4", "5")])


def test_bipartite_classes():
    left, right = bipartite_classes(named_graph("A4"))
    assert {frozenset(left), frozenset(right)} == {
        frozenset({"1", "3"}),
        frozenset({"2", "4"}),
    }
    # an odd cycle has no 2-colouring
    with pytest.raises(ValueError):
        bipartite_classes(parse_graph("edge 1 2 3\nedge 2 3 3\nedge 3 1 3"))


# automorphism group orders of some familiar diagrams
AUT_ORDERS = {
    "A1": 1,
    "A5": 2,
    "B3": 1,
    "D4": 6,  # permutes the three short legs
    "D5": 2,
    "E6": 2,
    "E7": 1,
    "F4": 2,
    "H3": 1,
    "I2(5)": 2,
    "I2(4)": 2,
    "Atilde3": 8,  # dihedral group of the square
}


def test_automorphism_counts():
    for name, order in AUT_ORDERS.items():
        assert len(automorphisms(named_graph(name))) == order, name


def test_isomorphisms():
    assert is_isomorphic(named_graph("I2(3)"), named_graph("A2"))
    assert is_isomorphic(named_graph("I2(4)"), named_graph("B2"))
    assert not is_isomorphic(named_graph("A4"), named_graph("B4"))
    maps = isomorphisms(named_graph("A3"), named_graph("A3"))
    assert len(maps) == 2
    for f in maps:
        g = named_graph("A3")
        for u in g.vertices:
            for v in g.vertices:
                assert g.m(u, v) == g.m(f[u], f[v])


def test_restrict_preserves_labels():
    g = named_graph("F4")
    sub = g.restrict(("2", "3"))
    assert sub.m("2", "3") == 4
    assert classify_spherical(sub)[0].family == "B"


# small random graphs: vertex names "1".."n", labels from a small pool
@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    names = [str(k) for k in range(1, n + 1)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            lab = draw(st.sampled_from([2, 2, 2, 3, 3, 4, 5, 6, INFINITY]))
            if lab != 2:
                edges.append((names[i], names[j], lab))
    return CoxeterGraph.from_edges(names, edges)


@given(random_graphs())
def test_json_roundtrip_random(g):
    assert graph_from_json(g.to_json()) == g
    assert parse_graph(g.to_text()) == g


@given(random_graphs())
def test_components_partition_vertices(g):
    comps = g.components()
    seen = sorted(v for c in comps for v in c)
    assert seen == sorted(g.vertices)
    # no edges between distinct components
    for a in comps:
        for b in comps:
            if a is b:
                continue
            for u in a:
                for v in b:
                    assert g.m(u, v) == 2


@given(random_graphs())
def test_spherical_components_have_roots(g):
    if is_spherical(g):
        total = positive_root_count(g)
        parts = [positive_root_count(g.restrict(c)) for c in g.components()]
        assert total == sum(parts)
    else:
        assert positive_root_count(g) is None


@given(random_graphs())
def test_automorphisms_are_label_preserving(g):
    auts = automorphisms(g)
    assert any(all(f[v] == v for v in g.vertices) for f in auts)
    for f in auts:
        for u in g.vertices:
            for v in g.vertices:
                lhs, rhs = g.m(u, v), g.m(f[u], f[v])
                assert lhs == rhs or (is_infinite(lhs) and is_infinite(rhs))


def test_coxeter_number_matches_order_of_coxeter_element():
    # h is also the order of a product of all the atoms, which the element
    # layer computes independently; checked for one representative graph
    # here and systematically in the element tests
    from coxmon import element_from_word, order_of

    g = named_graph("D5")
    c = element_from_word(g, g.vertices)
    assert order_of(c) == coxeter_number(g) == 8


def test_infinity_is_math_inf():
    assert INFINITY == math.inf
    assert is_infinite(INFINITY)
    assert not is_infinite(7)


def test_classification_invariants_raise_without_assert(monkeypatch):
    # tests/test_optimized.py runs this under python -O, where an assert
    # would let both through (tests/test_records.py checks the family)
    branching = parse_graph("edge 1 2 3\nedge 2 3 3\nedge 2 4 3")
    with pytest.raises(RuntimeError):
        _leg_length(branching, "1", "2")
    monkeypatch.setattr(SphericalType, "coxeter_number", property(lambda t: 5))
    with pytest.raises(RuntimeError):
        SphericalType("A", 3).positive_roots
