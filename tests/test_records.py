"""The contract of the library's immutable records: fields, construction,
equality, hash, repr and read-only fields, checked against a frozen
dataclass with the same fields as the reference behaviour."""

import dataclasses
import operator

import pytest

from coxmon import bipartite_partition, braid_from_word, element_from_word, named_graph
from coxmon.elements import (
    Kernel,
    MatrixElement,
    RootPermElement,
    RootSystem,
    identity_element,
    kernel,
    root_system,
)
from coxmon.exact import CosField, ExactScalar, field_for_modulus
from coxmon.graphs import CoxeterGraph, SphericalType, is_spherical
from coxmon.monoid import FractionPair, PosBraid
from coxmon.morphisms import (
    AdmissibleMorphism,
    BurstReport,
    BurstResult,
    FixedSubmonoidReport,
    FoldingReport,
    VerificationReport,
)
from coxmon.partitions import (
    AdmissibilityVerdict,
    BlockPartition,
    Check,
    ClassificationReport,
    ExhaustiveFiniteCertificate,
    IncompatibleWord,
    LiftCertificate,
    OrbitCertificate,
    PartitionType,
    ProductSplitReport,
)

G = named_graph("A2")
RS = root_system(G)
RS_FIELDS = (RS.n_positive, RS.action, RS.rmul, RS.identity,
             RS.translate, RS.inverse, RS.length)
S1 = element_from_word(G, ["1"])
F5 = field_for_modulus(5)
P = bipartite_partition(G)
V = AdmissibilityVerdict("admissible", 4, "r")
PT = PartitionType(P, ((1, 3), (3, 1)), 4)
X = braid_from_word(G, ["1", "2"])
A3 = named_graph("A3")
BR = BurstResult(G, 1, G, P)

# class, field names in order, one set of field values
RECORDS = [
    (CoxeterGraph, "vertices matrix", (("1", "2"), ((1, 3), (3, 1)))),
    (SphericalType, "family param", ("A", 2)),
    (CosField, "modulus psi", (5, (-1, -1, 1))),
    (ExactScalar, "field coeffs", (F5, (1, -1))),
    (RootSystem, "n_positive action rmul identity translate inverse length",
     RS_FIELDS),
    (Kernel, "mask rmul inverse element one fuse", tuple(kernel(G, "perm"))),
    (RootPermElement, "graph perm rs", (G, S1.perm, RS)),
    (MatrixElement, "graph matrix", (G, identity_element(G, "matrix").matrix)),
    (PosBraid, "graph factors", (G, (S1,))),
    (FractionPair, "side first second", ("left", X, X)),
    (BlockPartition, "graph blocks names", (G, (("1",), ("2",)), ("1", "2"))),
    (IncompatibleWord, "alpha beta n first", (("1",), ("2",), 3, "alpha")),
    (ExhaustiveFiniteCertificate, "order", (3,)),
    (OrbitCertificate, "group_order orbits", (2, (("1", "2"),))),
    (LiftCertificate, "outer inner", (P, P)),
    (AdmissibilityVerdict, "outcome bound reason witness certificate pair details",
     ("admissible", 4, "r", None, ExhaustiveFiniteCertificate(3), (("1",), ("2",)), ())),
    (PartitionType, "partition orders bound", (P, ((1, 3), (3, 1)), 4)),
    (ProductSplitReport,
     "factors factor_verdicts factor_orders global_pair global_verdict global_order",
     ((("1",),), (V,), (3,), (("1",), ("2",)), V, 3)),
    (ClassificationReport, "graph bound admissible eliminated", (G, 4, ((P, 3),), ())),
    (AdmissibleMorphism, "target partition verdict source", (G, P, V, G)),
    (Check, "name ok detail", (("1", "2"), True, "d")),
    (VerificationReport, "label checks skipped",
     ("l", (Check("c", True, ""),), (("s", "r"),))),
    (BurstResult, "original copies graph partition", (G, 1, G, P)),
    (BurstReport, "result verdict ptype type_matches infinite_pair_structure",
     (BR, V, PT, True, ())),
    (FoldingReport,
     "source base mapping partition verdict ptype type_matches pair_tags",
     (G, G, (("1", "1"), ("2", "2")), P, V, PT, True, ())),
    (FixedSubmonoidReport,
     "graph partition ptype length_bound fixed_counts generated_counts sets_match",
     (G, P, PT, 2, (1, 2), (1, 2), True)),
]

# fields that take no part in equality, hash or repr
HIDDEN = {RootPermElement: {"rs"}}
OWN_REPR = {
    ExactScalar: "ExactScalar(N=5, [1, -1])",
    PosBraid: "PosBraid(1)",
}


def _reference(cls, names):
    hidden = HIDDEN.get(cls, set())
    fields = [(n, object, dataclasses.field(compare=n not in hidden, repr=n not in hidden))
              for n in names]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, names, values):
    names = names.split()
    x = cls(*values)
    y = cls(**dict(zip(names, values)))
    assert [getattr(x, n) for n in names] == list(values)
    assert x == y and not x != y
    ref = _reference(cls, names)(*values)
    shown = tuple(v for n, v in zip(names, values) if n not in HIDDEN.get(cls, ()))
    assert hash(x) == hash(y) == hash(shown) == hash(ref)
    assert repr(x) == OWN_REPR.get(cls, repr(ref))
    for n in names:
        with pytest.raises(AttributeError):
            setattr(x, n, None)


def test_record_defaults():
    v = AdmissibilityVerdict("unknown", 8)
    assert (v.reason, v.witness, v.certificate, v.pair, v.details) == ("", None, None, None, ())
    assert VerificationReport("l", ()).skipped == ()


def test_root_perm_equality_ignores_the_root_system():
    other = RootSystem(*RS_FIELDS)
    assert other is not RS
    a, b = RootPermElement(G, S1.perm, RS), RootPermElement(G, S1.perm, other)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != RootPermElement(G, RS.identity, RS)
    assert len({a, b, S1}) == 1


def test_spherical_types_sort_as_family_then_param():
    types = [SphericalType(f, p) for f, p in
             [("E", 6), ("A", 7), ("I", 5), ("A", 2), ("D", 4), ("B", 3), ("A", 10)]]
    assert [(t.family, t.param) for t in sorted(types)] == sorted(
        (t.family, t.param) for t in types)
    assert SphericalType("A", 2) < SphericalType("A", 3) < SphericalType("B", 2)


def test_exact_scalars_are_not_ordered():
    # a tuple order would compare the field, then the coefficients
    a, b = F5.scalar((1, -1)), F5.one
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(a, b)


@pytest.mark.parametrize("build", [
    lambda: CoxeterGraph(("1", "1"), ((1, 3), (3, 1))),
    lambda: CoxeterGraph(("1", "2"), ((1, 3), (3, 2))),
    lambda: CoxeterGraph(("1", "2"), ((1, 3), (4, 1))),
    lambda: CoxeterGraph(("1", "2"), ((1, 1), (1, 1))),
    lambda: CoxeterGraph(("1", "2"), ((1, 3),)),
    lambda: CoxeterGraph(("1",), ((1, 3),)),
    lambda: CoxeterGraph(("1", "2"), ((1, 3, 2), (3, 1, 2))),
    lambda: CoxeterGraph((1, 2), ((1, 3), (3, 1))),
    lambda: CoxeterGraph(("1", 2), ((1, 3), (3, 1))),
    lambda: CoxeterGraph(("1", "2"), ((True, 3), (3, 1))),
    lambda: CoxeterGraph(("1", "2"), ((1, 3), (3, 1.0))),
    lambda: SphericalType("Z", 3),
    lambda: SphericalType("", 3),
    lambda: PosBraid(G, (element_from_word(named_graph("A3"), ["1"]),)),
    lambda: PosBraid(G, (identity_element(G),)),
    lambda: PosBraid(G, (S1, element_from_word(G, ["2"]))),
    lambda: BlockPartition(G, (("1",),), ("1", "2")),
    lambda: BlockPartition(G, (("1",), ("2",)), ("a", "a")),
    lambda: BlockPartition(G, ((), ("2",)), ("a", "b")),
    lambda: BlockPartition(G, (("2", "1"),), ("a",)),
    lambda: BlockPartition(G, (("9",),), ("a",)),
    lambda: BlockPartition(G, (("1",), ("1", "2")), ("a", "b")),
    lambda: BlockPartition(G, (("2",), ("1",)), ("a", "b")),
    lambda: AdmissibilityVerdict("maybe", 8),
    lambda: AdmissibilityVerdict("not_admissible", 8),
    # ``_replace`` builds through the class, and so runs the same checks
    lambda: braid_from_word(A3, "12")._replace(factors=(identity_element(A3),)),
    lambda: A3._replace(matrix=((1, 3, 2), (5, 1, 3), (2, 3, 1))),
    lambda: bipartite_partition(A3)._replace(blocks=(("1", "2"), ("2", "3"))),
    lambda: AdmissibilityVerdict("admissible", 4)._replace(outcome="not_admissible"),
    lambda: SphericalType("A", 3)._replace(family="Z"),
])
def test_records_refuse_bad_fields(build):
    with pytest.raises(ValueError):
        build()


def test_replace_builds_the_record_the_class_builds():
    for x in (G, SphericalType("A", 2), X, P, V):
        assert x._replace() == x and type(x._replace()) is type(x)
        with pytest.raises(ValueError, match="unexpected field names"):
            x._replace(nosuch=1)
    assert G._replace(matrix=[[1, 4], [4, 1]]) == named_graph("B2")
    assert X._replace(factors=[S1]) == braid_from_word(G, ["1"])
    assert P._replace(names=["a", "b"]) == BlockPartition(G, P.blocks, ("a", "b"))
    assert V._replace(reason="s") == AdmissibilityVerdict("admissible", 4, "s")


def test_graph_stores_a_list_matrix_as_tuples():
    g = CoxeterGraph(("1", "2"), [[1, 3], [3, 1]])
    assert g == named_graph("A2") and g.matrix == ((1, 3), (3, 1))
    assert is_spherical(g)


def test_braid_and_partition_store_lists_as_tuples():
    x = PosBraid(G, [S1])
    assert x == PosBraid(G, (S1,)) == braid_from_word(G, ["1"]) and x.factors == (S1,)
    assert hash(x) == hash(PosBraid(G, (S1,)))
    assert x * x == braid_from_word(G, ["1", "1"])
    for blocks in ([("1",), ("2",)], [["1"], ["2"]]):
        p = BlockPartition(G, blocks, ["1", "2"])
        assert p == BlockPartition(G, (("1",), ("2",)), ("1", "2"))
        assert p.blocks == (("1",), ("2",)) and p.names == ("1", "2")
        assert hash(p) == hash(BlockPartition(G, (("1",), ("2",)), ("1", "2")))
