import itertools
import random

import pytest
from hypothesis import given, strategies as st

from coxmon import (
    INFINITY,
    CoxeterGraph,
    canonical_word,
    coxeter_number,
    descents,
    element_from_word,
    generator,
    identity_element,
    is_compatible,
    is_spherical,
    length,
    longest_element,
    named_graph,
    order_of,
    positive_root_count,
    support,
)
from coxmon import elements
from coxmon.elements import (
    MatrixElement,
    StepBudgetExceeded,
    _cos_rows,
    _peel,
    kernel,
    pick_backend,
)
from coxmon.exact import ExactScalar, field_for_modulus, poly_divmod_monic, poly_mul
from oracles import tits_oracle, word_reduce

# group orders of small spherical types: |W| = product of (exponents + 1),
# cross-checked below by breadth-first enumeration
GROUP_ORDERS = {"A3": 24, "B3": 48, "A4": 120, "H3": 120, "D4": 192, "I2(5)": 10}


def enumerate_group(g, backend=None):
    """All elements by BFS on right multiplication."""
    e = identity_element(g, backend)
    seen = {e}
    frontier = [e]
    while frontier:
        new = []
        for w in frontier:
            for v in g.vertices:
                x = w.gen_right(v)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return seen


def test_group_orders_by_enumeration():
    for name, order in GROUP_ORDERS.items():
        assert len(enumerate_group(named_graph(name))) == order, name


def test_backends_agree_elementwise():
    # same groups through the permutation action and through the exact
    # reflection matrices: identical canonical words, lengths and orders,
    # over the rationals (A3, B3) and over Q(sqrt 5) (H3, I2(5))
    for name in ("A3", "B3", "H3", "I2(5)"):
        g = named_graph(name)
        perm = enumerate_group(g, "perm")
        mat = enumerate_group(g, "matrix")
        assert len(perm) == len(mat) == GROUP_ORDERS[name]
        by_word_p = {canonical_word(w): w for w in perm}
        by_word_m = {canonical_word(w): w for w in mat}
        assert by_word_p.keys() == by_word_m.keys()
        for word in by_word_p:
            p, m = by_word_p[word], by_word_m[word]
            assert length(p) == length(m) == len(word)
            assert order_of(p) == order_of(m)
            assert descents(p, "left") == descents(m, "left")
            assert descents(p, "right") == descents(m, "right")
            assert support(p) == support(m)


@pytest.mark.parametrize("name", ["E8", "H4", "F4", "A16"])
def test_backends_agree_on_seeded_words(name):
    # the permutation tables are read off small_roots, simple roots first:
    # seeded words give the same masks, lengths and canonical words on the
    # exact matrices, over byte tables (E8, H4, F4) and tuple tables (A16)
    g = named_graph(name)
    rng = random.Random(f"backends {name}")
    for _ in range(8):
        word = [rng.choice(g.vertices) for _ in range(rng.randint(0, 30))]
        p, m = identity_element(g, "perm"), identity_element(g, "matrix")
        for v in word:
            p, m = p.gen_right(v), m.gen_right(v)
        assert p.right_mask == m.right_mask and p.left_mask == m.left_mask, word
        assert length(p) == length(m), word
        assert canonical_word(p) == canonical_word(m), word


def test_products_of_two_backends_are_refused():
    g = named_graph("A3")
    p, m = generator(g, "1"), identity_element(g, "matrix").gen_right("2")
    with pytest.raises(ValueError, match="product of a perm and a matrix element"):
        p * m
    with pytest.raises(ValueError, match="product of a matrix and a perm element"):
        m * p


@pytest.mark.parametrize("backend", ["perm", "matrix"])
def test_products_and_sums_with_non_elements_raise_type_error(backend):
    # elements are namedtuples: without operators of their own, a product
    # with an int reads other.graph, and 2 * x and x + x repeat and
    # concatenate the record's fields; (1,) + x asks x's __radd__ first,
    # and NotImplemented there would let tuple concatenation take x
    g = named_graph("A3")
    x = identity_element(g, backend).gen_right("1")
    for op in (lambda: x * 2, lambda: 2 * x, lambda: x + x, lambda: x + (1,),
               lambda: (1,) + x, lambda: () + x):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError, match="product of elements over different graphs"):
        x * identity_element(named_graph("A2"), backend).gen_right("1")
    assert (x * x).is_identity


def test_backend_selection():
    assert pick_backend(named_graph("A3")) == "perm"
    assert pick_backend(named_graph("Atilde3")) == "matrix"
    with pytest.raises(ValueError):
        pick_backend(named_graph("Atilde3"), "perm")
    with pytest.raises(ValueError):
        pick_backend(named_graph("A3"), "nosuch")


def test_generators_and_relations():
    g = named_graph("B2")
    s, t = generator(g, "1"), generator(g, "2")
    assert (s * s).is_identity
    st_ = s * t
    assert order_of(st_) == 4  # m(1, 2) = 4
    assert s * t * s * t == t * s * t * s  # the braid relation


def test_longest_element():
    for name in ("A3", "B3", "H3", "D4", "F4"):
        g = named_graph(name)
        w0 = longest_element(g)
        assert length(w0) == positive_root_count(g), name
        # w0 is an involution with full descent sets
        assert (w0 * w0).is_identity
        assert descents(w0, "right") == frozenset(g.vertices)
    # parabolic: longest element of a subset
    g = named_graph("A3")
    r = longest_element(g, ("1", "2"))
    assert canonical_word(r) == ("1", "2", "1")


def test_canonical_word_is_lexicographically_least():
    g = named_graph("A2")
    w = element_from_word(g, "121")
    assert w == element_from_word(g, "212")
    assert canonical_word(w) == ("1", "2", "1")


def test_coxeter_element_order_is_coxeter_number():
    for name in ("A4", "B4", "D5", "F4", "H3", "E6"):
        g = named_graph(name)
        c = element_from_word(g, g.vertices)
        assert order_of(c) == coxeter_number(g), name


def test_infinite_order_reports_none():
    g = named_graph("I2(inf)")
    w = element_from_word(g, "12")
    assert order_of(w, bound=50) is None


def test_matrix_backend_on_affine_graph():
    g = named_graph("Atilde3")
    w = element_from_word(g, "1234")
    assert length(w) == 4
    assert order_of(w, bound=100) is None  # a Coxeter element, infinite order
    assert word_reduce(g, "11") == ()
    assert word_reduce(g, "121") == ("1", "2", "1")


def test_word_reduce_and_tits_oracle():
    g = named_graph("A3")
    assert word_reduce(g, "1221") == ()
    assert word_reduce(g, "12132") == ("1", "2", "1", "3", "2")
    assert tits_oracle(g, "121", "212")
    assert not tits_oracle(g, "12", "21")
    assert tits_oracle(g, "1331", "")


def test_word_reduce_uses_commutation_moves():
    # '1' and '3' commute in B3 (no edge between them), and that counts as
    # a braid move: squares can hide behind a commutation, and equal
    # elements can present with the commuting letters swapped
    g = named_graph("B3")
    assert word_reduce(g, "31") == ("1", "3")
    assert word_reduce(g, "313") == ("1",)
    assert tits_oracle(g, "322221", "13")


def test_is_compatible():
    # is_compatible asks whether block longest elements multiply with
    # lengths adding up
    g = named_graph("A3")
    r13 = longest_element(g, ("1", "3"))
    r2 = longest_element(g, ("2",))
    assert order_of(r13 * r2) == 4
    assert is_compatible(g, [("1", "3"), ("2",)])
    assert is_compatible(g, [("1", "3"), ("2",), ("1", "3")])
    assert not is_compatible(g, [("1",), ("1",)])  # s1 s1 drops length
    # alternating r13, r2 five times passes l(w0) = 6, so it cannot add
    assert not is_compatible(g, [("1", "3"), ("2",)] * 3)


words = st.lists(st.sampled_from("123"), min_size=0, max_size=10)


@given(words)
def test_length_vs_word_and_inverse(letters):
    g = named_graph("A3")
    w = element_from_word(g, letters)
    assert length(w) <= len(letters)
    assert (length(w) - len(letters)) % 2 == 0  # parity is invariant
    assert length(w.inverse) == length(w)
    assert w.inverse.inverse == w
    # the reversed canonical word is a reduced word for the inverse
    assert element_from_word(g, canonical_word(w)[::-1]) == w.inverse


@given(words)
def test_descent_definition(letters):
    g = named_graph("A3")
    w = element_from_word(g, letters)
    for v in g.vertices:
        assert (v in descents(w, "right")) == (length(w.gen_right(v)) < length(w))
        assert (v in descents(w, "left")) == (length(w.gen_left(v)) < length(w))


@given(words)
def test_canonical_word_multiplies_back(letters):
    g = named_graph("A3")
    w = element_from_word(g, letters)
    assert element_from_word(g, canonical_word(w)) == w
    assert len(canonical_word(w)) == length(w)


@given(words, words)
def test_length_subadditivity(u_l, v_l):
    g = named_graph("A3")
    u, v = element_from_word(g, u_l), element_from_word(g, v_l)
    assert length(u * v) <= length(u) + length(v)
    assert (length(u * v) - length(u) - length(v)) % 2 == 0


def test_orders_divide_group_order():
    g = named_graph("B3")
    for w in enumerate_group(g):
        assert GROUP_ORDERS["B3"] % order_of(w) == 0


def test_permutation_kernel_identities():
    # left descents read off the permutation, identity by table equality,
    # and the translate products, against their definitions
    for name in ("A3", "B3", "H3", "I2(5)"):
        g = named_graph(name)
        for w in enumerate_group(g, "perm"):
            assert w.left_descents == w.inverse.right_descents
            assert (w * w.inverse).is_identity
            assert w.is_identity == (w.length == 0)
            for v in g.vertices:
                assert w.gen_right(v) == w * generator(g, v)
                assert w.gen_left(v) == generator(g, v) * w
    # the rank-0 group: the padding alone still composes
    e = identity_element(CoxeterGraph((), ()))
    assert (e * e).is_identity and not e.left_descents


def seeded_graphs(seed, count=30):
    """Random graphs of rank at most 4 with labels in {2, ..., 6, inf}."""
    rng = random.Random(seed)
    labels = (2, 3, 4, 5, 6, INFINITY)
    for _ in range(count):
        verts = [str(k) for k in range(rng.randint(1, 4))]
        yield rng, CoxeterGraph.from_edges(verts, [
            (a, b, rng.choice(labels)) for a, b in itertools.combinations(verts, 2)])


def test_matrix_entries_have_int_coefficients():
    # every scalar of the reflection representation lies in Z[theta]: the
    # 2cos table, the identity and seeded products all keep plain int
    # coefficients
    def ints(scalars):
        return all(type(c) is int for x in scalars for c in x.coeffs)

    for rng, g in seeded_graphs(3):
        verts = g.vertices
        assert all(ints(c for _, c in row) for row in _cos_rows(g))
        e = identity_element(g, "matrix")
        assert all(ints(row) for row in e.matrix)
        for _ in range(4):
            w = e
            for v in (rng.choice(verts) for _ in range(rng.randint(1, 8))):
                w = w.gen_right(v) if rng.random() < 0.5 else w.gen_left(v)
            for x in (w, w * w, w.inverse):
                assert all(ints(row) for row in x.matrix), g


# -- the matrix product against scalar-by-scalar arithmetic ----------------


def scalar_mul(x, y):
    """x * y by one polynomial product reduced mod Psi_N by long division,
    apart from ``CosField.dot``."""
    psi = x.field.psi
    prod = poly_mul(x.coeffs, y.coeffs)
    if len(prod) >= len(psi):
        _, prod = poly_divmod_monic(prod, psi)
    return ExactScalar(x.field, prod + (0,) * (len(psi) - 1 - len(prod)))


def scalar_product(u, v):
    """u * v entry by entry, each scalar product reduced on its own and
    the products added up as scalars: the route the fused product
    replaced."""
    n = u.graph.rank
    zero = field_for_modulus(u.graph.modulus).zero
    a, b = u.matrix, v.matrix
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = zero
            for k in range(n):
                if a[r][k] and b[k][c]:
                    acc = acc + scalar_mul(a[r][k], b[k][c])
            row.append(acc)
        rows.append(tuple(row))
    return MatrixElement(u.graph, tuple(rows))


def scalar_gen_left(w, v):
    """s_v * w by the same scalar arithmetic: row a becomes -row a plus
    2cos(pi/m_ak) times row k."""
    a = w.graph._index[v]
    mat = w.matrix
    row = []
    for c in range(w.graph.rank):
        acc = -mat[a][c]
        for k, x in _cos_rows(w.graph)[a]:
            if mat[k][c]:
                acc = acc + scalar_mul(x, mat[k][c])
        row.append(acc)
    return MatrixElement(w.graph, mat[:a] + (tuple(row),) + mat[a + 1:])


def test_fused_matrix_product_matches_scalar_arithmetic():
    degrees = set()
    for rng, g in seeded_graphs(11):
        degrees.add(field_for_modulus(g.modulus).degree)
        e = identity_element(g, "matrix")
        elts = [e]
        for _ in range(4):
            w = e
            for v in (rng.choice(g.vertices) for _ in range(rng.randint(0, 8))):
                w = w.gen_right(v)
            elts.append(w)
        for u in elts:
            assert (u * u.inverse).matrix == e.matrix, g
            for v in elts:
                assert (u * v).matrix == scalar_product(u, v).matrix, g
            for v in g.vertices:
                assert u.gen_left(v).matrix == scalar_gen_left(u, v).matrix, g
    assert {1, 2, 4, 8} <= degrees


def test_products_by_longest_elements_match_scalar_arithmetic():
    # the right factors of the alternating scan: r_B of every spherical
    # block B, whose columns the product copies (a_j -> a_k), negates
    # (a_j -> -a_k, j in B) or reads through trimmed coefficient tuples
    kinds = set()
    n_graphs = 0
    for rng, g in seeded_graphs(13, count=40):
        if is_spherical(g):
            continue
        n_graphs += 1
        blocks = [b for k in range(1, g.rank + 1)
                  for b in itertools.combinations(g.vertices, k) if is_spherical(g.restrict(b))]
        lefts = [identity_element(g, "matrix")]
        lefts += [longest_element(g, b) for b in rng.sample(blocks, min(3, len(blocks)))]
        lefts.append(element_from_word(g, [rng.choice(g.vertices) for _ in range(6)]))
        for b in blocks:
            r = longest_element(g, b)
            kinds.update("unit" if k is not None else "general" for k, _ in r._columns)
            kinds.update(pairs for k, pairs in r._columns if k is not None)
            for u in lefts + [lefts[-1] * r]:
                assert (u * r).matrix == scalar_product(u, r).matrix, (g, b)
                assert (r * u).matrix == scalar_product(r, u).matrix, (g, b)
    assert n_graphs >= 10
    assert kinds == {"unit", "general", 1, -1}


def test_fused_matrix_product_with_hand_built_entries():
    # a hand-built matrix over Z[2 cos(pi/12)] (84 times one with the
    # denominators 2, 3, 4 and 7): not a group element, but products must
    # still be exact
    g = named_graph("B3")
    f = field_for_modulus(g.modulus)
    q = MatrixElement(g, (
        (f.scalar((42, 84)), f.zero, f.scalar((0, -63))),
        (f.scalar((84,)), f.scalar((140,)), f.zero),
        (f.scalar((0, 12)), f.scalar((168, -84)), f.scalar((-42,))),
    ))
    w = identity_element(g, "matrix")
    for v in "12312":
        w = w.gen_right(v)
    for x, y in ((q, q), (q, w), (w, q), (q * q, q)):
        assert (x * y).matrix == scalar_product(x, y).matrix
    for v in g.vertices:
        assert q.gen_left(v).matrix == scalar_gen_left(q, v).matrix
    # over Z[sqrt 2]: (1 + 2t)^2 = 1 + 4t + 4t^2 = 9 + 4t with t^2 = 2
    assert field_for_modulus(4).dot([((1, 2), (1, 2))]).coeffs == (9, 4)


# -- longest elements --------------------------------------------------------


def test_longest_element_is_one_object_per_subset():
    g = named_graph("A3")
    r = longest_element(g, {"2", "1"})
    assert longest_element(g, ["1", "2"]) is r
    assert longest_element(g, ("2", "1")) is r
    assert longest_element(g) is longest_element(g, g.vertices)


ATILDE2 = CoxeterGraph.from_edges("123", [("1", "2", 3), ("2", "3", 3), ("1", "3", 3)])


def test_longest_element_on_every_spherical_subset():
    for g in (named_graph("A4"), named_graph("B4"), named_graph("H3"), ATILDE2):
        for k in range(len(g.vertices) + 1):
            for J in itertools.combinations(g.vertices, k):
                bound = positive_root_count(g.restrict(J))
                if bound is None:
                    with pytest.raises(ValueError):
                        longest_element(g, J)
                    continue
                r = longest_element(g, J)
                assert length(r) == bound, (g, J)
                assert set(J) <= descents(r, "right"), (g, J)  # no free generator


def test_longest_element_ascent_past_its_bound_raises(monkeypatch):
    # a bound below l(r_J) must raise, not return a shorter element, and
    # not through an assert (which python -O strips)
    g = CoxeterGraph.from_edges("xy", [("x", "y", 3)])
    monkeypatch.setattr(elements, "positive_root_count", lambda sub: 1)
    with pytest.raises(RuntimeError):
        longest_element(g)


# -- matrices that are not group elements -------------------------------------


@pytest.mark.parametrize("column, refusal", [
    (((), ()), "zero column 1"),
    (((1,), (-2, 1)), "mixed-sign column 1"),  # 1 and sqrt 2 - 2
])
def test_matrix_descents_refuse_non_group_matrices(column, refusal):
    # every column of a group element is the image of a simple root, which
    # is nonzero with all coefficients of one sign; the descent mask reads
    # the signs, so it refuses a matrix that breaks either rule
    g = named_graph("I2(4)")
    f = field_for_modulus(g.modulus)
    top, bottom = (f.scalar(c) for c in column)
    with pytest.raises(ValueError, match=refusal):
        MatrixElement(g, ((top, f.one), (bottom, f.one))).right_mask


def test_descent_walk_ceiling_stops_a_non_group_matrix():
    # rows (1, 1), (0, 1) over I2(4): both columns are nonnegative, so the
    # descent mask is 0, yet the matrix is not the identity (nor any group
    # element); the walk stops only on the identity, so its step ceiling is
    # what ends it, for the length, the inverse and the canonical word alike
    g = named_graph("I2(4)")
    f = field_for_modulus(g.modulus)
    rows = ((f.one, f.one), (f.zero, f.one))
    assert MatrixElement(g, rows).right_mask == 0
    for measure in (lambda w: w.length, lambda w: w.inverse, canonical_word):
        with pytest.raises(StepBudgetExceeded, match="descent walk exceeded 10000 steps"):
            measure(MatrixElement(g, rows))


@pytest.mark.parametrize("name, backend", [("A3", "perm"), ("A3", "matrix"),
                                           ("Atilde3", "matrix")])
def test_kernel_holds_the_identity(name, backend):
    # the identity's data lives in the kernel: the identity element wraps
    # it, and the descent walk from it peels nothing
    g = named_graph(name)
    kern = kernel(g, backend)
    assert kern.one == identity_element(g, backend).data
    assert _peel(kern, kern.one) == []
    assert identity_element(g) == identity_element(g, pick_backend(g))
