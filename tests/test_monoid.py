import random

import pytest
from hypothesis import given, strategies as st

from coxmon import (
    CoxeterGraph,
    PosBraid,
    StepBudgetExceeded,
    braid_from_json,
    braid_from_word,
    braid_identity,
    braid_reverse,
    braid_to_json,
    cancel,
    divides,
    element_from_word,
    gcd,
    generator,
    identity_element,
    irreducible_fraction,
    lcm,
    lcm_atoms,
    lift,
    longest_element,
    multiply,
    named_graph,
)
from coxmon.monoid import normalize, reverse_complement
from oracles import (
    canon,
    elements_up_to,
    is_simple_word,
    oracle_divides,
    oracle_gcd,
    oracle_nf,
    reverse_rescanning,
    verify_lcm,
)


def nf_words(x):
    """The normal form as a tuple of letter tuples."""
    from coxmon import canonical_word

    return tuple(canonical_word(f) for f in x.factors)


def test_normal_form_hand_examples():
    g = named_graph("A2")
    # 1121 rewrites to 1212, so the greedy head is the half-turn 121 and
    # the tail is the leftover atom
    x = braid_from_word(g, "1121")
    assert nf_words(x) == (("1", "2", "1"), ("2",))
    # the square of the half-turn factors as two copies of it
    d = lift(longest_element(g))
    assert nf_words(multiply(d, d)) == (("1", "2", "1"), ("1", "2", "1"))
    # left-greedy really is greedy: 21 . 2 not 2 . 12
    y = braid_from_word(g, "212")
    assert nf_words(y) == (("1", "2", "1"),) or nf_words(y) == (("2", "1", "2"),)
    assert len(y.factors) == 1  # it is simple


def test_identity_and_basics():
    g = named_graph("B2")
    e = braid_identity(g)
    assert e.factors == ()
    assert e.length == 0
    x = braid_from_word(g, "1212")
    assert x.length == 4
    assert multiply(e, x) == x == multiply(x, e)
    assert braid_from_word(g, x.word()) == x


def test_divides_and_cancel():
    g = named_graph("A3")
    x = braid_from_word(g, "12132")
    for prefix in ("", "1", "12", "121", "1213", "12132"):
        assert divides(braid_from_word(g, prefix), x, "left")
    assert not divides(braid_from_word(g, "3"), x, "left")
    assert divides(braid_from_word(g, "2"), x, "right")
    d = braid_from_word(g, "121")
    q = cancel(d, x, "left")
    assert multiply(d, q) == x
    with pytest.raises(ValueError):
        cancel(braid_from_word(g, "3"), x, "left")


def test_gcd_and_lcm_hand_examples():
    g = named_graph("A2")
    x = braid_from_word(g, "12")
    y = braid_from_word(g, "121")
    assert gcd(x, y, "left") == braid_from_word(g, "12")
    z = lcm(braid_from_word(g, "1"), braid_from_word(g, "2"))
    assert z == braid_from_word(g, "121")  # the half-turn
    # commuting atoms: lcm is the product
    h = named_graph("A3")
    z = lcm(braid_from_word(h, "1"), braid_from_word(h, "3"))
    assert z == braid_from_word(h, "13")


def test_lcm_none_on_infinite_label():
    g = named_graph("I2(inf)")
    assert lcm(braid_from_word(g, "1"), braid_from_word(g, "2")) is None
    assert lcm_atoms(g, ("1", "2")) is None
    # but comparable elements do have an lcm
    x, y = braid_from_word(g, "12"), braid_from_word(g, "121")
    assert lcm(x, y) == y


def test_step_budget():
    # on the affine square, the images of the two diagonals generate a
    # free submonoid; reversing their words cannot terminate and the
    # budget is the only exit
    g = named_graph("Atilde3")
    x = braid_from_word(g, "13")
    y = braid_from_word(g, "24")
    with pytest.raises(StepBudgetExceeded):
        lcm(x, y, step_bound=500)


@pytest.mark.parametrize("bad, error", [
    (-1, ValueError), (0, ValueError), (2.5, TypeError), (True, TypeError), ("3", TypeError)])
def test_nonsense_step_bounds_are_refused(bad, error):
    # at the parent of this check, -1 and 0 raised StepBudgetExceeded, which
    # reads as "undecided", and 2.5 and True were taken as budgets
    g = named_graph("A3")
    x, y = braid_from_word(g, "1"), braid_from_word(g, "2")
    for call in (lambda: lcm(x, y, step_bound=bad), lambda: lcm(x, y, "left", bad),
                 lambda: reverse_complement(g, "1", "2", bad)):
        with pytest.raises(error, match="step_bound"):
            call()
    # the least budget the CLI takes is a budget here too
    assert lcm(x, y, step_bound=1) == braid_from_word(g, "121")
    assert reverse_complement(g, "1", "2", None) == (("2", "1"), ("1", "2"))


def test_lcm_atoms_is_the_lifted_longest_element():
    g = named_graph("B3")
    z = lcm_atoms(g, ("2", "3"))
    assert z == lift(longest_element(g, ("2", "3")))
    assert z.length == 4  # the edge 2-3 carries the label 4
    assert lcm_atoms(g, g.vertices).length == 9  # the Garside element


def test_right_handed_variants():
    g = named_graph("A2")
    x = braid_from_word(g, "112")
    y = braid_from_word(g, "12")
    assert divides(braid_from_word(g, "2"), x, "right")
    r = lcm(x, y, "left")
    assert r is not None and divides(x, r, "right") and divides(y, r, "right")
    assert braid_reverse(braid_reverse(x)) == x


def test_irreducible_fraction():
    g = named_graph("A2")
    x = braid_from_word(g, "112")
    y = braid_from_word(g, "12")
    fr = irreducible_fraction(x, y, "left")
    # common left factor 1.2... gcd(112, 12) = 1? compare via the oracle
    go = oracle_gcd(g, ("1", "1", "2"), ("1", "2"), "left")
    assert fr.first == cancel(braid_from_word(g, go), x, "left")
    assert fr.second == cancel(braid_from_word(g, go), y, "left")
    assert gcd(fr.first, fr.second, "left") == braid_identity(g)


def test_json_roundtrip():
    g = named_graph("B2")
    x = braid_from_word(g, "21121")
    assert braid_from_json(g, braid_to_json(x)) == x
    assert braid_to_json(braid_identity(g)) == []
    # the letter 2 of the second factor belongs in the first one
    with pytest.raises(ValueError):
        braid_from_json(named_graph("A3"), [["1"], ["2"]])


# -- agreement with the word-rewriting model ------------------------------
#
# the model computes with braid-move closures of raw words and never
# touches the production normal form, so these are genuine dual-route
# checks; sizes are calibrated to keep the module suite fast, the
# acceptance suite runs the larger sweeps


def _check_normal_forms(g, max_len):
    for w in elements_up_to(g, max_len):
        x = braid_from_word(g, w)
        got = nf_words(x)
        want = oracle_nf(g, w)
        assert tuple(canon(g, f) for f in got) == want, (w, got, want)
        for f in got:
            assert is_simple_word(g, f)


def _check_pair_ops(g, pairs):
    for u, v in pairs:
        x, y = braid_from_word(g, u), braid_from_word(g, v)
        assert multiply(x, y) == braid_from_word(g, tuple(u) + tuple(v))
        assert divides(x, y, "left") == oracle_divides(g, u, v, "left")
        assert divides(x, y, "right") == oracle_divides(g, u, v, "right")
        assert canon(g, gcd(x, y, "left").word()) == oracle_gcd(g, u, v, "left")
        try:
            z = lcm(x, y)
        except StepBudgetExceeded:
            continue
        assert verify_lcm(g, u, v, None if z is None else z.word())


def test_model_agreement_A2():
    g = named_graph("A2")
    _check_normal_forms(g, 6)
    els = elements_up_to(g, 4)
    _check_pair_ops(g, [(u, v) for u in els for v in els])


def test_model_agreement_B2():
    g = named_graph("B2")
    _check_normal_forms(g, 5)
    els = elements_up_to(g, 3)
    _check_pair_ops(g, [(u, v) for u in els for v in els])


def test_model_agreement_free_dihedral():
    g = named_graph("I2(inf)")
    _check_normal_forms(g, 6)
    els = elements_up_to(g, 4)
    _check_pair_ops(g, [(u, v) for u in els for v in els])


def test_model_agreement_A3_sampled():
    g = named_graph("A3")
    _check_normal_forms(g, 4)
    rng = random.Random(7)
    words = ["".join(rng.choice("123") for _ in range(rng.randint(0, 6)))
             for _ in range(60)]
    pairs = [(tuple(rng.choice(words)), tuple(rng.choice(words)))
             for _ in range(60)]
    _check_pair_ops(g, pairs)


# -- structural properties on random words --------------------------------

a3_words = st.lists(st.sampled_from("123"), min_size=0, max_size=8)


@given(a3_words)
def test_normalize_is_stable(letters):
    g = named_graph("A3")
    x = braid_from_word(g, letters)
    assert x.length == len(letters)  # the monoid is homogeneous
    assert PosBraid(g, x.factors) == x  # factors already in normal form
    assert braid_from_word(g, x.word()) == x


@given(a3_words, a3_words)
def test_multiplication_properties(u, v):
    g = named_graph("A3")
    x, y = braid_from_word(g, u), braid_from_word(g, v)
    xy = multiply(x, y)
    assert xy.length == x.length + y.length
    assert divides(x, xy, "left")
    assert divides(y, xy, "right")
    assert cancel(x, xy, "left") == y  # left cancellativity
    assert cancel(y, xy, "right") == x


@given(a3_words, a3_words)
def test_gcd_lcm_lattice(u, v):
    g = named_graph("A3")
    x, y = braid_from_word(g, u), braid_from_word(g, v)
    d = gcd(x, y, "left")
    assert divides(d, x, "left") and divides(d, y, "left")
    z = lcm(x, y)
    assert divides(x, z, "left") and divides(y, z, "left")
    # gcd and lcm are dual through reversal
    assert braid_reverse(gcd(braid_reverse(x), braid_reverse(y), "right")) == d


@given(a3_words, a3_words, a3_words)
def test_multiplication_associates(u, v, w):
    g = named_graph("A3")
    x, y, z = (braid_from_word(g, t) for t in (u, v, w))
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


# -- word reversing against a rescan-from-the-start copy ----------------------


def test_reversing_matches_the_rescanning_loop():
    # same complements, and the same least budget: one step fewer raises
    cap = 2_000
    atilde2 = CoxeterGraph.from_edges("123", [("1", "2", 3), ("2", "3", 3), ("1", "3", 3)])
    graphs = [(named_graph(n), 8) for n in ("A3", "B3", "H3", "I2(5)", "I2(inf)")]
    graphs.append((atilde2, 8))
    # the spherical graphs of the benchmark, with longer words
    graphs += [(named_graph(n), 12) for n in ("E6", "E8", "F4", "H4", "D6", "A8")]
    rng = random.Random(11)
    for g, max_len in graphs:
        for _ in range(40):
            u, v = ([rng.choice(g.vertices) for _ in range(rng.randint(0, max_len))]
                    for _ in range(2))
            try:
                expected, n = reverse_rescanning(g, u, v, cap)
            except StepBudgetExceeded:
                with pytest.raises(StepBudgetExceeded):
                    reverse_complement(g, u, v, cap)
                continue
            # the least budget reverse_complement takes is 1
            assert reverse_complement(g, u, v, max(n, 1)) == expected, (g, u, v)
            if n:
                with pytest.raises(StepBudgetExceeded):
                    reverse_rescanning(g, u, v, n - 1)
            if n > 1:
                with pytest.raises(StepBudgetExceeded):
                    reverse_complement(g, u, v, n - 1)


def test_reversing_refuses_a_letter_that_is_not_a_vertex():
    a3 = named_graph("A3")
    for u, v, bad in ((["9"], ["1"], "9"), (["1"], ["2", "x"], "x"), ("1", "12 ", " ")):
        with pytest.raises(ValueError, match=f"{bad!r} is not a vertex"):
            reverse_complement(a3, u, v)


def test_products_over_different_graphs_are_refused():
    x = braid_from_word(named_graph("A3"), "12")
    y = braid_from_word(named_graph("B3"), "12")
    with pytest.raises(ValueError):
        multiply(x, y)
    with pytest.raises(ValueError):
        x.factors[0] * y.factors[0]


def test_monoid_operations_refuse_braids_over_two_graphs():
    # h has A3's vertices and, like A3, 6 positive roots: read through A3's
    # kernel, y's root tables give a wrong gcd rather than an error, and the
    # identity braid of h would pass for a divisor and a multiple of x
    h = CoxeterGraph.from_edges("123", [("2", "3", 5)])
    x = braid_from_word(named_graph("A3"), "121")
    y, e = braid_from_word(h, "232"), braid_identity(h)
    for op in (gcd, lcm, divides, cancel):
        for side in ("left", "right"):
            for u, v in ((x, y), (y, x), (x, e), (e, x)):
                with pytest.raises(ValueError, match="different graphs"):
                    op(u, v, side)
    with pytest.raises(ValueError, match="different graphs"):
        irreducible_fraction(x, y)


def test_factors_of_two_backends_are_refused():
    # every factor of a braid is read through one kernel: a permutation and
    # a matrix over the same graph are refused, with both backends named
    a3 = named_graph("A3")
    p, m = generator(a3, "1"), identity_element(a3, "matrix").gen_right("2")
    both = "two backends, (perm and matrix|matrix and perm)"
    for simples in ([p, m], [m, p]):
        with pytest.raises(ValueError, match=both):
            normalize(a3, simples)
    with pytest.raises(ValueError, match="two backends, perm and matrix"):
        PosBraid(a3, (element_from_word(a3, "12"), m))
    x, y = braid_from_word(a3, "12"), lift(m)
    for u, v in ((x, y), (y, x)):
        for op in (multiply, irreducible_fraction):
            with pytest.raises(ValueError, match=both):
                op(u, v)
        for op in (gcd, lcm, divides, cancel):
            for side in ("left", "right"):
                with pytest.raises(ValueError, match=both):
                    op(u, v, side)
    # one backend throughout is still a braid, whichever it is
    assert multiply(y, y) == normalize(a3, [m, m]) and multiply(y, y).length == 2


def test_products_and_sums_of_braids_with_non_braids_raise_type_error():
    # braids are namedtuples: without operators of their own, a product
    # with an int reads other.graph, and 3 * x and x + x repeat and
    # concatenate the record's fields, as (1,) + x would if x's __radd__,
    # asked first, returned NotImplemented
    a3 = named_graph("A3")
    x, s = braid_from_word(a3, "12"), generator(a3, "1")
    for op in (lambda: x * 2, lambda: 3 * x, lambda: x + x, lambda: x * s, lambda: s * x,
               lambda: (1,) + x, lambda: (1,) + s):
        with pytest.raises(TypeError):
            op()
    assert x * x == multiply(x, x) == braid_from_word(a3, "1212")

def test_normalize_refuses_an_identity_factor_over_another_graph():
    # identity factors are dropped from the product, but only after the
    # graph of every input is checked, as PosBraid checks its factors
    a3, b3 = named_graph("A3"), named_graph("B3")
    for simples in ([identity_element(b3)], [generator(a3, "1"), identity_element(b3)],
                    [identity_element(b3), generator(a3, "1")]):
        with pytest.raises(ValueError, match="factor over another graph"):
            normalize(a3, simples)
    with pytest.raises(ValueError, match="factor over another graph"):
        PosBraid(a3, (identity_element(b3),))
