"""Two routes for the monoid: the factor-level production code against
test-local copies of the letter-level routes it replaced.

The copies below work on element objects one letter at a time: ``normalize``
bubbles letters between neighbouring factors through ``gen_left`` and
``gen_right`` and the frozenset descent sets, a divisor is stripped one atom
at a time with a full normalization after each, the left gcd collects
common atoms one by one, and the right lcm takes its complement from the
rescan-from-the-start reversing of ``oracles``.  Production ``normalize`` runs on raw element data
and divides one simple factor at a time, so agreement between the two is a
check of the new kernel.  A second test checks the descent masks of every
element of B3 and H3, on both backends, against lengths.  The last tests
feed ``normalize`` chunks of reduced words, so that it fuses neighbours
whole, and ``divides`` divisors whose last factor alone decides the answer.
"""

import random

import pytest

from coxmon import (
    CoxeterGraph,
    PosBraid,
    StepBudgetExceeded,
    braid_from_word,
    cancel,
    divides,
    element_from_word,
    gcd,
    generator,
    identity_element,
    lcm,
    lift,
    named_graph,
)
from coxmon.elements import canonical_word
from coxmon.monoid import normalize
from oracles import reverse_rescanning

STEP_BOUND = 2_000


# -- letter-level routes ----------------------------------------------------


def ref_normalize(simples):
    """Left-greedy normal form as a factor tuple, by letter bubbling."""
    xs = [f for f in simples if not f.is_identity]
    changed = True
    while changed:
        changed = False
        k = 0
        while k + 1 < len(xs):
            u, v = xs[k], xs[k + 1]
            while True:
                free = v.left_descents - u.right_descents
                if not free:
                    break
                i = min(free)
                u = u.gen_right(i)
                v = v.gen_left(i)
                changed = True
            xs[k] = u
            if v.is_identity:
                del xs[k + 1]
            else:
                xs[k + 1] = v
                k += 1
    return tuple(xs)


def ref_word(factors):
    return tuple(v for f in factors for v in canonical_word(f))


def ref_reverse(factors):
    return ref_normalize([f.inverse for f in reversed(factors)])


def ref_strip_atom_left(factors, i):
    if not factors or i not in factors[0].left_descents:
        return None
    return ref_normalize((factors[0].gen_left(i),) + factors[1:])


def ref_quotient_left(d, x):
    for i in ref_word(d):
        x = ref_strip_atom_left(x, i)
        if x is None:
            return None
    return x


def ref_gcd_left(g, x, y):
    letters = []
    while x and y:
        common = x[0].left_descents & y[0].left_descents
        if not common:
            break
        i = min(common)
        letters.append(i)
        x = ref_strip_atom_left(x, i)
        y = ref_strip_atom_left(y, i)
    return ref_normalize([generator(g, v) for v in letters])


def ref_lcm_right(g, x, y):
    comp, _ = reverse_rescanning(g, ref_word(x), ref_word(y), STEP_BOUND)
    if comp is None:
        return None
    return ref_normalize(x + tuple(generator(g, v) for v in comp[0]))


def ref_ops(g, x, y, side):
    """(y with x cancelled or None, gcd) on the given side, as factor
    tuples; right-handed through the reversal."""
    if side == "left":
        return ref_quotient_left(x, y), ref_gcd_left(g, x, y)
    q = ref_quotient_left(ref_reverse(x), ref_reverse(y))
    d = ref_gcd_left(g, ref_reverse(x), ref_reverse(y))
    return (None if q is None else ref_reverse(q)), ref_reverse(d)


def ref_lcm(g, x, y, side):
    """The lcm on the given side, or None; left-handed through the reversal."""
    if side == "right":
        return ref_lcm_right(g, x, y)
    m = ref_lcm_right(g, ref_reverse(x), ref_reverse(y))
    return None if m is None else ref_reverse(m)


# -- the comparison ---------------------------------------------------------


def _rechecked(b):
    """b, once the checking constructor has accepted its fields as they
    are: the library builds its braids without those checks."""
    if b is not None:
        assert b == PosBraid(b.graph, b.factors), b
    return b


ATILDE2 = CoxeterGraph.from_edges("123", [("1", "2", 3), ("2", "3", 3), ("1", "3", 3)])
GRAPHS = {name: named_graph(name) for name in ("A3", "B3", "H3", "D4", "E6", "I2(inf)")}
GRAPHS["Atilde2"] = ATILDE2


def _words(g, rng, count, max_len):
    return [tuple(rng.choice(g.vertices) for _ in range(rng.randint(0, max_len)))
            for _ in range(count)]


@pytest.mark.parametrize("name", list(GRAPHS))
def test_factor_level_ops_match_the_letter_level_routes(name):
    g = GRAPHS[name]
    backend = "perm" if name not in ("I2(inf)", "Atilde2") else "matrix"
    assert identity_element(g).backend == backend
    rng = random.Random(sum(map(ord, name)))
    words = _words(g, rng, 40, 9)
    for w in words:
        x = _rechecked(braid_from_word(g, w))
        assert x.factors == ref_normalize([generator(g, v) for v in w]), w
        # normalize of an unnormalized product of simples
        assert _rechecked(normalize(g, x.factors[::-1])).factors == ref_normalize(
            x.factors[::-1])
        for f in (identity_element(g),) + x.factors:
            assert _rechecked(lift(f)).factors == ref_normalize([f])
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(30)]
    # divisors that do divide: a prefix and a suffix of the other word
    for w in words[:16]:
        k = rng.randint(0, len(w))
        pairs += [(w[:k], w), (w[k:], w)]
    for u, v in pairs:
        x, y = _rechecked(braid_from_word(g, u)), _rechecked(braid_from_word(g, v))
        for side in ("left", "right"):
            want_q, want_gcd = ref_ops(g, x.factors, y.factors, side)
            assert divides(x, y, side) == (want_q is not None), (u, v, side)
            if want_q is not None:
                assert _rechecked(cancel(x, y, side)).factors == want_q, (u, v, side)
            else:
                with pytest.raises(ValueError):
                    cancel(x, y, side)
            assert _rechecked(gcd(x, y, side)).factors == want_gcd, (u, v, side)
            try:
                want_lcm = ref_lcm(g, x.factors, y.factors, side)
            except StepBudgetExceeded:
                with pytest.raises(StepBudgetExceeded):
                    lcm(x, y, side, STEP_BOUND)
                continue
            got = _rechecked(lcm(x, y, side, STEP_BOUND))
            assert (None if got is None else got.factors) == want_lcm, (u, v, side)


# -- descent masks ------------------------------------------------------------


def _all_elements(g):
    """Every element of a finite W with one word for each, by breadth-first
    search on the permutation backend."""
    e = identity_element(g, "perm")
    seen = {e: ()}
    frontier = [e]
    while frontier:
        nxt = []
        for w in frontier:
            for v in g.vertices:
                x = w.gen_right(v)
                if x not in seen:
                    seen[x] = seen[w] + (v,)
                    nxt.append(x)
        frontier = nxt
    return seen


@pytest.mark.parametrize("name, order", [("B3", 48), ("H3", 120)])
def test_masks_are_the_descent_sets_on_both_backends(name, order):
    g = named_graph(name)
    elements = _all_elements(g)
    assert len(elements) == order
    for w, word in elements.items():
        # descents by definition, through lengths on the permutation backend
        right = {v for v in g.vertices if w.gen_right(v).length < w.length}
        left = {v for v in g.vertices if w.gen_left(v).length < w.length}
        m = identity_element(g, "matrix")
        for v in word:
            m = m.gen_right(v)
        for x in (w, m):
            for mask, descents, want in ((x.right_mask, x.right_descents, right),
                                         (x.left_mask, x.left_descents, left)):
                assert descents == want, (word, x.backend)
                assert {v for a, v in enumerate(g.vertices) if mask >> a & 1} == want
                assert mask < 1 << g.rank
        assert canonical_word(m) == canonical_word(w)
        assert m.length == w.length == len(word)


# -- whole-factor fusion and the short divisibility test ----------------------


FUSE_GRAPHS = {name: named_graph(name) for name in
               ("A3", "B3", "H3", "D4", "E6", "E8", "I2(129)", "A16", "I2(inf)")}
FUSE_GRAPHS["Atilde2"] = ATILDE2
BYTE_TABLES = ("A3", "B3", "H3", "D4", "E6", "E8")


def _reduced_word(g, rng, n):
    """A seeded reduced word of length n: each letter is an ascent."""
    w, word = identity_element(g), []
    for _ in range(n):
        free = [v for v in g.vertices if v not in w.right_descents]
        if not free:
            break
        v = rng.choice(free)
        w = w.gen_right(v)
        word.append(v)
    return word


def _chunked_simples(g, rng, max_len):
    """A few seeded reduced words, each cut into random chunks: neighbours
    inside a word have additive lengths, neighbours across words need not."""
    simples = []
    for _ in range(rng.randint(1, 3)):
        word = _reduced_word(g, rng, rng.randint(0, max_len))
        while word:
            k = rng.randint(1, len(word))
            simples.append(element_from_word(g, word[:k]))
            word = word[k:]
    return simples


@pytest.mark.parametrize("name", list(FUSE_GRAPHS))
def test_fuse_is_the_length_additive_product(name):
    g = FUSE_GRAPHS[name]
    fuse = identity_element(g).kernel.fuse
    if name not in BYTE_TABLES:  # tuple tables and matrices never fuse
        assert fuse is None
        return
    rng = random.Random(sum(map(ord, name)))
    fused = 0
    for _ in range(60):
        u = element_from_word(g, _reduced_word(g, rng, rng.randint(0, 8)))
        v = element_from_word(g, _reduced_word(g, rng, rng.choice((1, rng.randint(0, 8)))))
        uv = u * v
        additive = uv.length == u.length + v.length
        got = fuse(u.data, v.data)
        assert (got is not None) == additive, (name, u, v)
        if got is not None:
            assert got == uv.data, (name, u, v)
            fused += 1
    assert fused


@pytest.mark.parametrize("name", list(FUSE_GRAPHS))
def test_normalize_of_chunked_simples_matches_the_letter_route(name):
    g = FUSE_GRAPHS[name]
    rng = random.Random(sum(map(ord, name)) + 1)
    max_len = 8 if name in ("I2(inf)", "Atilde2") else 14
    for _ in range(25):
        simples = _chunked_simples(g, rng, max_len)
        x = _rechecked(normalize(g, simples))
        assert x.factors == ref_normalize(simples), name
        assert _rechecked(normalize(g, x.factors[::-1])).factors == ref_normalize(
            x.factors[::-1])
        for f in simples:
            assert _rechecked(lift(f)).factors == ref_normalize([f])


@pytest.mark.parametrize("name", list(FUSE_GRAPHS))
def test_divides_stops_at_the_last_length_test(name):
    # divisors of two or more factors whose every factor but the last
    # divides: the answer is that of the last factor's length test; a
    # prefix of x divides it, and a prefix with letters added may not
    g = FUSE_GRAPHS[name]
    rng = random.Random(sum(map(ord, name)) + 2)
    found = {True: 0, False: 0}
    for _ in range(40):
        x = braid_from_word(g, _words(g, rng, 1, 12)[0])
        word = x.word()
        k = rng.randint(0, len(word))
        for extra in ((), _words(g, rng, 1, 3)[0]):
            d = braid_from_word(g, word[:k] + extra)
            if len(d.factors) < 2 or not divides(PosBraid(g, d.factors[:-1]), x):
                continue
            want = ref_quotient_left(d.factors, x.factors) is not None
            assert divides(d, x) == want, (name, d, x)
            found[want] += 1
    assert found[False] >= 3 and found[True] >= 1, found
