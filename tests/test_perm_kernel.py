"""Two routes for the root-permutation kernel: the library's permutations
against a test-local copy of the tuple kernel it replaced.

The library stores a permutation of the 2P roots as a 256-byte table,
padded with the identity, when 2P <= 256, and composes and inverts tables
with ``bytes.translate`` and ``bytes.maketrans``; larger root systems keep
tuples.  The copy below works on tuples of the 2P images through
``operator.itemgetter`` and Python loops, built from the first 2P entries
of each generator's table, so agreement on seeded words checks the byte
route (B3, H4, E8, and I2(128) at its limit 2P = 256) and the tuple route
(I2(129), A16) alike.
"""

import math
import random
from operator import itemgetter

import pytest

from coxmon import CoxeterGraph, canonical_word, element_from_word, identity_element, named_graph
from coxmon.elements import kernel, root_system

BYTE_ROUTE = ("B3", "H4", "E8", "I2(128)")
TUPLE_ROUTE = ("I2(129)", "A16")


class TupleKernel:
    """Root permutations as tuples of the 2P images."""

    def __init__(self, g):
        rs = root_system(g)
        self.P = P = rs.n_positive
        self.action = [tuple(row[:2 * P]) for row in rs.action]
        self.getters = [itemgetter(*row) for row in self.action]
        self.vertices = g.vertices
        self.identity = tuple(range(2 * P))

    def compose(self, u, v):
        """The permutation of u * v."""
        return itemgetter(*v)(u) if v else ()

    def gen_right(self, perm, a):
        return self.getters[a](perm)

    def gen_left(self, perm, a):
        return itemgetter(*perm)(self.action[a])

    def inverse(self, perm):
        inv = [0] * len(perm)
        for r, x in enumerate(perm):
            inv[x] = r
        return tuple(inv)

    def mask(self, perm):
        # root a is the simple root of vertex a
        return sum(1 << a for a in range(len(self.vertices)) if perm[a] >= self.P)

    def length(self, perm):
        return sum(1 for r in range(self.P) if perm[r] >= self.P)

    def order(self, perm):
        seen = [False] * len(perm)
        out = 1
        for r in range(len(perm)):
            n, x = 0, r
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                n += 1
            if n:
                out = math.lcm(out, n)
        return out

    def canonical_word(self, perm):
        """Least left descent first, walked on the inverse."""
        cur, letters = self.inverse(perm), []
        while m := self.mask(cur):
            a = (m & -m).bit_length() - 1
            letters.append(self.vertices[a])
            cur = self.gen_right(cur, a)
        return tuple(letters)

    def from_word(self, word):
        perm = self.identity
        for v in word:
            perm = self.gen_right(perm, self.vertices.index(v))
        return perm


def check_element(w, ref, perm):
    """w against the tuple permutation perm, over its first 2P roots; the
    byte padding must stay the identity."""
    P2 = 2 * ref.P
    if isinstance(w.perm, bytes):
        assert len(w.perm) == 256 and w.perm[P2:] == bytes(range(P2, 256))
    else:
        assert len(w.perm) == P2
    assert tuple(w.perm[:P2]) == perm
    inv = ref.inverse(perm)
    assert tuple(w.inverse.perm[:P2]) == inv
    assert w.right_mask == ref.mask(perm)
    assert w.left_mask == ref.mask(inv)
    assert w.length == ref.length(perm)
    assert w.is_identity == (perm == ref.identity)
    assert canonical_word(w) == ref.canonical_word(perm)
    assert w.order() == ref.order(perm)


def seeded_words(g, seed, count=25, max_len=150):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.choice(g.vertices) for _ in range(rng.randint(0, max_len)))


@pytest.mark.parametrize("name", BYTE_ROUTE + TUPLE_ROUTE)
def test_routes_agree_on_seeded_words(name):
    g = named_graph(name)
    rs = root_system(g)
    assert isinstance(rs.identity, bytes) == (name in BYTE_ROUTE)
    assert all(isinstance(row, type(rs.identity)) for row in rs.action)
    ref = TupleKernel(g)
    rmul, inverse = kernel(g, "perm")[1:3]
    words = list(seeded_words(g, seed=f"perm kernel {name}"))
    elements = [element_from_word(g, word) for word in words]
    perms = [ref.from_word(word) for word in words]
    for w, perm in zip(elements, perms):
        check_element(w, ref, perm)
        for a, v in enumerate(g.vertices):
            check_element(w.gen_right(v), ref, ref.gen_right(perm, a))
            check_element(w.gen_left(v), ref, ref.gen_left(perm, a))
            assert tuple(rmul[a](w.perm)[:2 * ref.P]) == ref.gen_right(perm, a)
        assert tuple(inverse(w.perm)[:2 * ref.P]) == ref.inverse(perm)
    for k in range(len(words) - 1):
        u, v = elements[k], elements[k + 1]
        uv = u * v
        check_element(uv, ref, ref.compose(perms[k], perms[k + 1]))
        assert (uv * v.inverse) == u and (u.inverse * uv) == v


def test_routes_agree_on_the_rank_0_graph():
    g = CoxeterGraph((), ())
    ref = TupleKernel(g)
    e = identity_element(g)
    assert isinstance(e.perm, bytes)
    check_element(e, ref, ())
    check_element(e * e, ref, ref.compose((), ()))
    assert e.is_identity and canonical_word(e) == ()
