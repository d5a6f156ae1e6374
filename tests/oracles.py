"""Brute-force reference models used to cross-check the production code.

Everything here works on raw words (tuples of vertex names) and the
rewriting closure under braid moves; nothing imports the element backends
or the normal-form machinery, so agreement between these models and the
package is a genuine two-route check.

The positive braid monoid is homogeneous (braid moves preserve word
length), so the class of a word is finite and two words represent the
same monoid element exactly when their closures coincide.  A positive
word projects to a reduced group word exactly when no member of its class
carries two equal adjacent letters (Tits), which characterizes the simple
elements without any group arithmetic.
"""

from __future__ import annotations

import itertools

from coxmon import StepBudgetExceeded
from coxmon.graphs import is_infinite


# braid-move tables keyed per graph
_tables: dict = {}
# class/canon caches shared by all representatives of an element, so a
# closure is computed once per element rather than per word
_classes: dict = {}
_canons: dict = {}


def _per_graph(store, g):
    table = store.get(g)
    if table is None:
        table = store[g] = {}
    return table


def _move_table(g):
    """(a, b) -> (a b a ..., b a b ...), both of length m(a, b), for every
    ordered pair of distinct letters with a finite label."""
    table = _tables.get(g)
    if table is None:
        table = _tables[g] = {}
        for a in g.vertices:
            for b in g.vertices:
                m = g.m(a, b)
                if a != b and not is_infinite(m):
                    table[a, b] = (tuple((a, b)[k % 2] for k in range(m)),
                                   tuple((b, a)[k % 2] for k in range(m)))
    return table


def _moves(table, word):
    """All words one braid move away, for the move table of the graph.  A
    move swaps an alternating window a b a ... of length m(a, b) for
    b a b ..., and such a window starts at some i with word[i] !=
    word[i + 1]: at each such i the one window of length
    m(word[i], word[i + 1]) is tested."""
    out = []
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a != b and (a, b) in table:
            pat, rep = table[a, b]
            j = i + len(pat)
            if word[i:j] == pat:
                out.append(word[:i] + rep + word[j:])
    return out


def word_class(g, word):
    """The full braid-move closure of a positive word (a frozenset)."""
    word = tuple(word)
    cache = _per_graph(_classes, g)
    hit = cache.get(word)
    if hit is not None:
        return hit
    table = _move_table(g)
    seen = {word}
    todo = [word]
    while todo:
        for nxt in _moves(table, todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
        assert len(seen) < 500_000, "oracle closure blow-up"
    fs = frozenset(seen)
    small = min(fs)
    canons = _per_graph(_canons, g)
    for w in fs:
        cache[w] = fs
        canons[w] = small
    return fs


def canon(g, word):
    """Lexicographically smallest representative of the class."""
    word = tuple(word)
    hit = _per_graph(_canons, g).get(word)
    if hit is not None:
        return hit
    return min(word_class(g, word))


def words_equal(g, u, v):
    return len(u) == len(v) and tuple(v) in word_class(g, tuple(u))


def word_reduce(g, word):
    """A canonical reduced word for the group element of ``word``.

    Tits: while some braid-equivalent word has two equal adjacent letters,
    delete that pair and start over.  The class that is left is the full
    set of reduced words; return its lexicographic minimum.
    """
    word = tuple(word)
    while True:
        shorter = next((w[:k] + w[k + 2:] for w in word_class(g, word)
                        for k in range(len(w) - 1) if w[k] == w[k + 1]), None)
        if shorter is None:
            return canon(g, word)
        word = shorter


def tits_oracle(g, word1, word2):
    """Word-level equality in W, by rewriting only (no linear algebra)."""
    return word_reduce(g, word1) == word_reduce(g, word2)


_ldivs: dict = {}
_rdivs: dict = {}


def _divisor_canons(g, word, store, left):
    """Canonical forms of every left (or right) divisor of the element of
    ``word``: the classes of the prefixes (suffixes) of the words of its
    class."""
    c = canon(g, tuple(word))
    cache = _per_graph(store, g)
    hit = cache.get(c)
    if hit is None:
        canons = _per_graph(_canons, g)
        pieces = {w[:k] if left else w[k:]
                  for w in word_class(g, c) for k in range(len(w) + 1)}
        hit = cache[c] = frozenset(
            x if (x := canons.get(p)) is not None else canon(g, p) for p in pieces)
    return hit


def left_divisor_canons(g, word):
    """Canonical forms of every left divisor of the element of ``word``."""
    return _divisor_canons(g, word, _ldivs, True)


def right_divisor_canons(g, word):
    return _divisor_canons(g, word, _rdivs, False)


def oracle_divides(g, d, x, side="left"):
    divs = left_divisor_canons(g, x) if side == "left" else right_divisor_canons(g, x)
    return canon(g, d) in divs


def oracle_atom_divisors(g, x, side="left"):
    """The set of atoms dividing x on the given side (the L/R sets)."""
    divs = left_divisor_canons(g, x) if side == "left" else right_divisor_canons(g, x)
    return {v for v in g.vertices if (v,) in divs}


def oracle_gcd(g, x, y, side="left"):
    """The unique common divisor that all others divide."""
    if side == "left":
        common = left_divisor_canons(g, x) & left_divisor_canons(g, y)
    else:
        common = right_divisor_canons(g, x) & right_divisor_canons(g, y)
    best = max(common, key=len)
    assert sum(1 for c in common if len(c) == len(best)) == 1, "gcd not unique"
    for c in common:
        assert oracle_divides(g, c, best, side), "gcd not maximal"
    return best


def is_simple_word(g, word):
    """Tits: a positive word is a reduced group word iff no braid-equivalent
    word contains two equal adjacent letters."""
    return all(
        all(w[i] != w[i + 1] for i in range(len(w) - 1))
        for w in word_class(g, tuple(word))
    )


def oracle_nf(g, word):
    """Left-greedy normal form: repeatedly split off the longest simple
    left divisor.  Returns a tuple of canonical factor words."""
    word = canon(g, word)
    factors = []
    while word:
        cands = set()
        for w in word_class(g, word):
            for k in range(len(w), 0, -1):
                if is_simple_word(g, w[:k]):
                    cands.add((k, canon(g, w[:k]), canon(g, w[k:])))
                    break
        top = max(k for k, _, _ in cands)
        best = {(d, tail) for k, d, tail in cands if k == top}
        assert len({d for d, _ in best}) == 1, "maximal simple not unique"
        d, tail = sorted(best)[0]
        factors.append(d)
        word = tail
    return tuple(factors)


def common_multiples_up_to(g, x, y, max_len):
    """Canonical forms of all common right-multiples (z with x | z and
    y | z on the left) of length <= max_len, by breadth-first search."""
    x, y = canon(g, x), canon(g, y)
    out = []
    level = {x}
    for _ in range(len(x), max_len + 1):
        for z in level:
            if oracle_divides(g, y, z, "left"):
                out.append(z)
        nxt = {canon(g, z + (v,)) for z in level for v in g.vertices}
        level = nxt
    return out


def verify_lcm(g, x, y, z, slack=4):
    """Check a claimed right-lcm (z = None claims no common multiple)
    against the model; returns True/False.

    For a claimed z: z must be a common multiple, and no proper left
    divisor of z may be one — enough for exactness, because the true lcm
    divides every common multiple, z included.  For a claimed None the
    check is a bounded breadth-first search over all multiples of x.
    """
    x, y = tuple(x), tuple(y)
    if z is None:
        bound = len(x) + len(y) + slack
        return not common_multiples_up_to(g, x, y, bound)
    z = canon(g, z)
    if not (oracle_divides(g, x, z, "left") and oracle_divides(g, y, z, "left")):
        return False
    for d in left_divisor_canons(g, z):
        if d != z and oracle_divides(g, x, d, "left") and oracle_divides(g, y, d, "left"):
            return False
    return True


def all_words(g, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(g.vertices, repeat=n)


def elements_up_to(g, max_len):
    """Canonical representatives of all monoid elements of length <= max_len."""
    canons = _per_graph(_canons, g)
    return sorted({x if (x := canons.get(w)) is not None else canon(g, w)
                   for w in all_words(g, max_len)}, key=lambda w: (len(w), w))


def reverse_rescanning(g, u, v, step_bound):
    """Word reversing that looks for the leftmost negative-positive pair
    from index 0 after every rewrite: ((u\\v, v\\u) or None, steps used);
    StepBudgetExceeded past step_bound steps."""
    word = [(a, -1) for a in reversed(u)] + [(b, +1) for b in v]
    steps = 0
    while True:
        k = None
        for p in range(len(word) - 1):
            if word[p][1] < 0 and word[p + 1][1] > 0:
                k = p
                break
        if k is None:
            pos = tuple(a for a, s in word if s > 0)
            neg = tuple(a for a, s in word if s < 0)
            return (pos, neg[::-1]), steps
        steps += 1
        if steps > step_bound:
            raise StepBudgetExceeded(f"passed {step_bound} steps")
        a, b = word[k][0], word[k + 1][0]
        if a == b:
            del word[k:k + 2]
            continue
        m = g.m(a, b)
        if is_infinite(m):
            return None, steps
        head = [((b, a)[j % 2], +1) for j in range(m - 1)]
        tail = [((a, b)[j % 2], -1) for j in range(m - 1)][::-1]
        word[k:k + 2] = head + tail
