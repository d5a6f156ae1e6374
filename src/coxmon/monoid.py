"""Positive Artin-Tits monoids B+ over a Coxeter graph.

Elements are stored *only* in left-greedy normal form: a tuple of
nontrivial simples (W elements of length equal to their word length) such
that consecutive factors (u, v) satisfy  left_descents(v) subset-of
right_descents(u) — nothing more can be pulled from v into u.  The
``normalize`` factory restores this invariant by local letter bubbling,
exactly the move that strictly shifts length toward the front, so it
terminates.

Division is decided by stripping atoms: an atom s_i left-divides x iff i is
a left descent of the first factor, and  d | x  iff the letters of any
fixed word for d strip off x one by one (sound by left cancellativity).
Left gcds extract common atoms greedily; right lcms come from word
reversing with the dihedral complement  i \\ j = alternating word of length
m_{ij} - 1 starting with j  (an infinite label certifies that no common
multiple exists).  Right-handed variants of everything go through the
reversal antiautomorphism rev(s_{i1} ... s_{ik}) = s_{ik} ... s_{i1}.
"""

from __future__ import annotations

from collections import namedtuple

from .elements import StepBudgetExceeded  # re-exported
from .elements import canonical_word, element_from_word, longest_element
from .graphs import CoxeterGraph, is_infinite, is_spherical

DEFAULT_STEP_BOUND = 10_000
SPHERICAL_STEP_BOUND = 2_000_000


def default_step_bound(g: CoxeterGraph) -> int:
    """Reversing budget for graphs where no explicit bound was given.

    Over a spherical graph reversing always terminates (every pair has a
    common multiple below the lifted longest element), so the budget is
    only a guard against pathological cost and can be generous.  Over a
    non-spherical graph reversing may genuinely diverge, so the budget is
    the termination mechanism and stays small.
    """
    return SPHERICAL_STEP_BOUND if is_spherical(g) else DEFAULT_STEP_BOUND


class PosBraid(namedtuple("PosBraid", "graph factors")):
    """An element of B+ in left-greedy normal form."""

    __slots__ = ()

    def __new__(cls, graph, factors):
        for f in factors:
            if f.graph != graph:
                raise ValueError("factor over another graph")
            if f.is_identity:
                raise ValueError("trivial factor in normal form")
        for u, v in zip(factors, factors[1:]):
            if not v.left_descents <= u.right_descents:
                raise ValueError("factor list is not in left-greedy normal form")
        return tuple.__new__(cls, (graph, factors))

    @property
    def length(self) -> int:
        return sum(f.length for f in self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def word(self) -> tuple:
        """Canonical positive word: factorwise canonical reduced words."""
        out = []
        for f in self.factors:
            out.extend(canonical_word(f))
        return tuple(out)

    def __mul__(self, other: "PosBraid") -> "PosBraid":
        return multiply(self, other)

    def __repr__(self):
        return f"PosBraid({''.join(self.word()) or 'e'})"


# -- construction ----------------------------------------------------------


def braid_identity(g: CoxeterGraph) -> PosBraid:
    return PosBraid(g, ())


def lift(w) -> PosBraid:
    """The simple braid with image w (one normal-form factor)."""
    if w.is_identity:
        return PosBraid(w.graph, ())
    return PosBraid(w.graph, (w,))


def normalize(g: CoxeterGraph, simples) -> PosBraid:
    """Left-greedy normal form of a product of simples (W elements)."""
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
    return PosBraid(g, tuple(xs))


def braid_from_word(g: CoxeterGraph, letters) -> PosBraid:
    return normalize(g, [element_from_word(g, (v,)) for v in letters])


def multiply(x: PosBraid, y: PosBraid) -> PosBraid:
    if x.graph != y.graph:
        raise ValueError("product of braids over different graphs")
    return normalize(x.graph, x.factors + y.factors)


def braid_reverse(x: PosBraid) -> PosBraid:
    """The image under rev (write every word backwards); an
    anti-automorphism, so left-handed facts about rev(x) are right-handed
    facts about x."""
    return normalize(x.graph, [f.inverse for f in reversed(x.factors)])


# -- divisibility ----------------------------------------------------------


def _strip_atom_left(x: PosBraid, i: str) -> PosBraid | None:
    """s_i^{-1} x if the atom divides x on the left, else None."""
    if not x.factors:
        return None
    if i not in x.factors[0].left_descents:
        return None
    first = x.factors[0].gen_left(i)
    return normalize(x.graph, (first,) + x.factors[1:])


def _quotient_left(d: PosBraid, x: PosBraid) -> PosBraid | None:
    """d^{-1} x if d divides x on the left, else None."""
    cur = x
    for i in d.word():
        cur = _strip_atom_left(cur, i)
        if cur is None:
            return None
    return cur


def divides(d: PosBraid, x: PosBraid, side: str = "left") -> bool:
    """Whether d divides x on the given side."""
    if side == "right":
        return divides(braid_reverse(d), braid_reverse(x), "left")
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _quotient_left(d, x) is not None


def cancel(d: PosBraid, x: PosBraid, side: str = "left") -> PosBraid:
    """The quotient with d removed from the given side; ValueError if d
    does not divide x there."""
    if side == "right":
        return braid_reverse(cancel(braid_reverse(d), braid_reverse(x), "left"))
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    q = _quotient_left(d, x)
    if q is None:
        raise ValueError("does not divide")
    return q


def gcd(x: PosBraid, y: PosBraid, side: str = "left") -> PosBraid:
    """Greatest common divisor, by greedy extraction of common atoms.

    Sound by cancellativity: if the atom a divides both, then
    gcd(x, y) = a * gcd(a\\x, a\\y); when no atom is common the gcd is
    trivial (a nontrivial divisor starts with some atom).
    """
    if side == "right":
        return braid_reverse(gcd(braid_reverse(x), braid_reverse(y), "left"))
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    g = x.graph
    letters = []
    cx, cy = x, y
    while cx.factors and cy.factors:
        common = cx.factors[0].left_descents & cy.factors[0].left_descents
        if not common:
            break
        i = min(common)
        letters.append(i)
        cx = _strip_atom_left(cx, i)
        cy = _strip_atom_left(cy, i)
    return braid_from_word(g, letters)


# -- lcm by word reversing -------------------------------------------------


def _alternating(first: str, second: str, n: int) -> tuple:
    return tuple((first, second)[k % 2] for k in range(n))


def reverse_complement(g: CoxeterGraph, u, v, step_bound: int | None = None):
    """Word reversing: returns (u\\v, v\\u) as positive words, or None when
    an infinite label certifies that no common multiple exists.

    The signed word starts as u^{-1} v; each step rewrites the leftmost
    factor a^{-1} b into (a\\b)(b\\a)^{-1}, where for atoms a\\b is the
    alternating word of length m_{ab} - 1 beginning with b (empty if
    a = b).  When no negative-positive pair remains, the word reads
    (u\\v)(v\\u)^{-1}.  Raises StepBudgetExceeded after step_bound steps
    (default: ``default_step_bound(g)``).

    After a rewrite at position k the pairs left of k - 1 are unchanged,
    and none of them was negative-positive, so the scan for the next
    leftmost pair resumes at k - 1 (Dehornoy, "Complete positive group
    presentations", J. Algebra 268, 2003); the rewrite of each letter pair
    is built once per call.
    """
    if step_bound is None:
        step_bound = default_step_bound(g)
    word = [(a, -1) for a in reversed(tuple(u))] + [(b, +1) for b in tuple(v)]
    steps = 0
    rewrites = {}  # (a, b) -> the signed word replacing a^{-1} b
    k = 0  # no negative-positive pair starts left of k
    while True:
        end = len(word) - 1
        while k < end and not (word[k][1] < 0 and word[k + 1][1] > 0):
            k += 1
        if k >= end:
            pos = [a for a, s in word if s > 0]
            neg = [a for a, s in word if s < 0]
            return tuple(pos), tuple(reversed(neg))
        steps += 1
        if steps > step_bound:
            raise StepBudgetExceeded(f"word reversing passed {step_bound} steps")
        a, b = word[k][0], word[k + 1][0]
        rewrite = rewrites.get((a, b))
        if rewrite is None:
            if a == b:
                rewrite = []
            else:
                m = g.m(a, b)
                if is_infinite(m):
                    return None
                rewrite = ([(c, +1) for c in _alternating(b, a, m - 1)]
                           + [(c, -1) for c in reversed(_alternating(a, b, m - 1))])
            rewrites[a, b] = rewrite
        word[k:k + 2] = rewrite
        k = max(k - 1, 0)


def lcm(
    x: PosBraid,
    y: PosBraid,
    side: str = "right",
    step_bound: int | None = None,
) -> PosBraid | None:
    """Least common multiple on the given side, or None when no common
    multiple exists (certified by an infinite label during reversing).

    Raises StepBudgetExceeded if reversing does not settle in the budget
    (default: ``default_step_bound(graph)``).
    """
    if side == "left":
        r = lcm(braid_reverse(x), braid_reverse(y), "right", step_bound)
        return None if r is None else braid_reverse(r)
    if side != "right":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    comp = reverse_complement(x.graph, x.word(), y.word(), step_bound)
    if comp is None:
        return None
    out = multiply(x, braid_from_word(x.graph, comp[0]))
    if not (divides(x, out, "left") and divides(y, out, "left")):  # cheap sanity
        raise RuntimeError("word reversing gave a multiple that one side does not divide")
    return out


def lcm_atoms(g: CoxeterGraph, subset) -> PosBraid | None:
    """lcm of the atoms of a vertex subset J: the lifted longest element
    r_J when the restriction is spherical, else None (no common multiple).
    Purely diagrammatic decision, no search."""
    J = tuple(sorted(set(subset)))
    if not is_spherical(g.restrict(J)):
        return None
    return lift(longest_element(g, J))


# -- fractions -------------------------------------------------------------


class FractionPair(namedtuple("FractionPair", "side first second")):
    """A pair (a, b) with trivial gcd on the stated side, standing for the
    group fraction a^{-1} b (side='left') or a b^{-1} (side='right')."""

    __slots__ = ()


def irreducible_fraction(x: PosBraid, y: PosBraid, side: str = "left") -> FractionPair:
    """Reduce the fraction (x, y) by cancelling gcd(x, y); needs a spherical
    graph (where B+ embeds in its group of fractions)."""
    if not is_spherical(x.graph):
        raise ValueError("irreducible fractions need a spherical graph")
    d = gcd(x, y, side)
    return FractionPair(side, cancel(d, x, side), cancel(d, y, side))


# -- serialization ---------------------------------------------------------


def braid_to_json(x: PosBraid) -> list:
    return [list(canonical_word(f)) for f in x.factors]


def braid_from_json(g: CoxeterGraph, data) -> PosBraid:
    factors = []
    for word in data:
        f = element_from_word(g, word)
        if f.length != len(word):
            raise ValueError(f"factor word {word!r} is not reduced")
        factors.append(f)
    return PosBraid(g, tuple(factors))
