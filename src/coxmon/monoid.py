"""Positive Artin-Tits monoids B+ over a Coxeter graph.

Elements are stored *only* in left-greedy normal form: a tuple of
nontrivial simples (W elements of length equal to their word length) such
that consecutive factors (u, v) satisfy  left_descents(v) subset-of
right_descents(u) — nothing more can be pulled from v into u.  The
``normalize`` factory restores this invariant in two steps.  First, where
the kernel has a ``fuse`` (byte tables), one left-to-right pass fuses each
factor whole into its left neighbour when l(uv) = l(u) + l(v): such a
product is a single simple, and its lift is the product of the lifts.
Then local letter bubbling, exactly the move that strictly shifts length
toward the front, so it terminates.  Both run on raw element data through
the backend's kernel (see ``coxmon.elements``): in the bubbling u is held
as itself and v as v^{-1}, since the left descents of v are the right
descents of v^{-1}; moving the letter i from v into u right-multiplies
both u and v^{-1} by s_i, and only right descent masks are read.  Element
objects are built for the final factors alone, and the braid skips the
checks of ``PosBraid(...)``, left to outside input: see ``normalize``.

The simples form a Garside family (Dehornoy-Digne-Michel, J. Algebra 380,
2013): a simple s left-divides x iff it left-divides the first factor x_1,
which in W reads l(s^{-1} x_1) = l(x_1) - l(s).  So division goes one
normal-form factor of the divisor at a time, with one ``normalize`` of the
quotient per factor but the last, whose quotient only ``cancel`` builds.
Left gcds strip the meet of the two first factors (common left descents
taken greedily in W) from both sides until that meet is trivial; right
lcms come from word reversing with the dihedral complement  i \\ j =
alternating word of length m_{ij} - 1 starting with j (an infinite label
certifies that no common multiple exists), run on two stacks of vertex
indices (see ``reverse_complement``).  Right-handed variants of
everything go through the reversal antiautomorphism
rev(s_{i1} ... s_{ik}) = s_{ik} ... s_{i1}.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .elements import StepBudgetExceeded  # re-exported
from .elements import (
    _not_implemented,
    canonical_word,
    element_from_word,
    generator,
    longest_element,
)
from .exact import _refuse_radd
from .graphs import CoxeterGraph, _checked_replace, is_infinite, is_spherical

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
    """An element of B+ in left-greedy normal form, checked by ``PosBraid(...)``
    for outside input; ``normalize`` and ``lift`` build theirs by ``_make``."""

    __slots__ = ()
    _replace = _checked_replace
    __rmul__ = __add__ = _not_implemented
    __radd__ = _refuse_radd

    def __new__(cls, graph, factors):
        factors = tuple(factors)
        for f in factors:
            if f.graph != graph:
                raise ValueError("factor over another graph")
            if f.backend != factors[0].backend:
                raise ValueError(f"factors of two backends, {factors[0].backend} and {f.backend}")
            if f.is_identity:
                raise ValueError("trivial factor in normal form")
        for u, v in zip(factors, factors[1:]):
            if v.left_mask & ~u.right_mask:
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
        return multiply(self, other) if isinstance(other, PosBraid) else NotImplemented

    def __repr__(self):
        return f"PosBraid({''.join(self.word()) or 'e'})"


# -- construction ----------------------------------------------------------


def braid_identity(g: CoxeterGraph) -> PosBraid:
    return PosBraid._make((g, ()))


def lift(w) -> PosBraid:
    """The simple braid with image w (one normal-form factor)."""
    if w.is_identity:
        return PosBraid._make((w.graph, ()))
    return PosBraid._make((w.graph, (w,)))


def normalize(g: CoxeterGraph, simples) -> PosBraid:
    """Left-greedy normal form of a product of simples (W elements).

    Neighbours whose lengths add are first fused whole, where the kernel
    has a ``fuse``; letters then bubble until a pass finds every neighbour
    pair left-greedy.  With every input's graph checked and every trivial
    factor gone, that is ``PosBraid``'s test, so the result skips it."""
    simples = tuple(simples)
    for f in simples:
        if f.graph != g:  # rebuilt factors would take g's
            raise ValueError("factor over another graph")
        if f.backend != simples[0].backend:  # all are read through one kernel
            raise ValueError(f"factors of two backends, {simples[0].backend} and {f.backend}")
    xs = [f for f in simples if not f.is_identity]
    if not xs:
        return PosBraid._make((g, ()))
    mask, rmul, inverse, element, _, fuse = xs[0].kernel
    # factor k as raw data: fwd[k] of the element, inv[k] of its inverse,
    # either None while stale; xs[k] stays the input element until changed
    if fuse is None:  # the kernel never fuses: letters only
        fwd = [f.data for f in xs]
    else:
        fwd = [xs[0].data]
        kept = [xs[0]]
        for f in xs[1:]:
            uv = fuse(fwd[-1], f.data)
            if uv is None:
                fwd.append(f.data)
                kept.append(f)
            else:
                fwd[-1], kept[-1] = uv, None
        xs = kept
    inv = [None] * len(xs)
    changed = True
    while changed:
        changed = False
        k = 0
        while k + 1 < len(fwd):
            u = fwd[k]
            if u is None:
                u = fwd[k] = inverse(inv[k])
            vi = inv[k + 1]
            if vi is None:
                f = xs[k + 1]
                vi = inv[k + 1] = f.inverse.data if f is not None else inverse(fwd[k + 1])
            left = mask(vi)
            free = left & ~mask(u)
            if not free:
                k += 1
                continue
            changed = True
            while free:
                a = (free & -free).bit_length() - 1
                u = rmul[a](u)
                vi = rmul[a](vi)
                left = mask(vi)
                free = left & ~mask(u)
            fwd[k], inv[k], xs[k] = u, None, None
            if not left:  # v is the identity
                del fwd[k + 1], inv[k + 1], xs[k + 1]
            else:
                fwd[k + 1], inv[k + 1], xs[k + 1] = None, vi, None
                k += 1
    factors = []
    for f, u, ui in zip(xs, fwd, inv):
        if f is None:
            f = element(inverse(ui) if u is None else u, ui)
        factors.append(f)
    return PosBraid._make((g, tuple(factors)))


def braid_from_word(g: CoxeterGraph, letters) -> PosBraid:
    return normalize(g, [generator(g, v) for v in letters])


def _same_kernel(x: PosBraid, y: PosBraid) -> None:
    if x.graph != y.graph:  # each operation reads both through x's kernel
        raise ValueError("braids over different graphs")
    u, v = x.factors[:1], y.factors[:1]
    if u and v and u[0].backend != v[0].backend:
        raise ValueError(f"factors of two backends, {u[0].backend} and {v[0].backend}")


def multiply(x: PosBraid, y: PosBraid) -> PosBraid:
    _same_kernel(x, y)
    return normalize(x.graph, x.factors + y.factors)


def braid_reverse(x: PosBraid) -> PosBraid:
    """The image under rev (write every word backwards); an
    anti-automorphism, so left-handed facts about rev(x) are right-handed
    facts about x."""
    return normalize(x.graph, [f.inverse for f in reversed(x.factors)])


# -- divisibility ----------------------------------------------------------


def _quotient_left(d: PosBraid, x: PosBraid, quotient: bool = True):
    """d^{-1} x if d divides x on the left, else None; with ``quotient``
    false, True in place of d^{-1} x, whose last ``normalize`` is skipped."""
    last = len(d.factors) - 1
    for k, s in enumerate(d.factors):
        if not x.factors:
            return None
        head = x.factors[0]
        q = s.inverse * head
        if q.length != head.length - s.length:
            return None
        if k == last and not quotient:
            return True
        x = normalize(x.graph, (q,) + x.factors[1:])
    return x


def divides(d: PosBraid, x: PosBraid, side: str = "left") -> bool:
    """Whether d divides x on the given side."""
    _same_kernel(d, x)
    if side == "right":
        return divides(braid_reverse(d), braid_reverse(x), "left")
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _quotient_left(d, x, quotient=False) is not None


def cancel(d: PosBraid, x: PosBraid, side: str = "left") -> PosBraid:
    """The quotient with d removed from the given side; ValueError if d
    does not divide x there."""
    _same_kernel(d, x)
    if side == "right":
        return braid_reverse(cancel(braid_reverse(d), braid_reverse(x), "left"))
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    q = _quotient_left(d, x)
    if q is None:
        raise ValueError("does not divide")
    return q


def _head_meet(u, v):
    """For simples u, v: (m, m^{-1} u, m^{-1} v) with m their greatest
    common left divisor in W, or None when it is trivial.  Common left
    descents are taken greedily on the raw data of the inverses, which is
    sound by the same cancellation argument as ``gcd``."""
    mask, rmul, inverse, element, m = u.kernel[:5]  # m starts as the identity
    ui, vi = u.inverse.data, v.inverse.data
    common = mask(ui) & mask(vi)
    if not common:
        return None
    while common:
        a = (common & -common).bit_length() - 1
        m = rmul[a](m)
        ui = rmul[a](ui)
        vi = rmul[a](vi)
        common = mask(ui) & mask(vi)
    return element(m), element(inverse(ui), ui), element(inverse(vi), vi)


def gcd(x: PosBraid, y: PosBraid, side: str = "left") -> PosBraid:
    """Greatest common divisor, one simple at a time.

    Sound by cancellativity: if the simple m divides both, then
    gcd(x, y) = m * gcd(m\\x, m\\y).  Take m the meet in W of the first
    factors; when it is trivial so is the gcd, since a nontrivial divisor
    starts with some atom, and an atom that divides x divides x_1.
    """
    _same_kernel(x, y)
    if side == "right":
        return braid_reverse(gcd(braid_reverse(x), braid_reverse(y), "left"))
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    g = x.graph
    meets = []
    while x.factors and y.factors:
        step = _head_meet(x.factors[0], y.factors[0])
        if step is None:
            break
        m, qx, qy = step
        meets.append(m)
        x = normalize(g, (qx,) + x.factors[1:])
        y = normalize(g, (qy,) + y.factors[1:])
    return normalize(g, meets)


# -- lcm by word reversing -------------------------------------------------


def _alternating(first, second, n: int) -> tuple:
    return tuple((first, second)[k % 2] for k in range(n))


@functools.lru_cache(maxsize=None)
def _push_table(g: CoxeterGraph) -> tuple:
    """What reversing pushes onto its stack of unread letters for the pair
    a^{-1} b, by vertex index: push[a][b] holds b\\a negated (~c for the
    letter c) followed by a\\b reversed, so a\\b is read first; () when
    a = b, None for an infinite label."""
    n = g.rank
    push = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            m = g.matrix[a][b]
            if a == b:
                push[a][b] = ()
            elif not is_infinite(m):
                push[a][b] = (tuple(~c for c in _alternating(a, b, m - 1))
                              + _alternating(b, a, m - 1)[::-1])
    return tuple(map(tuple, push))


def reverse_complement(g: CoxeterGraph, u, v, step_bound: int | None = None):
    """Word reversing: returns (u\\v, v\\u) as positive words, or None when
    an infinite label certifies that no common multiple exists.

    The signed word starts as u^{-1} v; each step rewrites the leftmost
    factor a^{-1} b into (a\\b)(b\\a)^{-1}, where for atoms a\\b is the
    alternating word of length m_{ab} - 1 beginning with b (empty if
    a = b).  When no negative-positive pair remains, the word reads
    (u\\v)(v\\u)^{-1}.  Raises StepBudgetExceeded after step_bound steps
    (default: ``default_step_bound(g)``), ValueError on a non-vertex letter,
    and TypeError or ValueError on a step_bound that is not an int >= 1
    (a bool included), checked once before the first step.

    Left of the leftmost negative-positive pair the word is settled:
    positive letters, then negative ones.  A rewrite at position k keeps
    it settled up to k - 1, so the next leftmost pair is the last settled
    letter with the first letter of the rewrite, or lies further right
    (Dehornoy, "Complete positive group presentations", J. Algebra 268,
    2003).  So the word is held by vertex index as the settled positives
    ``pos``, a stack ``neg`` of the settled negatives and a stack ``rest``
    of the unread letters (i positive, ~i negative, leftmost on top); a
    positive letter read while ``neg`` is nonempty is one step, which
    pushes the rewrite of (top of ``neg``)^{-1} (letter) onto ``rest``.
    These are the leftmost-first steps, one for one.  The rewrites are
    built once per graph (``_push_table``).
    """
    if step_bound is None:
        step_bound = default_step_bound(g)
    elif isinstance(step_bound, bool) or not isinstance(step_bound, int):
        raise TypeError(f"step_bound must be an int, not {type(step_bound).__name__}")
    elif step_bound < 1:
        raise ValueError(f"step_bound must be >= 1, got {step_bound}")
    index = g._index
    push = _push_table(g)
    pos = []
    try:
        neg = [index[a] for a in reversed(tuple(u))]
        rest = [index[b] for b in reversed(tuple(v))]
    except KeyError as e:
        raise ValueError(f"{e.args[0]!r} is not a vertex") from None
    steps = 0
    while rest:
        b = rest.pop()
        if b < 0:
            neg.append(~b)
        elif not neg:
            pos.append(b)
        else:
            steps += 1
            if steps > step_bound:
                raise StepBudgetExceeded(f"word reversing passed {step_bound} steps")
            rewrite = push[neg.pop()][b]
            if rewrite is None:
                return None
            rest += rewrite
    names = g.vertices
    return tuple([names[a] for a in pos]), tuple([names[a] for a in reversed(neg)])


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
    _same_kernel(x, y)
    if side == "left":
        r = lcm(braid_reverse(x), braid_reverse(y), "right", step_bound)
        return None if r is None else braid_reverse(r)
    if side != "right":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    comp = reverse_complement(x.graph, x.word(), y.word(), step_bound)
    if comp is None:
        return None
    g = x.graph
    out = normalize(g, x.factors + tuple([generator(g, v) for v in comp[0]]))
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
