"""Coxeter group elements over a CoxeterGraph, with two exact backends.

The group W acts on the root system of the standard reflection
representation: the generator s_i sends the simple root a_j to
a_j + 2 cos(pi/m_{ij}) a_i for j != i, and a_i to -a_i.

* Spherical graph: the root system is finite, and the action on roots is a
  faithful permutation action.  ``RootPermElement`` stores the image of all
  2P roots as a tuple of indices, where index r < P is a positive root and
  index r + P is its negation.  Composition is tuple indexing through
  ``operator.itemgetter`` (one stored getter per generator row); the length
  of w is the number of positive roots sent to negative roots, and v is a
  left descent exactly when w sends a negative root to a_v, which is read
  off the permutation without building the inverse.

* Any graph: ``MatrixElement`` stores the representation matrix with
  ExactScalar entries; column j holds the coordinates of w(a_j).  A
  generator is a descent exactly when its column is nonpositive, and
  lengths come from the descent walk (peeling descents until the identity),
  guarded by a step ceiling against non-group input.

Both classes expose the same surface: ``gen_left``/``gen_right`` (cheap
one-generator products), ``right_descents``/``left_descents``, ``length``,
``inverse``, ``is_identity``, ``order``.  Products use the convention
(u * v)(x) = u(v(x)), matching words read left to right: the element of the
word (i1, ..., ik) is s_{i1} * ... * s_{ik}.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from operator import itemgetter

from .exact import field_for_modulus
from .graphs import (
    CoxeterGraph,
    is_spherical,
    positive_root_count,
)

DEFAULT_STEP_CEILING = 10_000
DEFAULT_ORDER_BOUND = 10_000


class StepBudgetExceeded(RuntimeError):
    """A search ran out of budget before settling: the descent walk of a
    matrix element, word reversing, or the element enumerations of
    ``fixed_submonoid_check``."""


# -- root systems ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _cos_rows(g: CoxeterGraph) -> tuple:
    """Row a: the pairs (b, 2 cos(pi/m_ab)), b != a, with a nonzero entry."""
    field = field_for_modulus(g.modulus)
    return tuple(
        tuple((b, c) for b, m in enumerate(row) if b != a and (c := field.two_cos(m)))
        for a, row in enumerate(g.matrix)
    )


class RootSystem(namedtuple(
        "RootSystem", "n_positive simple_index action getters identity")):
    """Permutation tables of the finite root system of a spherical graph;
    root r < P is the r-th sorted positive root, root r + P its negation.

    ``simple_index`` maps a vertex to the root index of its simple root,
    ``action[a][r]`` is the index of s_{v_a}(root r), ``getters[a](perm)``
    is perm composed with ``action[a]``, and ``identity`` is the identity
    permutation of the 2P roots."""

    __slots__ = ()


def _reflect(cos_row, a: int, vec):
    """Apply the generator at vertex position a to a coordinate vector."""
    new_a = -vec[a]
    for b, c in cos_row:
        x = vec[b]
        if x:
            new_a = new_a + c * x
    return vec[:a] + (new_a,) + vec[a + 1:]


@functools.lru_cache(maxsize=None)
def root_system(g: CoxeterGraph) -> RootSystem:
    """The positive roots as the closure of the simple roots under the
    reflections: s_a sends a_a to -a_a and permutes the other positive
    roots (Humphreys, Reflection Groups and Coxeter Groups, Prop. 1.4), so
    each image is computed once and no sign test is needed."""
    if not is_spherical(g):
        raise ValueError("root_system needs a spherical graph")
    rows = _cos_rows(g)
    roots = list(identity_element(g, "matrix").matrix)  # the simple roots
    found = {v: k for k, v in enumerate(roots)}
    images = []  # images[k][a] = found index of s_a(root k); None for -a_a
    for k, vec in enumerate(roots):  # roots grows while it is scanned
        row = []
        for a, cos_row in enumerate(rows):
            img = _reflect(cos_row, a, vec) if k != a else None
            if img is not None and img not in found:
                found[img] = len(roots)
                roots.append(img)
            row.append(found.get(img))
        images.append(row)
    P = len(roots)
    if P != positive_root_count(g):
        raise RuntimeError(f"{P} positive roots, against {positive_root_count(g)}")
    order = sorted(range(P), key=lambda k: tuple(c.coeffs for c in roots[k]))
    pos = {k: r for r, k in enumerate(order)}
    action = []
    for a in range(g.rank):
        half = [r + P if images[k][a] is None else pos[images[k][a]]
                for r, k in enumerate(order)]
        action.append(tuple(half + [(x + P) % (2 * P) for x in half]))
    simple_index = {v: pos[a] for a, v in enumerate(g.vertices)}
    return RootSystem(P, simple_index, tuple(action),
                      tuple(itemgetter(*row) for row in action), tuple(range(2 * P)))


# -- permutation backend ---------------------------------------------------


class _cached:
    """``functools.cached_property`` without its lock (which 3.11 takes on
    every first access): the value goes into the instance ``__dict__`` and
    shadows this non-data descriptor from then on."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class RootPermElement(namedtuple("RootPermElement", "graph perm rs")):
    """An element as a permutation of the roots.  Equality, hash and repr
    read only ``graph`` and ``perm``: ``rs`` is the graph's RootSystem."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.perm == other.perm and self.graph == other.graph
        return NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return self.perm != other.perm or self.graph != other.graph
        return NotImplemented

    def __hash__(self):
        return hash((self.graph, self.perm))

    def __repr__(self):
        return f"RootPermElement(graph={self.graph!r}, perm={self.perm!r})"

    def __mul__(self, other: "RootPermElement") -> "RootPermElement":
        if other.graph != self.graph:
            raise ValueError("product of elements over different graphs")
        perm = itemgetter(*other.perm)(self.perm) if other.perm else ()
        return RootPermElement(self.graph, perm, self.rs)

    def gen_left(self, v: str) -> "RootPermElement":
        row = self.rs.action[self.graph._index[v]]
        return RootPermElement(self.graph, itemgetter(*self.perm)(row), self.rs)

    def gen_right(self, v: str) -> "RootPermElement":
        get = self.rs.getters[self.graph._index[v]]
        return RootPermElement(self.graph, get(self.perm), self.rs)

    @property
    def is_identity(self) -> bool:
        return self.perm == self.rs.identity

    @_cached
    def length(self) -> int:
        P = self.rs.n_positive
        return sum(1 for r in range(P) if self.perm[r] >= P)

    @_cached
    def inverse(self) -> "RootPermElement":
        inv = [0] * len(self.perm)
        for r, x in enumerate(self.perm):
            inv[x] = r
        return RootPermElement(self.graph, tuple(inv), self.rs)

    @_cached
    def right_descents(self) -> frozenset:
        P = self.rs.n_positive
        si = self.rs.simple_index
        return frozenset(v for v in self.graph.vertices if self.perm[si[v]] >= P)

    @_cached
    def left_descents(self) -> frozenset:
        # v is a left descent iff w^{-1}(a_v) is negative
        P = self.rs.n_positive
        si = self.rs.simple_index
        index = self.perm.index
        return frozenset(v for v in self.graph.vertices if index(si[v]) >= P)

    def order(self, bound: int = DEFAULT_ORDER_BOUND) -> int:
        """Exact order: the action on roots is faithful, so this is the lcm
        of the cycle lengths (returned even when it exceeds the bound)."""
        seen = [False] * len(self.perm)
        out = 1
        for r in range(len(self.perm)):
            if not seen[r]:
                n, x = 0, r
                while not seen[x]:
                    seen[x] = True
                    x = self.perm[x]
                    n += 1
                out = math.lcm(out, n)
        return out


# -- matrix backend --------------------------------------------------------


class MatrixElement(namedtuple("MatrixElement", "graph matrix")):
    """An element as its representation matrix: a tuple of rows of
    ExactScalar, column j the image of a_j."""

    def __mul__(self, other: "MatrixElement") -> "MatrixElement":
        if other.graph != self.graph:
            raise ValueError("product of elements over different graphs")
        n = self.graph.rank
        zero = field_for_modulus(self.graph.modulus).zero
        a, b = self.matrix, other.matrix
        out = []
        for r in range(n):
            ar = a[r]
            row = []
            for c in range(n):
                acc = zero
                for k in range(n):
                    x = ar[k]
                    if x and b[k][c]:
                        acc = acc + x * b[k][c]
                row.append(acc)
            out.append(tuple(row))
        return MatrixElement(self.graph, tuple(out))

    def gen_left(self, v: str) -> "MatrixElement":
        """s_v * self: only row a changes."""
        a = self.graph._index[v]
        row_a = _cos_rows(self.graph)[a]
        mat = self.matrix
        new_row = []
        for c in range(self.graph.rank):
            acc = -mat[a][c]
            for k, x in row_a:
                y = mat[k][c]
                if y:
                    acc = acc + x * y
            new_row.append(acc)
        return MatrixElement(self.graph, mat[:a] + (tuple(new_row),) + mat[a + 1:])

    def gen_right(self, v: str) -> "MatrixElement":
        """self * s_v: column a flips sign, and every other column c gains
        cos(a,c) times the old column a."""
        a = self.graph._index[v]
        row_a = _cos_rows(self.graph)[a]
        rows = []
        for old in self.matrix:
            row = list(old)
            row[a] = -old[a]
            if old[a]:
                for c, x in row_a:
                    row[c] = old[c] + x * old[a]
            rows.append(tuple(row))
        return MatrixElement(self.graph, tuple(rows))

    @property
    def is_identity(self) -> bool:
        return self.matrix == identity_element(self.graph, "matrix").matrix

    @functools.cached_property
    def right_descents(self) -> frozenset:
        out = []
        for j, v in enumerate(self.graph.vertices):
            signs = {row[j].sign() for row in self.matrix} - {0}
            # a column is the image of a simple root: never zero or mixed-sign
            if not signs:
                raise ValueError(f"zero column {v}: not a group element")
            if len(signs) > 1:
                raise ValueError(f"mixed-sign column {v}: not a group element")
            if signs == {-1}:
                out.append(v)
        return frozenset(out)

    def reduced_word(self, step_ceiling: int | None = None) -> tuple:
        """Some reduced word for self, by peeling least right descents.

        Raises if the walk does not reach the identity within the ceiling
        (which for genuine group elements it always does, in length steps).
        """
        cached = self.__dict__.get("_rword")
        if cached is not None:
            return cached
        ceiling = DEFAULT_STEP_CEILING if step_ceiling is None else step_ceiling
        cur, letters = self, []
        for _ in range(ceiling + 1):
            if cur.is_identity:
                word = tuple(reversed(letters))
                self.__dict__["_rword"] = word
                return word
            j = min(cur.right_descents)
            letters.append(j)
            cur = cur.gen_right(j)
        raise StepBudgetExceeded(f"descent walk exceeded {ceiling} steps")

    @property
    def length(self) -> int:
        return len(self.reduced_word())

    @functools.cached_property
    def inverse(self) -> "MatrixElement":
        out = identity_element(self.graph, "matrix")
        for v in reversed(self.reduced_word()):
            out = out.gen_right(v)
        return out

    @functools.cached_property
    def left_descents(self) -> frozenset:
        return self.inverse.right_descents

    def order(self, bound: int = DEFAULT_ORDER_BOUND) -> int | None:
        """Smallest n >= 1 with w^n = 1, or None if none exists <= bound."""
        cur = self
        for n in range(1, bound + 1):
            if cur.is_identity:
                return n
            cur = cur * self
        return None


# -- public operations -----------------------------------------------------


def pick_backend(g: CoxeterGraph, backend: str | None = None) -> str:
    if backend is None:
        return "perm" if is_spherical(g) else "matrix"
    if backend not in ("perm", "matrix"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "perm" and not is_spherical(g):
        raise ValueError("permutation backend needs a spherical graph")
    return backend


@functools.lru_cache(maxsize=None)
def identity_element(g: CoxeterGraph, backend: str | None = None):
    """The identity of W, as a permutation over a spherical graph and as a
    matrix otherwise.  Every element built from it keeps its backend, so
    the choice is made here once per graph; an explicit ``backend`` only
    serves to compare the two routes."""
    if pick_backend(g, backend) == "perm":
        rs = root_system(g)
        return RootPermElement(g, rs.identity, rs)
    field = field_for_modulus(g.modulus)
    n = g.rank
    return MatrixElement(g, tuple(
        tuple(field.one if r == c else field.zero for c in range(n))
        for r in range(n)
    ))


def element_from_word(g: CoxeterGraph, word):
    """The element s_{i1} ... s_{ik} of the word (i1, ..., ik)."""
    w = identity_element(g)
    for v in word:
        if v not in g._index:
            raise ValueError(f"{v!r} is not a vertex")
        w = w.gen_right(v)
    return w


def generator(g: CoxeterGraph, v: str):
    return element_from_word(g, (v,))


def length(w) -> int:
    return w.length


def descents(w, side: str = "right") -> frozenset:
    if side == "right":
        return w.right_descents
    if side == "left":
        return w.left_descents
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def canonical_word(w) -> tuple:
    """The lexicographically least reduced word, by the least-left-descent
    recursion.  Deterministic; used for serialization and hashing words."""
    cached = w.__dict__.get("_canon")
    if cached is not None:
        return cached
    cur, inv = w, w.inverse
    letters = []
    while not cur.is_identity:
        i = min(inv.right_descents)  # left descents of cur, cheaply
        letters.append(i)
        cur = cur.gen_left(i)
        inv = inv.gen_right(i)
    out = tuple(letters)
    w.__dict__["_canon"] = out
    return out


def support(w) -> frozenset:
    """Letters occurring in reduced words of w (independent of the word)."""
    return frozenset(canonical_word(w))


def longest_element(g: CoxeterGraph, subset=None):
    """Longest element r_J of the standard parabolic W_J, J spherical.

    Greedy ascent: repeatedly right-multiply by the least generator of J
    that is not yet a right descent.  Strictly length-increasing, so it
    terminates at r_J in exactly l(r_J) steps.
    """
    J = tuple(sorted(g.vertices if subset is None else set(subset)))
    bound = positive_root_count(g.restrict(J))
    if bound is None:
        raise ValueError("longest element needs a spherical subset")
    w = identity_element(g)
    for _ in range(bound + 1):
        free = [j for j in J if j not in w.right_descents]
        if not free:
            return w
        w = w.gen_right(free[0])
    raise AssertionError("ascent did not stop at the classification bound")


def order_of(w, bound: int = DEFAULT_ORDER_BOUND) -> int | None:
    """Order of w; exact for the permutation backend, power iteration up to
    the bound (then None) for the matrix backend."""
    return w.order(bound)


def is_compatible(g: CoxeterGraph, blocks) -> bool:
    """Whether l(r_{B1} ... r_{Bk}) equals l(r_{B1}) + ... + l(r_{Bk}).

    Each block must span a spherical subgraph.  This is the letter-additivity
    test used throughout the admissibility machinery.
    """
    total = 0
    w = identity_element(g)
    for block in blocks:
        r = longest_element(g, block)
        total += r.length
        w = w * r
    if isinstance(w, MatrixElement):
        return len(w.reduced_word(step_ceiling=10 * (total + 1))) == total
    return w.length == total


# -- word-level oracle (independent of the backends above) -----------------


def _braid_moves(g: CoxeterGraph):
    # iterate over all vertex pairs, not just the drawn edges: m = 2 is
    # the commutation move, and dropping it leaves the closure incomplete
    moves = []
    for a_i in range(len(g.vertices)):
        for b_i in range(a_i + 1, len(g.vertices)):
            i, j = g.vertices[a_i], g.vertices[b_i]
            m = g.m(i, j)
            if math.isinf(m):
                continue
            a = tuple((i, j)[k % 2] for k in range(m))
            b = tuple((j, i)[k % 2] for k in range(m))
            moves.append((a, b))
            moves.append((b, a))
    return moves


def _braid_closure(g: CoxeterGraph, word, max_states: int):
    moves = _braid_moves(g)
    word = tuple(word)
    seen = {word}
    frontier = [word]
    while frontier:
        new = []
        for w in frontier:
            for pat, rep in moves:
                L = len(pat)
                for k in range(len(w) - L + 1):
                    if w[k:k + L] == pat:
                        img = w[:k] + rep + w[k + L:]
                        if img not in seen:
                            if len(seen) >= max_states:
                                raise RuntimeError(
                                    "braid-move closure exceeded the state ceiling"
                                )
                            seen.add(img)
                            new.append(img)
        frontier = new
    return seen


def word_reduce(g: CoxeterGraph, word, max_states: int = 200_000):
    """A canonical reduced word for the group element of ``word``.

    Tits: repeatedly close under braid moves; if any equivalent word has an
    adjacent equal pair, delete the pair and start over.  The final closure
    is the full set of reduced words; return its lexicographic minimum.
    """
    word = tuple(word)
    while True:
        closure = _braid_closure(g, word, max_states)
        shorter = None
        for w in closure:
            for k in range(len(w) - 1):
                if w[k] == w[k + 1]:
                    shorter = w[:k] + w[k + 2:]
                    break
            if shorter is not None:
                break
        if shorter is None:
            return min(closure)
        word = shorter


def tits_oracle(g: CoxeterGraph, word1, word2, max_states: int = 200_000) -> bool:
    """Word-level equality in W, by rewriting only (no linear algebra)."""
    return word_reduce(g, word1, max_states) == word_reduce(g, word2, max_states)
