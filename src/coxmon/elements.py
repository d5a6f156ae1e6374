"""Coxeter group elements over a CoxeterGraph, with two exact backends.

The group W acts on the root system of the standard reflection
representation: the generator s_i sends the simple root a_j to
a_j + 2 cos(pi/m_{ij}) a_i for j != i, and a_i to -a_i.

* Spherical graph: the root system is finite, and the action on roots is a
  faithful permutation action.  ``RootPermElement`` stores the image of all
  2P roots as a table of indices, where index r < P is a positive root and
  index r + P is its negation.  When 2P <= 256 (E8 has P = 120, and A_n,
  B_n, D_n and I2(m) qualify up to n = 15, 11, 11 and m = 128) the table is
  ``bytes``, padded to 256 entries with the identity, so that
  ``bytes.translate`` composes two permutations and ``bytes.maketrans``
  inverts one in C; larger root systems keep tuples, composed through
  ``operator.itemgetter``.  ``root_system`` reads the tables off
  ``small_roots``, whose breadth-first order puts the simple roots first,
  picks the form once per graph, from the root count, and hands the element
  code the operations of that form.  The length of w is the number of
  positive roots sent to negative roots, and the vertex at index a is a
  right descent exactly when w sends root a, its simple root, to a negative
  root.

* Any graph: ``MatrixElement`` stores the representation matrix with
  ExactScalar entries; column j holds the coordinates of w(a_j).  A product
  reads only what its right factor holds, from a table of its columns built
  once per element: a column whose one nonzero entry is 1 or -1 (row k)
  copies or negates column k of the left factor, as most columns of a
  longest element r_B do (r_B sends a_j to -a_sigma(j) for j in B), and
  every other entry sums the unreduced polynomial products of a row with the
  column's nonzero entries, as trimmed coefficient tuples, and is reduced
  mod Psi_N once (``CosField.dot``).  A generator is a descent exactly when
  its column is nonpositive.  ``right_mask`` reads the sign of every entry,
  so it also refuses a zero or mixed-sign column, which no group element
  has.

The longest element r_J of a spherical parabolic is built once per graph and
set J, and shared by every caller.

Descent sets are int bitmasks over the vertex index (bit a for
``graph.vertices[a]``, so the least set bit is the least vertex); the left
mask of w is the right mask of w^{-1}, and ``right_descents`` /
``left_descents`` are the same sets as frozensets of vertex names.  Each
backend also offers operations on raw element data (a permutation table,
or matrix rows), gathered per graph in a ``Kernel``: the right descent
mask, right multiplication by the generator at each vertex index, the
inverse, and ``fuse``, the product of two elements whose lengths add,
beside the identity's data ``one``, which lives there alone.  Only byte
tables fuse, where the test runs in C and is cheaper than the letter moves
it saves; elsewhere ``fuse`` is None.  One descent walk on a kernel,
``_peel``, peels least right descents until the data is ``one``; canonical
words, and the lengths and inverses of matrices, come from it, and its
step ceiling stops a matrix that is not a group element.  A group element
is the identity exactly when its mask is 0, so the monoid's ``normalize``
walks down on masks alone.

Both classes expose the same surface: ``gen_left``/``gen_right``,
``right_descents``/``left_descents`` and their masks, ``length``,
``inverse``, ``is_identity``, ``order``.  Products use the convention
(u * v)(x) = u(v(x)), matching words read left to right: the element of
the word (i1, ..., ik) is s_{i1} * ... * s_{ik}.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from operator import itemgetter

from .exact import _refuse_radd, field_for_modulus, poly_trim
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
        "RootSystem", "n_positive action rmul identity translate inverse length")):
    """Permutation tables of the finite root system of a spherical graph;
    root r < P is the r-th positive root in the breadth-first order of
    ``small_roots``, whose first roots are the simple roots in vertex order,
    and root r + P is its negation.

    A permutation is a ``bytes`` table padded to 256 entries with the
    identity when 2P <= 256, and a tuple of the 2P images otherwise.
    ``action[a]`` is the permutation of the generator at vertex index a
    (``action[a][r]`` is the index of s_{v_a}(root r)), ``rmul[a](perm)`` is
    perm composed with ``action[a]`` (right multiplication by that
    generator), and ``identity`` is the identity permutation.  The three
    other fields are the operations of the table form: ``translate(p, q)``
    is the permutation r -> q[p[r]] of the product q * p, ``inverse(perm)``
    the inverse permutation and ``length(perm)`` the number of positive
    roots sent to negative roots."""

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
    """The permutation tables of the positive roots, read off the index maps
    of ``small_roots``: over a spherical graph every positive root is small,
    and s_a sends a_a to -a_a and permutes the other positive roots
    (Humphreys, Reflection Groups and Coxeter Groups, Prop. 1.4), so -1
    stands in ``maps[a]`` at root a alone.  The tables are 256-byte
    ``bytes`` when 2P <= 256 and tuples otherwise."""
    if not is_spherical(g):
        raise ValueError("root_system needs a spherical graph")
    maps = small_roots(g)
    P = len(maps[0]) if maps else 0
    if P != positive_root_count(g):
        raise RuntimeError(f"{P} positive roots, against {positive_root_count(g)}")
    action = []
    for a, images in enumerate(maps):
        half = [a + P if x < 0 else x for x in images]
        action.append(half + [(x + P) % (2 * P) for x in half])
    if 2 * P <= 256:
        return _byte_root_system(P, action)
    return _tuple_root_system(P, action)


@functools.lru_cache(maxsize=None)
def small_roots(g: CoxeterGraph) -> tuple:
    """The small roots E of any graph, as one index map per vertex index a:
    ``maps[a][k]`` is the index of s_a(root k) when that root is small, and
    -1 otherwise.  Roots 0 ... rank-1 are the simple roots, in vertex order.

    E is finite, and N(w) = {b > 0 : w(b) < 0} meets it in a set that
    decides every right descent of w and follows w letter by letter through
    these maps (Brink and Howlett, Math. Ann. 296, 1993; Björner and
    Brenti, Combinatorics of Coxeter Groups, sections 4.7-4.8).  E grows
    from the simple roots in one breadth-first pass: s_a(b) joins when b is
    small and -1 < B(a_a, b) < 0, that is 0 < s_a(b)_a - b_a < 2, since
    here s_a(b) = b - 2 B(a_a, b) a_a.  Over a spherical graph E is every
    positive root."""
    rows = _cos_rows(g)
    field = field_for_modulus(g.modulus)
    roots = [tuple(field.one if r == c else field.zero for c in range(g.rank))
             for r in range(g.rank)]
    found = {v: k for k, v in enumerate(roots)}
    spherical = positive_root_count(g) is not None  # every positive root is small
    images = []  # images[k][a] = s_a(root k), looked up once E is whole
    for k, vec in enumerate(roots):  # roots grows while it is scanned
        row = []
        for a, cos_row in enumerate(rows):
            img = _reflect(cos_row, a, vec)
            if k != a and img not in found:  # s_a(a_a) = -a_a
                rise = img[a] - vec[a]
                if rise.sign() > 0 and (spherical or (rise - 2).sign() < 0):
                    found[img] = len(roots)
                    roots.append(img)
            row.append(img)
        images.append(row)
    return tuple(tuple(found.get(row[a], -1) for row in images) for a in range(g.rank))


_BYTE_IDENTITY = bytes(range(256))


def _byte_inverse(perm: bytes) -> bytes:
    return bytes.maketrans(perm, _BYTE_IDENTITY)


def _byte_root_system(P: int, action: list) -> RootSystem:
    """Permutations as 256-byte tables: ``q.translate(p)`` reads q through
    p, and the padding past 2P is fixed by every table."""
    action = tuple(bytes(row) + _BYTE_IDENTITY[2 * P:] for row in action)
    negative = bytes(P) + b"\x01" * P + bytes(256 - 2 * P)

    def length(perm: bytes) -> int:
        return perm[:P].translate(negative).count(1)

    return RootSystem(P, action, tuple(row.translate for row in action),
                      _BYTE_IDENTITY, bytes.translate, _byte_inverse, length)


def _tuple_translate(perm: tuple, table: tuple) -> tuple:
    return itemgetter(*perm)(table)


def _tuple_inverse(perm: tuple) -> tuple:
    inv = [0] * len(perm)
    for r, x in enumerate(perm):
        inv[x] = r
    return tuple(inv)


def _tuple_root_system(P: int, action: list) -> RootSystem:
    """Permutations as tuples of the 2P images, for more than 256 roots."""
    action = tuple(tuple(row) for row in action)

    def length(perm: tuple) -> int:
        return sum(1 for r in range(P) if perm[r] >= P)

    return RootSystem(P, action, tuple(itemgetter(*row) for row in action),
                      tuple(range(2 * P)), _tuple_translate, _tuple_inverse, length)


# -- descents and raw operations -------------------------------------------


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


def _mask_set(g: CoxeterGraph, mask: int) -> frozenset:
    return frozenset(v for a, v in enumerate(g.vertices) if mask >> a & 1)


def _not_implemented(self, other):
    """Refuse a tuple operator that an element or a braid would inherit."""
    return NotImplemented


def _refuse_product(x, other):
    """A product whose factors do not match: NotImplemented (so TypeError)
    for a non-element, else the ValueError that names the mismatch."""
    if not isinstance(other, _Element):
        return NotImplemented
    if other.graph != x.graph:
        raise ValueError("product of elements over different graphs")
    raise ValueError(f"product of a {x.backend} and a {other.backend} element")


class _Element:
    """What both backends share: the raw data, the kernel, the inverse
    (cached, built by the kernel) and the descent sets read off the masks."""

    __slots__ = ()
    __rmul__ = __add__ = _not_implemented
    __radd__ = _refuse_radd

    # the raw data is the second field of both records: ``perm``, ``matrix``
    data = property(itemgetter(1))

    @property
    def kernel(self) -> "Kernel":
        return kernel(self.graph, self.backend)

    @_cached
    def right_mask(self) -> int:
        return self.kernel.mask(self.data)

    @_cached
    def inverse(self):
        kern = self.kernel
        return kern.element(kern.inverse(self.data))

    @_cached
    def left_mask(self) -> int:
        return self.inverse.right_mask

    @_cached
    def right_descents(self) -> frozenset:
        return _mask_set(self.graph, self.right_mask)

    @_cached
    def left_descents(self) -> frozenset:
        return _mask_set(self.graph, self.left_mask)


# -- permutation backend ---------------------------------------------------


def _perm_mask(rs: RootSystem):
    """The right descent mask of a permutation: bit a is set when it sends
    root a, the simple root of vertex a, to a negative root."""
    P = rs.n_positive
    bits = tuple((1 << a, a) for a in range(len(rs.action)))

    def mask(perm) -> int:
        m = 0
        for bit, r in bits:
            if perm[r] >= P:
                m |= bit
        return m

    return mask


def _perm_fuse(rs: RootSystem):
    """The kernel's ``fuse`` on permutations.  Lengths add exactly when
    every positive root that v sends to a negative root stays negative
    under uv: such a root b leaves the inversions of uv exactly when u
    sends -v(b) to a negative root, and l(uv) = l(u) + l(v) minus twice the
    number of those.  On a byte table, v's images of the positive roots
    lose the positive ones, go through u, lose the negative ones, and must
    leave nothing, all in C.  On tuple tables that test is a Python loop,
    so they get no ``fuse``: None."""
    P = rs.n_positive
    if not isinstance(rs.identity, bytes):
        return None
    positive, negative = bytes(range(P)), bytes(range(P, 256))

    def fuse(u, v):
        if v[:P].translate(u, positive).translate(None, negative):
            return None
        return v.translate(u)

    return fuse


class RootPermElement(_Element, namedtuple("RootPermElement", "graph perm rs")):
    """An element as a permutation of the roots.  Equality, hash and repr
    read only ``graph`` and ``perm``: ``rs`` is the graph's RootSystem."""

    backend = "perm"

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
        if other.__class__ is not RootPermElement or other.graph != self.graph:
            return _refuse_product(self, other)
        return RootPermElement(self.graph, self.rs.translate(other.perm, self.perm), self.rs)

    def gen_left(self, v: str) -> "RootPermElement":
        return identity_element(self.graph, self.backend).gen_right(v) * self

    def gen_right(self, v: str) -> "RootPermElement":
        rmul = self.rs.rmul[self.graph._index[v]]
        return RootPermElement(self.graph, rmul(self.perm), self.rs)

    @property
    def is_identity(self) -> bool:
        return self.perm == self.rs.identity

    @_cached
    def length(self) -> int:
        return self.rs.length(self.perm)

    def order(self, bound: int = DEFAULT_ORDER_BOUND) -> int:
        """Exact order: the action on roots is faithful, so this is the lcm
        of the cycle lengths (returned even when it exceeds the bound)."""
        n_roots = 2 * self.rs.n_positive
        seen = [False] * n_roots
        out = 1
        for r in range(n_roots):
            if not seen[r]:
                n, x = 0, r
                while not seen[x]:
                    seen[x] = True
                    x = self.perm[x]
                    n += 1
                out = math.lcm(out, n)
        return out


# -- matrix backend --------------------------------------------------------


def _matrix_mask(g: CoxeterGraph, rows) -> int:
    m = 0
    for j, v in enumerate(g.vertices):
        signs = {row[j].sign() for row in rows} - {0}
        # a column is the image of a simple root: never zero or mixed-sign
        if not signs:
            raise ValueError(f"zero column {v}: not a group element")
        if len(signs) > 1:
            raise ValueError(f"mixed-sign column {v}: not a group element")
        if signs == {-1}:
            m |= 1 << j
    return m


def _matrix_rmul(g: CoxeterGraph, rows, a: int) -> tuple:
    """rows * s_a: column a flips sign, and every other column c gains
    cos(a,c) times the old column a."""
    row_a = _cos_rows(g)[a]
    out = []
    for old in rows:
        row = list(old)
        row[a] = -old[a]
        if old[a]:
            for c, x in row_a:
                row[c] = old[c] + x * old[a]
        out.append(tuple(row))
    return tuple(out)


class MatrixElement(_Element, namedtuple("MatrixElement", "graph matrix")):
    """An element as its representation matrix: a tuple of rows of
    ExactScalar, column j the image of a_j."""

    backend = "matrix"

    @_cached
    def _columns(self) -> tuple:
        """Each column as the right factor of a product reads it: (k, 1) or
        (k, -1) when its one nonzero entry is 1 or -1, in row k, and
        otherwise (None, pairs), pairs the (k, trimmed coefficient tuple)
        of its nonzero entries."""
        out = []
        for col in zip(*self.matrix):
            pairs = [(k, poly_trim(e.coeffs)) for k, e in enumerate(col) if e]
            if len(pairs) == 1 and pairs[0][1] in ((1,), (-1,)):
                out.append((pairs[0][0], pairs[0][1][0]))
            else:
                out.append((None, tuple(pairs)))
        return tuple(out)

    def __mul__(self, other: "MatrixElement") -> "MatrixElement":
        if other.__class__ is not MatrixElement or other.graph != self.graph:
            return _refuse_product(self, other)
        dot = field_for_modulus(self.graph.modulus).dot
        cols = other._columns
        out = []
        for row in self.matrix:
            xs = [e.coeffs if e else () for e in row]  # () for a zero entry
            out.append(tuple([
                dot([(xs[j], y) for j, y in pairs]) if k is None
                else row[k] if pairs == 1 else -row[k]
                for k, pairs in cols]))
        return MatrixElement(self.graph, tuple(out))

    def gen_left(self, v: str) -> "MatrixElement":
        """s_v * self, as a full product."""
        return identity_element(self.graph, self.backend).gen_right(v) * self

    def gen_right(self, v: str) -> "MatrixElement":
        return MatrixElement(self.graph,
                             _matrix_rmul(self.graph, self.matrix, self.graph._index[v]))

    @property
    def is_identity(self) -> bool:
        return self.matrix == self.kernel.one

    @_cached
    def length(self) -> int:
        """The number of steps of the descent walk down to the identity."""
        return len(_peel(self.kernel, self.matrix))

    def order(self, bound: int = DEFAULT_ORDER_BOUND) -> int | None:
        """Smallest n >= 1 with w^n = 1, or None if none exists <= bound."""
        cur = self
        for n in range(1, bound + 1):
            if cur.is_identity:
                return n
            cur = cur * self
        return None


# -- raw kernels -----------------------------------------------------------


class Kernel(namedtuple("Kernel", "mask rmul inverse element one fuse")):
    """The raw operations of one backend over one graph, on element data:
    ``mask(data)`` is the right descent mask, ``rmul[a](data)`` the data of
    w * s_{vertices[a]} (one callable per vertex index: the root system's
    ``rmul``, or ``_matrix_rmul`` bound to the graph and a), ``inverse(data)``
    the data of w^{-1}, and ``element(data, inv=None)`` builds the element,
    with its inverse cached when the data of the inverse is given.  ``one``
    is the identity's data: the root system's table, or rows built once.
    ``fuse(u, v)`` is the data of u * v when l(uv) = l(u) + l(v), and None
    otherwise; ``fuse`` itself is None where that test costs more than the
    letter moves it saves: on tuple tables and matrices."""

    __slots__ = ()


def _peel(kern: Kernel, data, ceiling: int = DEFAULT_STEP_CEILING) -> list:
    """The vertex indices a1, ..., ak of the least right descents peeled off
    ``data`` until it equals ``kern.one``, the identity's: w s_a1 ... s_ak = 1,
    so k is the length of w and the letters spell a reduced word of w^{-1}.
    Raises past ``ceiling`` steps, which a group element never reaches
    before its length."""
    mask, rmul, one = kern.mask, kern.rmul, kern.one
    letters = []
    for _ in range(ceiling + 1):
        if data == one:
            return letters
        m = mask(data)
        a = (m & -m).bit_length() - 1
        letters.append(a)
        data = rmul[a](data)
    raise StepBudgetExceeded(f"descent walk exceeded {ceiling} steps")


@functools.lru_cache(maxsize=None)
def kernel(g: CoxeterGraph, backend: str) -> Kernel:
    """The kernel of the ``backend`` ("perm" or "matrix") over g."""
    if pick_backend(g, backend) == "perm":
        rs = root_system(g)

        def make(perm):
            return RootPermElement(g, perm, rs)

        ops = (_perm_mask(rs), rs.rmul, rs.inverse)
        one = rs.identity
        fuse = _perm_fuse(rs)
    else:
        def make(rows):
            return MatrixElement(g, rows)

        def inverse_rows(rows):
            out = one
            for a in _peel(kern, rows):
                out = _matrix_rmul(g, out, a)
            return out

        ops = (functools.partial(_matrix_mask, g),
               tuple(functools.partial(_matrix_rmul, g, a=a) for a in range(g.rank)),
               inverse_rows)
        field = field_for_modulus(g.modulus)
        one = tuple(tuple(field.one if r == c else field.zero for c in range(g.rank))
                    for r in range(g.rank))

        fuse = None  # a matrix length is a whole walk

    def element(data, inv=None):
        w = make(data)
        if inv is not None:
            # one way only: a link back would make a reference cycle, which
            # only the cyclic collector frees
            w.__dict__["inverse"] = make(inv)
        return w

    kern = Kernel(*ops, element, one, fuse)
    return kern


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
    matrix otherwise: the element of the kernel's ``one``.  Every element
    built from it keeps its backend, so the choice is made here once per
    graph; an explicit ``backend`` only serves to compare the two routes."""
    kern = kernel(g, pick_backend(g, backend))
    return kern.element(kern.one)


def element_from_word(g: CoxeterGraph, word):
    """The element s_{i1} ... s_{ik} of the word (i1, ..., ik)."""
    w = identity_element(g)
    for v in word:
        if v not in g._index:
            raise ValueError(f"{v!r} is not a vertex")
        w = w.gen_right(v)
    return w


@functools.lru_cache(maxsize=None)
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
    recursion.  Deterministic; used for serialization and hashing words.

    Walked on the inverse alone: the left descents of cur are the right
    descents of cur^{-1}, and s_i * cur has inverse cur^{-1} * s_i.  The
    walk stops when the data of cur^{-1} equals the kernel's ``one``, not
    when its mask is 0: a matrix with no descent that is no group element
    is not taken for the identity, and runs into the step ceiling."""
    cached = w.__dict__.get("_canon")
    if cached is not None:
        return cached
    vertices = w.graph.vertices
    out = tuple([vertices[a] for a in _peel(w.kernel, w.inverse.data)])
    w.__dict__["_canon"] = out
    return out


def support(w) -> frozenset:
    """Letters occurring in reduced words of w (independent of the word)."""
    return frozenset(canonical_word(w))


def longest_element(g: CoxeterGraph, subset=None):
    """Longest element r_J of the standard parabolic W_J, J spherical (all
    of g when subset is None); one shared object per graph and set J."""
    return _longest_element(g, tuple(sorted(g.vertices if subset is None else set(subset))))


@functools.lru_cache(maxsize=None)
def _longest_element(g: CoxeterGraph, J: tuple):
    """Greedy ascent: repeatedly right-multiply by the least generator of J
    that is not yet a right descent.  Strictly length-increasing, so it
    terminates at r_J in exactly l(r_J) steps."""
    bound = positive_root_count(g.restrict(J))
    if bound is None:
        raise ValueError("longest element needs a spherical subset")
    w = identity_element(g)
    for _ in range(bound + 1):
        free = [j for j in J if j not in w.right_descents]
        if not free:
            return w
        w = w.gen_right(free[0])
    raise RuntimeError("ascent did not stop at the classification bound")


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
        return len(_peel(w.kernel, w.matrix, 10 * (total + 1))) == total
    return w.length == total

