"""Coxeter graphs: labelled graphs recording a Coxeter matrix.

A Coxeter graph on a vertex set I is a symmetric matrix m = (m_{ij}) with
m_{ii} = 1 and m_{ij} in {2, 3, 4, ..., infinity} for i != j.  Vertices i, j
are joined by an edge exactly when m_{ij} >= 3, and the edge carries the
label m_{ij}.  Absent edges mean m_{ij} = 2 (the generators commute).

Representation choices:

* vertex identifiers are strings, kept in sorted (lexicographic) order —
  this fixes a canonical ordering for every deterministic output;
* the matrix is stored densely as a tuple of tuples aligned with the sorted
  vertex tuple, so graphs are hashable and can key caches;
* the infinite label is the module constant ``INFINITY`` (``math.inf``), a
  sentinel that is never an integer but still satisfies ``m >= 3``.

The module also knows the classification of the connected graphs whose
Coxeter group is finite ("spherical" graphs): the families A_n, B_n, D_n,
E6/E7/E8, F4, H3/H4 and the dihedral graphs I2(m).  Recognition is purely
by diagram shape; ``I2(3)`` and ``I2(4)`` are canonicalized to ``A2`` and
``B2``.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import namedtuple

INFINITY = math.inf


def is_infinite(m) -> bool:
    """True for the INFINITY label."""
    return isinstance(m, float) and math.isinf(m)


def label_from_text(text: str):
    if text in ("inf", "infinity", "oo"):
        return INFINITY
    m = int(text)
    if m < 2:
        raise ValueError(f"edge label must be >= 2 or inf, got {m}")
    return m


def label_to_text(m) -> str:
    return "inf" if is_infinite(m) else str(m)


class CoxeterGraph(namedtuple("CoxeterGraph", "vertices matrix")):
    """Immutable Coxeter graph with sorted string vertices: ``vertices``,
    and ``matrix``, n x n, as a tuple of rows of labels (int, or INFINITY)."""

    def __new__(cls, vertices, matrix):
        order = tuple(sorted(vertices))
        n = len(order)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(f"matrix must be {n}x{n}: one row and one entry per vertex")
        matrix = tuple(map(tuple, matrix))
        if order != vertices:
            # canonicalize: permute matrix rows/columns to sorted order
            old = {v: k for k, v in enumerate(vertices)}
            matrix = tuple(tuple(matrix[old[u]][old[v]] for v in order) for u in order)
        if len(set(order)) != n:
            raise ValueError("duplicate vertex identifiers")
        for a in range(n):
            if matrix[a][a] != 1:
                raise ValueError("diagonal entries must be 1")
            for b in range(a + 1, n):
                m = matrix[a][b]
                if m != matrix[b][a]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if not (is_infinite(m) or (isinstance(m, int) and m >= 2)):
                    raise ValueError(f"bad label {m!r}")
        return tuple.__new__(cls, (order, matrix))

    def __hash__(self):
        # graphs key every per-graph cache; hash the nested tuples once
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = tuple.__hash__(self)
        return h

    def __getstate__(self):
        # a pickle carries no cache: the string hash differs per process
        return None

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_edges(vertices, edges) -> "CoxeterGraph":
        """Build from vertex ids and (i, j, label) triples; omitted pairs
        get label 2."""
        verts = tuple(sorted(str(v) for v in vertices))
        idx = {v: k for k, v in enumerate(verts)}
        n = len(verts)
        mat = [[1 if a == b else 2 for b in range(n)] for a in range(n)]
        given = {}
        for i, j, m in edges:
            i, j = str(i), str(j)
            if i == j:
                raise ValueError("self-loop")
            if i not in idx or j not in idx:
                raise ValueError(f"edge endpoint {i!r}/{j!r} not a vertex")
            if not (is_infinite(m) or (isinstance(m, int) and m >= 2)):
                raise ValueError(f"bad label {m!r}")
            pair = frozenset((i, j))
            if given.setdefault(pair, m) != m:
                raise ValueError(f"edge {i}-{j} is given two labels, {given[pair]} and {m}")
            mat[idx[i]][idx[j]] = m
            mat[idx[j]][idx[i]] = m
        return CoxeterGraph(verts, tuple(tuple(row) for row in mat))

    # -- basic queries ----------------------------------------------------

    @functools.cached_property
    def _index(self) -> dict:
        return {v: k for k, v in enumerate(self.vertices)}

    @property
    def rank(self) -> int:
        return len(self.vertices)

    def m(self, i: str, j: str):
        """The Coxeter matrix entry m_{ij}."""
        return self.matrix[self._index[i]][self._index[j]]

    def edges(self) -> list:
        """(i, j, label) for every pair with label >= 3, i < j."""
        out = []
        for a, i in enumerate(self.vertices):
            for b in range(a + 1, self.rank):
                m = self.matrix[a][b]
                if m >= 3:
                    out.append((i, self.vertices[b], m))
        return out

    def neighbors(self, i: str) -> tuple[str, ...]:
        a = self._index[i]
        return tuple(
            j
            for b, j in enumerate(self.vertices)
            if b != a and self.matrix[a][b] >= 3
        )

    def degree(self, i: str) -> int:
        return len(self.neighbors(i))

    @functools.cached_property
    def modulus(self) -> int:
        """lcm of the finite labels >= 3 (1 if there are none).

        2*cos(pi/m) for every finite label m of the graph lives in the
        field attached to this modulus.
        """
        n = 1
        for _, _, m in self.edges():
            if not is_infinite(m):
                n = math.lcm(n, m)
        return n

    def restrict(self, subset) -> "CoxeterGraph":
        """Full labelled subgraph on the given vertices."""
        sub = tuple(sorted(set(subset)))
        for v in sub:
            if v not in self._index:
                raise ValueError(f"{v!r} is not a vertex")
        return CoxeterGraph(
            sub,
            tuple(
                tuple(self.m(u, v) for v in sub) for u in sub
            ),
        )

    def components(self) -> list:
        """Connected components (edges = labels >= 3), each a sorted tuple,
        ordered by smallest vertex."""
        seen = set()
        comps = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for w in self.neighbors(v):
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def has_infinite_label(self) -> bool:
        return any(is_infinite(m) for _, _, m in self.edges())

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {i} {j} {label_to_text(m)}" for i, j, m in self.edges()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"i": i, "j": j, "m": "inf" if is_infinite(m) else m}
                for i, j, m in self.edges()
            ],
        }


def parse_graph(text: str) -> CoxeterGraph:
    """Parse the line format: ``vertex <id>`` and ``edge <i> <j> <m|inf>``.

    Edge endpoints count as vertices automatically; explicit ``vertex``
    lines are only needed for isolated vertices.  Pairs without an edge
    line get label 2.  Blank lines and ``#`` comments are ignored.
    """
    vertices = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            vertices.extend(parts[1:3])
            edges.append((parts[1], parts[2], label_from_text(parts[3])))
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
    return CoxeterGraph.from_edges(set(vertices), edges)


def graph_from_json(obj) -> CoxeterGraph:
    """The inverse of ``CoxeterGraph.to_json``; ValueError on a wrong shape."""
    edges = obj.get("edges", []) if isinstance(obj, dict) else None
    if not (isinstance(edges, list) and isinstance(obj.get("vertices"), list)
            and all(isinstance(e, dict) and {"i", "j", "m"} <= e.keys() for e in edges)):
        raise ValueError('a JSON graph is {"vertices": [...], "edges":'
                         ' [{"i": ..., "j": ..., "m": ...}, ...]}')
    return CoxeterGraph.from_edges(obj["vertices"], [
        (e["i"], e["j"], label_from_text(e["m"]) if isinstance(e["m"], str) else e["m"])
        for e in edges
    ])


# -- named graphs ---------------------------------------------------------


def _path_edges(names, labels):
    return [(names[k], names[k + 1], labels[k]) for k in range(len(names) - 1)]


def named_graph(name: str) -> CoxeterGraph:
    """Standard irreducible graphs by name: A5, B3, D6, E7, F4, H3, I2(7),
    I2(inf), Atilde3 (the affine 4-cycle).  Vertices are "1".."n" in the
    Bourbaki numbering.
    """
    name = name.strip()
    if m := re.fullmatch(r"I2\((\d+|inf)\)", name):
        lab = label_from_text(m.group(1))
        if lab == 2:
            raise ValueError("I2(2) is not irreducible")
        return CoxeterGraph.from_edges(["1", "2"], [("1", "2", lab)])
    if name in ("Atilde3", "A~3"):
        return CoxeterGraph.from_edges(
            "1234", [("1", "2", 3), ("2", "3", 3), ("3", "4", 3), ("4", "1", 3)]
        )
    m = re.fullmatch(r"([ABDEFH])(\d+)", name)
    if not m:
        raise ValueError(f"unknown graph name {name!r}")
    fam, n = m.group(1), int(m.group(2))
    names = [str(k) for k in range(1, n + 1)]
    if fam == "A" and n >= 1:
        return CoxeterGraph.from_edges(names, _path_edges(names, [3] * (n - 1)))
    if fam == "B" and n >= 2:
        return CoxeterGraph.from_edges(
            names, _path_edges(names, [3] * (n - 2) + [4])
        )
    if fam == "D" and n >= 4:
        spine = _path_edges(names[: n - 1], [3] * (n - 2))
        return CoxeterGraph.from_edges(names, spine + [(names[n - 3], names[n - 1], 3)])
    if fam == "E" and n in (6, 7, 8):
        # path 1-3-4-...-n with vertex 2 hanging off vertex 4
        chain = ["1"] + [str(k) for k in range(3, n + 1)]
        return CoxeterGraph.from_edges(
            names, _path_edges(chain, [3] * (len(chain) - 1)) + [("2", "4", 3)]
        )
    if fam == "F" and n == 4:
        return CoxeterGraph.from_edges(names, _path_edges(names, [3, 4, 3]))
    if fam == "H" and n in (3, 4):
        return CoxeterGraph.from_edges(names, _path_edges(names, [5] + [3] * (n - 2)))
    raise ValueError(f"unknown graph name {name!r}")


# -- spherical classification --------------------------------------------


class SphericalType(namedtuple("SphericalType", "family param")):
    """An entry of the classification of connected spherical graphs,
    ordered as the pair (family, param).

    ``family`` is one of A B D E F H I; ``param`` is the rank, except for
    family I where it is the dihedral label m (rank is then 2).
    """

    __slots__ = ()

    def __new__(cls, family, param):
        if family not in ("A", "B", "D", "E", "F", "H", "I"):
            raise ValueError(f"unknown spherical family {family!r}")
        return tuple.__new__(cls, (family, param))

    @property
    def rank(self) -> int:
        return 2 if self.family == "I" else self.param

    @property
    def coxeter_number(self) -> int:
        f, p = self.family, self.param
        if f == "A":
            return p + 1
        if f == "B":
            return 2 * p
        if f == "D":
            return 2 * p - 2
        if f == "E":
            return {6: 12, 7: 18, 8: 30}[p]
        if f == "F":
            return 12
        if f == "H":
            return {3: 10, 4: 30}[p]
        return p  # I2(m)

    @property
    def positive_roots(self) -> int:
        """Number of positive roots = length of the longest element;
        equals rank * coxeter_number / 2."""
        n = self.rank * self.coxeter_number
        if n % 2:
            raise RuntimeError(f"{self}: rank times Coxeter number {n} is odd")
        return n // 2

    def __str__(self):
        return f"I2({self.param})" if self.family == "I" else f"{self.family}{self.param}"


def _spherical_type(family: str, param: int) -> SphericalType:
    # canonical names for the rank-2 coincidences
    if family == "I":
        if param == 3:
            return SphericalType("A", 2)
        if param == 4:
            return SphericalType("B", 2)
    return SphericalType(family, param)


def _classify_component(g: CoxeterGraph, comp) -> SphericalType | None:
    n = len(comp)
    sub = g.restrict(comp) if len(comp) != g.rank else g
    edges = sub.edges()
    if any(is_infinite(m) for _, _, m in edges):
        return None
    if n == 1:
        return SphericalType("A", 1)
    if n == 2:
        return _spherical_type("I", edges[0][2]) if edges else None
    # n >= 3: must be a tree (a cycle is never spherical)
    if len(edges) != n - 1:
        return None
    special = [(i, j, m) for i, j, m in edges if m >= 4]
    if len(special) > 1:
        return None
    degrees = sorted(sub.degree(v) for v in comp)
    is_path = degrees == [1, 1] + [2] * (n - 2)
    if not special:
        if is_path:
            return SphericalType("A", n)
        # one branch vertex with three legs?
        if n < 4 or degrees != [1, 1, 1] + [2] * (n - 4) + [3]:
            return None
        center = next(v for v in comp if sub.degree(v) == 3)
        legs = sorted(_leg_length(sub, center, w) for w in sub.neighbors(center))
        if legs[0] != 1:
            return None
        if legs[1] == 1:
            return SphericalType("D", n)
        if legs[1] == 2 and legs[2] in (2, 3, 4):
            return SphericalType("E", n)
        return None
    if not is_path:
        return None
    i, j, m = special[0]
    terminal = sub.degree(i) == 1 or sub.degree(j) == 1
    if m == 4:
        if terminal:
            return SphericalType("B", n)
        if n == 4 and sub.degree(i) == 2 and sub.degree(j) == 2:
            return SphericalType("F", 4)
        return None
    if m == 5 and terminal and n in (3, 4):
        # H3/H4 also need the 5-edge at the end of the path touching a leaf
        return SphericalType("H", n)
    return None


def _leg_length(g: CoxeterGraph, center: str, first: str) -> int:
    # walk away from a degree-3 center along a path
    prev, cur, steps = center, first, 1
    while True:
        nxt = [w for w in g.neighbors(cur) if w != prev]
        if not nxt:
            return steps
        if len(nxt) != 1:
            raise RuntimeError(f"vertex {cur} branches on a leg of {center}")
        prev, cur = cur, nxt[0]
        steps += 1


@functools.lru_cache(maxsize=None)
def classify_spherical(g: CoxeterGraph):
    """Sorted tuple of SphericalType, one per connected component, or None
    if any component is not spherical.  The empty graph classifies as ()."""
    out = []
    for comp in g.components():
        t = _classify_component(g, comp)
        if t is None:
            return None
        out.append(t)
    return tuple(sorted(out))


def is_spherical(g: CoxeterGraph) -> bool:
    return classify_spherical(g) is not None


def positive_root_count(g: CoxeterGraph) -> int | None:
    """Length of the longest element, summed over components; None if the
    graph is not spherical.  Diagrammatic — no group computation."""
    types = classify_spherical(g)
    if types is None:
        return None
    return sum(t.positive_roots for t in types)


def coxeter_number(g: CoxeterGraph) -> int:
    """Coxeter number of a *connected* spherical graph."""
    types = classify_spherical(g)
    if types is None or len(types) != 1:
        raise ValueError("coxeter_number needs a connected spherical graph")
    return types[0].coxeter_number


# -- bipartition, products -----------------------------------------------


def bipartite_classes(g: CoxeterGraph):
    """2-coloring classes (tuple of two sorted tuples) of a connected graph
    with >= 2 vertices; ValueError if an odd cycle makes this impossible.

    The class containing the smallest vertex comes first.
    """
    if g.rank < 2:
        raise ValueError("need at least two vertices to bipartition")
    if not g.is_connected():
        raise ValueError("graph is not connected")
    color = {g.vertices[0]: 0}
    queue = [g.vertices[0]]
    while queue:
        v = queue.pop(0)
        for w in g.neighbors(v):
            if w not in color:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                raise ValueError("graph contains an odd cycle; not bipartite")
    a = tuple(sorted(v for v in g.vertices if color[v] == 0))
    b = tuple(sorted(v for v in g.vertices if color[v] == 1))
    return (a, b)


def is_direct_product(g: CoxeterGraph, blocks) -> bool:
    """True when every label between distinct blocks is 2."""
    blocks = [tuple(b) for b in blocks]
    for x, y in itertools.combinations(blocks, 2):
        for i in x:
            for j in y:
                if g.m(i, j) != 2:
                    return False
    return True


# -- automorphisms and isomorphisms ---------------------------------------

ISOMORPHISM_RANK_LIMIT = 16  # the largest rank the backtracking search takes on


def _signature(g: CoxeterGraph, v: str):
    return tuple(sorted(g.m(v, w) for w in g.neighbors(v)))


def isomorphisms(g1: CoxeterGraph, g2: CoxeterGraph) -> list:
    """All label-preserving bijections g1 -> g2 as dicts; backtracking
    search, capped at 16 vertices."""
    if max(g1.rank, g2.rank) > ISOMORPHISM_RANK_LIMIT:
        raise ValueError(f"isomorphism search capped at {ISOMORPHISM_RANK_LIMIT} vertices")
    if g1.rank != g2.rank:
        return []
    sig1 = {v: _signature(g1, v) for v in g1.vertices}
    sig2 = {v: _signature(g2, v) for v in g2.vertices}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return []
    # assign most-constrained vertices first
    order = sorted(g1.vertices, key=lambda v: (-len(sig1[v]), v))
    found = []

    def extend(k, mapping, used):
        if k == len(order):
            found.append(dict(mapping))
            return
        v = order[k]
        for w in g2.vertices:
            if w in used or sig2[w] != sig1[v]:
                continue
            if all(g2.m(w, mapping[u]) == g1.m(v, u) for u in mapping):
                mapping[v] = w
                used.add(w)
                extend(k + 1, mapping, used)
                del mapping[v]
                used.discard(w)

    extend(0, {}, set())
    # extend reaches itself through its closure cell: break that cycle, or
    # the graphs and the search state wait for the cyclic collector
    del extend
    return found


def automorphisms(g: CoxeterGraph) -> list:
    """The full automorphism group as a list of dicts (identity included)."""
    return isomorphisms(g, g)


def is_isomorphic(g1: CoxeterGraph, g2: CoxeterGraph) -> bool:
    return bool(isomorphisms(g1, g2))

