"""Block partitions of a Coxeter graph and the admissibility machinery.

A partition p of a vertex subset J into spherical blocks is *admissible*
when the longest elements r_B of its blocks generate, inside the positive
braid monoid, a submonoid isomorphic to the positive braid monoid of a
smaller Coxeter graph (the *type* of p) with the lifted r_B as atoms.  The
workable criterion is word compatibility: for every pair of blocks (a, b)
and every n, the alternating products r_a r_b r_a ... of n factors must
have length equal to the sum of the factor lengths.  Admissibility of a
partition reduces to admissibility of each pair of blocks.

``check_pair`` decides a pair through a ladder of tests:

  (i)   all labels between the blocks are 2: admissible with order 2;
  (ii)  some vertex of one block has only label-2 edges into the other
        block (but (i) failed): never admissible, and the alternating word
        of length 3 starting on that vertex's side is a witness;
  (iii) the two blocks span a spherical subgraph: the order m of r_a r_b
        is exact; compatibility of both alternating words up to m decides;
  (iv)  the subgraph is infinite but r_a r_b has finite order m found
        within the bound: same exhaustive test up to m, also conclusive;
  (v)   otherwise scan alternating words up to the bound; a failure is a
        witness, and full success is only an "Unknown" unless a
        certificate applies.

Certificates that upgrade Unknown to Admissible: the pair/partition equals
the orbit partition of the subgroup of graph automorphisms stabilizing its
blocks (fixed-submonoid theory), or it is the lift of an admissible
partition through another admissible partition.  A NotAdmissible verdict
always carries a replayable incompatible-word witness.

Compatibility is checked stepwise: appending r_B to w is length-additive
exactly when no right descent of w lies in B (w is then minimal in its
coset w W_B), so a full alternating scan needs only descent lookups.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .elements import identity_element, is_compatible, longest_element
from .graphs import (
    INFINITY,
    CoxeterGraph,
    automorphisms,
    bipartite_classes,
    generated_permutation_group,
    is_direct_product,
    is_infinite,
    is_spherical,
    positive_root_count,
)

DEFAULT_BOUND = 64


# -- partitions ------------------------------------------------------------


class BlockPartition(namedtuple("BlockPartition", "graph blocks names")):
    """Disjoint nonempty blocks of graph vertices, with parallel names.

    Blocks are sorted tuples, ordered by their smallest vertex; the union
    (the carrier) may be a proper subset of the graph.
    """

    __slots__ = ()

    def __new__(cls, graph, blocks, names):
        if len(blocks) != len(names):
            raise ValueError("one name per block")
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names")
        seen = set()
        for b in blocks:
            if not b or b != tuple(sorted(b)):
                raise ValueError("blocks must be sorted and nonempty")
            for v in b:
                if v not in graph._index:
                    raise ValueError(f"{v!r} is not a vertex")
                if v in seen:
                    raise ValueError(f"{v!r} appears in two blocks")
                seen.add(v)
        if blocks != tuple(sorted(blocks)):
            raise ValueError("blocks out of order")
        return tuple.__new__(cls, (graph, blocks, names))

    @property
    def carrier(self) -> tuple:
        return tuple(sorted(v for b in self.blocks for v in b))

    def block_of(self, name: str) -> tuple:
        return self.blocks[self.names.index(name)]

    def to_text(self) -> str:
        return "".join(
            f"block {name} = {','.join(b)}\n"
            for name, b in zip(self.names, self.blocks)
        )

    def to_json(self) -> list:
        return [
            {"name": name, "vertices": list(b)}
            for name, b in zip(self.names, self.blocks)
        ]


def block_partition(g: CoxeterGraph, blocks, names=None) -> BlockPartition:
    """Canonicalize and validate a partition; default names are the
    smallest vertex of each block."""
    cleaned = [tuple(sorted(str(v) for v in b)) for b in blocks]
    if names is None:
        pairs = sorted((b, b[0]) for b in cleaned)
    else:
        if len(names) != len(cleaned):
            raise ValueError("one name per block")
        pairs = sorted(zip(cleaned, (str(n) for n in names)))
    return BlockPartition(g, tuple(b for b, _ in pairs), tuple(n for _, n in pairs))


def parse_partition(g: CoxeterGraph, text: str) -> BlockPartition:
    """Parse lines of the form ``block <name> = <id>,<id>,...``, or the
    one-line shorthand ``1,4/2,3`` (slash-separated blocks, default names).
    """
    stripped = text.strip()
    if "block" not in stripped and "=" not in stripped and "\n" not in stripped:
        return block_partition(
            g, [[v.strip() for v in b.split(",")] for b in stripped.split("/")]
        )
    blocks, names = [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = line.split("=", 1)
        head = m[0].split()
        if len(m) != 2 or len(head) != 2 or head[0] != "block":
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
        names.append(head[1])
        blocks.append([v.strip() for v in m[1].split(",") if v.strip()])
    return block_partition(g, blocks, names)


def partition_from_json(g: CoxeterGraph, data) -> BlockPartition:
    return block_partition(
        g, [d["vertices"] for d in data], [d["name"] for d in data]
    )


def is_spherical_partition(p: BlockPartition) -> bool:
    return all(is_spherical(p.graph.restrict(b)) for b in p.blocks)


def bipartite_partition(g: CoxeterGraph) -> BlockPartition:
    """The 2-coloring partition of a connected graph on >= 2 vertices."""
    return block_partition(g, bipartite_classes(g))


# -- verdicts, witnesses, certificates ------------------------------------


class IncompatibleWord(namedtuple("IncompatibleWord", "alpha beta n first")):
    """A replayable witness: the alternating word of n factors starting
    with the stated block (``first``, 'alpha' or 'beta') is not
    length-additive."""

    __slots__ = ()


def replay_witness(g: CoxeterGraph, w: IncompatibleWord) -> bool:
    """True when the witnessed word is indeed incompatible (re-evaluated
    from scratch via the definition, not the scan)."""
    a, b = (w.alpha, w.beta) if w.first == "alpha" else (w.beta, w.alpha)
    blocks = [a if k % 2 == 0 else b for k in range(w.n)]
    carrier = tuple(sorted(set(w.alpha) | set(w.beta)))
    return not is_compatible(g.restrict(carrier), blocks)


class ExhaustiveFiniteCertificate(namedtuple("ExhaustiveFiniteCertificate", "order")):
    """Both alternating words were verified compatible for every length up
    to the exact order of r_a r_b."""

    __slots__ = ()


class OrbitCertificate(namedtuple("OrbitCertificate", "group_order orbits")):
    """The blocks are exactly the orbits of the subgroup of Aut that
    stabilizes every block (hence of *some* subgroup, which is the full
    strength of the fixed-submonoid theorem)."""

    __slots__ = ()


class LiftCertificate(namedtuple("LiftCertificate", "outer inner")):
    """The partition is the lift of an admissible partition (inner, on the
    type graph) through an admissible partition (outer)."""

    __slots__ = ()


class AdmissibilityVerdict(namedtuple(
        "AdmissibilityVerdict",
        "outcome bound reason witness certificate pair details")):
    """``outcome`` is 'admissible', 'not_admissible' (with an
    IncompatibleWord ``witness``) or 'unknown'; ``details`` holds
    ((name_a, name_b), pair verdict) for partitions."""

    __slots__ = ()

    def __new__(cls, outcome, bound, reason="", witness=None, certificate=None,
                pair=None, details=()):
        if outcome not in ("admissible", "not_admissible", "unknown"):
            raise ValueError(f"unknown outcome {outcome!r}")
        if outcome == "not_admissible" and witness is None:
            raise ValueError("refusals must carry a witness")
        return tuple.__new__(
            cls, (outcome, bound, reason, witness, certificate, pair, details))

    @property
    def is_admissible(self) -> bool:
        return self.outcome == "admissible"


# -- pair machinery --------------------------------------------------------


def _isolated_vertex(g: CoxeterGraph, a, b):
    """A vertex of a with only label-2 edges into b, if any."""
    for i in a:
        if all(g.m(i, j) == 2 for j in b):
            return i
    return None


def pair_order(g: CoxeterGraph, alpha, beta, bound: int = DEFAULT_BOUND):
    """Order of r_alpha r_beta: exact over a spherical restriction, else a
    power scan up to the bound (None past it)."""
    carrier = tuple(sorted(set(alpha) | set(beta)))
    gr = g.restrict(carrier)
    w = longest_element(gr, alpha) * longest_element(gr, beta)
    return w.order(bound)


def _scan_alternating(gr: CoxeterGraph, alpha, beta, n_max: int):
    """Check compatibility of both alternating words up to n_max factors.

    Returns (witness, products): witness is None when everything is
    additive, in which case products maps 'alpha'/'beta' to the group
    element of the full n_max-factor word.
    """
    products = {}
    for first, x, y in (("alpha", alpha, beta), ("beta", beta, alpha)):
        rx = longest_element(gr, x)
        ry = longest_element(gr, y)
        w = identity_element(gr)
        for n in range(1, n_max + 1):
            block, r = (x, rx) if n % 2 else (y, ry)
            # l(w r_B) = l(w) + l(r_B) iff w has no right descent in B
            if any(v in w.right_descents for v in block):
                return IncompatibleWord(tuple(alpha), tuple(beta), n, first), None
            w = w * r
        products[first] = w
    return None, products


def _refusal(g: CoxeterGraph, witness, bound: int, pair, reason: str):
    """A not_admissible verdict, once its witness replays from scratch."""
    if not replay_witness(g, witness):
        raise RuntimeError(f"witness {witness} does not replay")
    return AdmissibilityVerdict(
        "not_admissible", bound, reason=reason, witness=witness, pair=pair
    )


def check_pair(
    g: CoxeterGraph, alpha, beta, bound: int = DEFAULT_BOUND
) -> AdmissibilityVerdict:
    """Decide admissibility of the pair of blocks {alpha, beta}."""
    alpha = tuple(sorted(set(alpha)))
    beta = tuple(sorted(set(beta)))
    if not alpha or not beta or set(alpha) & set(beta):
        raise ValueError("blocks must be disjoint and nonempty")
    pair = (alpha, beta)
    carrier = tuple(sorted(alpha + beta))
    gr = g.restrict(carrier)
    for b in (alpha, beta):
        if not is_spherical(gr.restrict(b)):
            raise ValueError(f"block {b} does not span a spherical subgraph")

    # (i) direct product: r_a and r_b commute, order 2, trivially admissible
    if is_direct_product(gr, (alpha, beta)):
        return AdmissibilityVerdict(
            "admissible",
            bound,
            reason="no edges between the blocks (order 2)",
            certificate=ExhaustiveFiniteCertificate(2),
            pair=pair,
        )

    # (ii) a vertex with no edge into the other block forces the length-3
    # word starting on its side to drop length: r_a r_b r_a =
    # (r_a s_i) r_b (s_i r_a) when s_i commutes with r_b
    for first, x, y in (("alpha", alpha, beta), ("beta", beta, alpha)):
        i0 = _isolated_vertex(gr, x, y)
        if i0 is not None:
            return _refusal(
                g, IncompatibleWord(alpha, beta, 3, first), bound, pair,
                f"vertex {i0} has only label-2 edges into the other block",
            )

    # (iii)/(iv): with the order m in hand, compatibility up to m decides;
    # (v) order out of reach: scan to the bound, then look for a certificate
    m = pair_order(gr, alpha, beta, bound)
    witness, products = _scan_alternating(gr, alpha, beta, bound if m is None else m)
    if witness is not None:
        order = "" if m is None else f" (order of r_a r_b is {m})"
        return _refusal(
            g, witness, bound, pair,
            f"alternating word of length {witness.n} is incompatible{order}",
        )
    if m is not None:
        # over a spherical carrier the compatible products of m factors
        # must both be its longest element
        if is_spherical(gr):
            w0 = longest_element(gr, carrier)
            if products["alpha"] != w0 or products["beta"] != w0:
                raise RuntimeError(f"alternating products of {pair} are not w0")
        return AdmissibilityVerdict(
            "admissible",
            bound,
            reason=f"both alternating words compatible up to the order {m}",
            certificate=ExhaustiveFiniteCertificate(m),
            pair=pair,
        )

    cert = _orbit_certificate(gr, (alpha, beta))
    if cert is not None:
        return AdmissibilityVerdict(
            "admissible",
            bound,
            reason="blocks are the orbits of their stabilizer in Aut",
            certificate=cert,
            pair=pair,
        )
    return AdmissibilityVerdict(
        "unknown",
        bound,
        reason=f"compatible up to {bound} factors but no certificate applies",
        pair=pair,
    )


def _orbit_certificate(g: CoxeterGraph, blocks):
    """OrbitCertificate when the blocks are exactly the vertex orbits of
    the subgroup of Aut(g) stabilizing every block.

    Complete for the certificate's purpose: if the blocks are the orbits of
    *any* subgroup G, then G lies in the stabilizer, so the stabilizer's
    orbits refine into unions of G-orbits and coincide with the blocks.
    """
    if g.rank > 16:
        return None
    blocksets = [frozenset(b) for b in blocks]
    stab = [
        a
        for a in automorphisms(g)
        if all(frozenset(a[v] for v in b) == b for b in blocksets)
    ]
    orbits = _orbits_of(g.vertices, stab)
    if sorted(orbits) == sorted(tuple(sorted(b)) for b in blocks):
        return OrbitCertificate(len(stab), tuple(sorted(orbits)))
    return None


def _orbits_of(vertices, maps):
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a in maps:
        for v in vertices:
            ra, rb = find(v), find(a[v])
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    return [tuple(sorted(vs)) for vs in groups.values()]


# -- partition-level operations -------------------------------------------


def check_admissible(p: BlockPartition, bound: int = DEFAULT_BOUND) -> AdmissibilityVerdict:
    """Admissibility of a whole partition: a full-partition orbit
    certificate if one applies, otherwise every pair via check_pair."""
    if not is_spherical_partition(p):
        raise ValueError("every block must span a spherical subgraph")
    if len(p.blocks) == 1:
        return AdmissibilityVerdict("admissible", bound, reason="single block")
    gJ = p.graph.restrict(p.carrier)
    cert = _orbit_certificate(gJ, p.blocks)
    if cert is not None:
        return AdmissibilityVerdict(
            "admissible",
            bound,
            reason="blocks are the orbits of their stabilizer in Aut",
            certificate=cert,
        )
    details = []
    worst = "admissible"
    first_bad = None
    for (na, a), (nb, b) in itertools.combinations(zip(p.names, p.blocks), 2):
        v = check_pair(p.graph, a, b, bound)
        details.append(((na, nb), v))
        if v.outcome == "not_admissible" and first_bad is None:
            first_bad = v
            worst = "not_admissible"
        elif v.outcome == "unknown" and worst == "admissible":
            worst = "unknown"
    if worst == "not_admissible":
        return AdmissibilityVerdict(
            "not_admissible",
            bound,
            reason=f"pair {first_bad.pair} is not admissible: {first_bad.reason}",
            witness=first_bad.witness,
            details=tuple(details),
        )
    if worst == "unknown":
        which = [d for d, v in details if v.outcome == "unknown"]
        return AdmissibilityVerdict(
            "unknown",
            bound,
            reason=f"pairs {which} compatible to the bound but uncertified",
            details=tuple(details),
        )
    return AdmissibilityVerdict(
        "admissible",
        bound,
        reason="every pair of blocks is admissible",
        details=tuple(details),
    )


class PartitionType(namedtuple("PartitionType", "partition orders bound")):
    """The Coxeter matrix over block names: entry |r_a r_b|, where the
    infinite label is only written when certified (admissible pair over an
    infinite restriction); None records "no finite order up to the bound,
    no certificate"."""

    __slots__ = ()

    def entry(self, na: str, nb: str):
        i = self.partition.names.index(na)
        j = self.partition.names.index(nb)
        return self.orders[i][j]

    @property
    def is_resolved(self) -> bool:
        return all(x is not None for row in self.orders for x in row)

    def graph(self) -> CoxeterGraph:
        """The type as a Coxeter graph over the block names."""
        if not self.is_resolved:
            raise ValueError(f"type not resolved within bound {self.bound}")
        edges = []
        names = self.partition.names
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                edges.append((names[i], names[j], self.orders[i][j]))
        return CoxeterGraph.from_edges(names, edges)

    def to_json(self) -> dict:
        def enc(x):
            if x is None:
                return f"> {self.bound}"
            return "inf" if is_infinite(x) else x

        return {
            "names": list(self.partition.names),
            "orders": [[enc(x) for x in row] for row in self.orders],
        }


def partition_type(
    p: BlockPartition,
    bound: int = DEFAULT_BOUND,
    assume_admissible: bool = False,
) -> PartitionType:
    """The infinite label is written only for pairs that are admissible
    over a non-spherical restriction (an admissible pair with a finite
    product order has a spherical carrier, so no finite order within the
    bound plus admissibility settles the entry).  The admissibility backing
    is a per-pair certificate, or the caller's word when
    ``assume_admissible`` is set (e.g. a partition certified by a lift)."""
    k = len(p.blocks)
    orders = [[1 if i == j else None for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            a, b = p.blocks[i], p.blocks[j]
            m = pair_order(p.graph, a, b, bound)
            if m is None:
                carrier = tuple(sorted(a + b))
                if not is_spherical(p.graph.restrict(carrier)):
                    if assume_admissible:
                        m = INFINITY
                    else:
                        v = check_pair(p.graph, a, b, bound)
                        if v.is_admissible and v.certificate is not None:
                            m = INFINITY  # admissible, infinite restriction
            orders[i][j] = orders[j][i] = m
    return PartitionType(p, tuple(tuple(row) for row in orders), bound)


def orbit_partition(g: CoxeterGraph, generators=None, subset=None) -> BlockPartition:
    """Partition of (a subset of) the vertices into the *spherical* orbits
    of a group of automorphisms (the full Aut by default).  Orbits spanning
    non-spherical subgraphs are dropped from the carrier."""
    gr = g if subset is None else g.restrict(subset)
    group = (
        automorphisms(gr)
        if generators is None
        else generated_permutation_group(gr, generators)
    )
    orbits = _orbits_of(gr.vertices, group)
    spherical_orbits = [o for o in orbits if is_spherical(gr.restrict(o))]
    if not spherical_orbits:
        raise ValueError("no spherical orbits")
    return block_partition(g, spherical_orbits)


def lift_partition(outer: BlockPartition, inner: BlockPartition) -> BlockPartition:
    """Compose partitions: inner is a partition of the type graph of outer
    (its vertices are outer's block names); each inner block becomes the
    union of the outer blocks it names."""
    if not set(inner.carrier) <= set(outer.names):
        raise ValueError("inner blocks must consist of outer block names")
    blocks = []
    for b in inner.blocks:
        blocks.append(sorted(v for name in b for v in outer.block_of(name)))
    return block_partition(outer.graph, blocks, inner.names)


def certify_by_lift(
    outer: BlockPartition, inner: BlockPartition, bound: int = DEFAULT_BOUND
) -> AdmissibilityVerdict:
    """Settle admissibility of a partition of the type graph of ``outer``
    through its lift: the lifted partition is admissible if and only if the
    inner one is.  This decides cases the direct pair scan cannot reach,
    e.g. when the inner carrier is non-spherical but the lift has enough
    symmetry for an orbit certificate."""
    ov = check_admissible(outer, bound)
    if not ov.is_admissible:
        raise ValueError(f"outer partition must be admissible: {ov.reason}")
    lifted = lift_partition(outer, inner)
    v = check_admissible(lifted, bound)
    if v.is_admissible:
        return AdmissibilityVerdict(
            "admissible",
            bound,
            reason="the lifted partition is admissible",
            certificate=LiftCertificate(outer, inner),
        )
    if v.outcome == "not_admissible":
        # the inner partition is refused as well; find a direct witness on
        # the type graph so the refusal stays independently replayable
        direct = check_admissible(inner, bound)
        if direct.outcome == "not_admissible":
            return direct
        return AdmissibilityVerdict(
            "unknown",
            bound,
            reason="the lift is not admissible (so neither is this"
            " partition), but no direct witness surfaced within the bound",
        )
    return AdmissibilityVerdict(
        "unknown", bound, reason="the lift could not be settled"
    )


# -- product splitting -----------------------------------------------------


class ProductSplitReport(namedtuple(
        "ProductSplitReport", "factors factor_verdicts factor_orders"
        " global_pair global_verdict global_order")):
    __slots__ = ()

    @property
    def consistent(self) -> bool:
        """The product rule: the glued pair is admissible iff every factor
        pair is admissible with one common order."""
        all_adm = all(v.is_admissible for v in self.factor_verdicts)
        orders = set(self.factor_orders)
        predicted = all_adm and len(orders) == 1
        return predicted == self.global_verdict.is_admissible


def product_split_check(
    g: CoxeterGraph, factors, factor_partitions, bound: int = DEFAULT_BOUND
) -> ProductSplitReport:
    """Check a 2-partition of a direct product against its per-factor
    restrictions.  ``factors`` are disjoint vertex sets with no edges
    between them; ``factor_partitions`` gives one (alpha_k, beta_k) pair
    per factor.  The glued pair is (union of alphas, union of betas)."""
    factors = [tuple(sorted(f)) for f in factors]
    if sorted(v for f in factors for v in f) != sorted(g.vertices):
        raise ValueError("factors must partition the vertices")
    if not is_direct_product(g, factors):
        raise ValueError("factors are joined by an edge; not a direct product")
    verdicts, orders = [], []
    for f, (a, b) in zip(factors, factor_partitions):
        if sorted(a + b) != list(f):
            raise ValueError(f"partition of factor {f} does not cover it")
        verdicts.append(check_pair(g, a, b, bound))
        orders.append(pair_order(g, a, b, bound))
    alpha = tuple(sorted(v for a, _ in factor_partitions for v in a))
    beta = tuple(sorted(v for _, b in factor_partitions for v in b))
    return ProductSplitReport(
        tuple(factors),
        tuple(verdicts),
        tuple(orders),
        (alpha, beta),
        check_pair(g, alpha, beta, bound),
        pair_order(g, alpha, beta, bound),
    )


# -- classification of 2-partitions ---------------------------------------


class ClassificationReport(namedtuple(
        "ClassificationReport", "graph bound admissible eliminated")):
    """``admissible`` holds (BlockPartition, order) and ``eliminated``
    holds (BlockPartition, stage, detail)."""

    __slots__ = ()

    def eliminated_by(self, stage: str):
        return [e for e in self.eliminated if e[1] == stage]

    def to_json(self) -> dict:
        return {
            "admissible": [
                {"blocks": p.to_json(), "order": o} for p, o in self.admissible
            ],
            "eliminated": [
                {"blocks": p.to_json(), "stage": s, "detail": d}
                for p, s, d in self.eliminated
            ],
        }


def _length_filter_passes(la: int, lb: int, total: int) -> int | None:
    """Smallest n >= 2 making the alternating length identity possible in
    both orders: even n needs (n/2)(la+lb) = total, odd n needs la = lb and
    n la = total.  Returns the n, or None when no n exists."""
    for n in range(2, 2 * total + 1):
        if n % 2 == 0:
            if n // 2 * (la + lb) == total:
                return n
        elif la == lb and n * la == total:
            return n
    return None


def classify_2partitions(
    g: CoxeterGraph, bound: int = DEFAULT_BOUND
) -> ClassificationReport:
    """All admissible 2-partitions of a connected spherical graph, up to
    graph automorphisms, with the elimination trail of every candidate.

    Pipeline per candidate: the isolated-vertex test, then the arithmetic
    length filter (blocks are automatically spherical, so both sides are
    diagrammatic), then the full pair check.
    """
    if not (g.is_connected() and is_spherical(g) and g.rank >= 2):
        raise ValueError("classification needs a connected spherical graph of rank >= 2")
    auts = automorphisms(g)
    total = positive_root_count(g)
    v0 = g.vertices[0]
    rest = [v for v in g.vertices if v != v0]
    seen = set()
    admissible, eliminated = [], []
    for r in range(0, len(rest)):
        for picked in itertools.combinations(rest, r + 1):
            beta = tuple(sorted(picked))
            alpha = tuple(sorted(set(g.vertices) - set(beta)))
            blocks = tuple(sorted((alpha, beta)))
            key = min(
                tuple(sorted(tuple(sorted(a[v] for v in blk)) for blk in blocks))
                for a in auts
            )
            if key in seen:
                continue
            seen.add(key)
            p = block_partition(g, key)
            a, b = p.blocks
            i0 = _isolated_vertex(g, a, b) or _isolated_vertex(g, b, a)
            if i0 is not None:
                eliminated.append((p, "isolated", f"vertex {i0}"))
                continue
            la = positive_root_count(g.restrict(a))
            lb = positive_root_count(g.restrict(b))
            if _length_filter_passes(la, lb, total) is None:
                eliminated.append(
                    (p, "length", f"block lengths {la}/{lb} against {total}")
                )
                continue
            verdict = check_pair(g, a, b, bound)
            if verdict.is_admissible:
                admissible.append((p, pair_order(g, a, b, bound)))
            elif verdict.outcome == "not_admissible":
                eliminated.append(
                    (p, "direct", f"witness n={verdict.witness.n}"
                     f" starting {verdict.witness.first}")
                )
            else:
                raise RuntimeError(f"spherical pair {a} / {b} left"
                                   f" {verdict.outcome}: {verdict.reason}")
    admissible.sort(key=lambda t: t[0].blocks)
    eliminated.sort(key=lambda t: t[0].blocks)
    return ClassificationReport(g, bound, tuple(admissible), tuple(eliminated))
