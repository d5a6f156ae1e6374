"""Block partitions of a Coxeter graph and the admissibility machinery.

A partition p of a vertex subset J into spherical blocks is *admissible*
when the longest elements r_B of its blocks generate, inside the positive
braid monoid, a submonoid isomorphic to the positive braid monoid of a
smaller Coxeter graph (the *type* of p) with the lifted r_B as atoms.  The
workable criterion is word compatibility: for every pair of blocks (a, b)
and every n, the alternating products r_a r_b r_a ... of n factors must
have length equal to the sum of the factor lengths.  Admissibility of a
partition reduces to admissibility of each pair of blocks.

Each public call checks its arguments once: ``_check_blocks`` the bound
and the blocks of a pair, ``_check_partition`` the bound and the blocks of a
partition.  ``_decide_pair`` trusts both, and decides a pair over its
carrier (the restriction to the two blocks) through a ladder of tests:

  (i)   all labels between the blocks are 2: admissible with order 2;
  (ii)  some vertex of one block has only label-2 edges into the other
        block (but (i) failed): never admissible, and the alternating word
        of length 3 starting on that vertex's side is a witness;
  (iii) the two blocks span a spherical subgraph: the order m of r_a r_b
        is exact (from the cycles of its root permutation); compatibility
        of both alternating words up to m decides;
  (iv)  the subgraph is infinite but both words are compatible up to a
        finite order m: this never happens (see below), and ``check_pair``
        raises RuntimeError if it does;
  (v)   otherwise both words are scanned up to the bound; a failure is a
        witness, and full success is only an "Unknown" unless a
        certificate applies.

The order m comes from ``pair_order``, over an infinite carrier only
behind a failure.  Let P_n(a) and P_n(b) be the alternating products of n
factors starting with r_a and with r_b, and w = r_a r_b.  Then P_n(a) =
P_n(b) exactly when m divides n: for n = 2k they are w^k and w^-k, and for
n = 2k+1 they are w^k r_a and w^-k r_b, equal iff w^(2k+1) = 1.  So the
words are scanned up to m, where they agree (or to the bound, with no
order within it), and a witness is the first failure of the alpha word up
to there, else that of the beta word.

Why (iv) is empty.  Suppose the scan over the carrier J = a u b ends with
P_m(a) = P_m(b) =: x and no witness.  Both words are length-additive, so x
is r_a times a reduced tail and r_b times a reduced tail, and every vertex
of a and of b is a left descent of x.  The scan runs in W_J, so x is an
element of W_J with every generator as a left descent, and only a finite
Coxeter group has one (Björner and Brenti, *Combinatorics of Coxeter
Groups*, ch. 2).  So J is spherical.  A refused pair over an infinite
carrier may still have a finite order: over G~2 (labels 3, 6), blocks
{1, 2} and {3}, refused by rung (ii), give 6.

Certificates that upgrade Unknown to Admissible: the pair/partition equals
the orbit partition of the subgroup of graph automorphisms stabilizing its
blocks (fixed-submonoid theory), or it is the lift of an admissible
partition through another admissible partition.  A NotAdmissible verdict
always carries a replayable incompatible-word witness.

Compatibility is checked stepwise: appending r_B to w is length-additive
exactly when no right descent of w lies in B (w is then minimal in its
coset w W_B), so a full alternating scan needs only descent lookups, which
it makes on the small-root automaton (Brink and Howlett, Math. Ann. 296,
1993; Björner and Brenti, ch. 4, sections 4.7-4.8) over every carrier.
Let N(w) be the set of positive roots that w sends negative, so that v is
a right descent of w iff a_v is in N(w).  The small roots E are a finite
set of positive roots holding every simple root, and when l(ws) > l(w),
N(ws) ∩ E = {a_s} u (s(N(w) ∩ E) ∩ E).  So the state N(w) ∩ E, an int
whose low bits are the simple roots in vertex order, decides every
descent; appending r_B to a w with no right descent in B sends it to
N(r_B) ∩ E together with r_B(b) for each b of the state with r_B(b) small,
one fixed map per block composed from the letters of r_B.  No exact
arithmetic runs once E is built.  Over a spherical carrier E is every
positive root, and only the longest element has all of E as its state.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .elements import is_compatible, longest_element, small_roots
from .graphs import (
    INFINITY,
    ISOMORPHISM_RANK_LIMIT,
    CoxeterGraph,
    _checked_replace,
    automorphisms,
    bipartite_classes,
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
    _replace = _checked_replace

    def __new__(cls, graph, blocks, names):
        blocks, names = tuple(map(tuple, blocks)), tuple(names)
        if len(blocks) != len(names):
            raise ValueError("one name per block")
        seen = set()
        for b in blocks:
            if not b or b != tuple(sorted(b)):
                raise ValueError("blocks must be sorted and nonempty")
            for i, v in enumerate(b):
                if v not in graph._index:
                    raise ValueError(f"{v!r} is not a vertex")
                if v in b[:i]:
                    raise ValueError(f"{v!r} is repeated in one block")
                if v in seen:
                    raise ValueError(f"{v!r} appears in two blocks")
                seen.add(v)
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names")
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
    """The inverse of ``BlockPartition.to_json``; ValueError on a wrong shape."""
    if not (isinstance(data, list) and data and all(
            isinstance(d, dict) and "name" in d and isinstance(d.get("vertices"), list)
            for d in data)):
        raise ValueError('a JSON partition is [{"name": ..., "vertices": [...]}, ...],'
                         ' with at least one block')
    return block_partition(
        g, [d["vertices"] for d in data], [d["name"] for d in data]
    )


def bipartite_partition(g: CoxeterGraph) -> BlockPartition:
    """The 2-coloring partition of a connected graph on >= 2 vertices."""
    return block_partition(g, bipartite_classes(g))


# -- verdicts, witnesses, certificates ------------------------------------


class Check(namedtuple("Check", "name ok detail")):
    """One entry of a report's pass/fail list; ``name`` is a label, or the
    pair of block names the check is about."""

    __slots__ = ()


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
    return not is_compatible(g.restrict((*w.alpha, *w.beta)), blocks)


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
    _replace = _checked_replace

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


def _check_bound(bound) -> None:
    """Refuse a bound that is not an int >= 1, the CLI's ``--bound``
    minimum (a bool is refused too), once per public call, before any scan."""
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise TypeError(f"bound must be an int, not {type(bound).__name__}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")


def _isolated_vertex(g: CoxeterGraph, a, b):
    """A vertex of a with only label-2 edges into b, if any."""
    for i in a:
        if all(g.m(i, j) == 2 for j in b):
            return i
    return None


def _check_blocks(g: CoxeterGraph, alpha, beta, bound) -> tuple:
    """(g restricted to the pair, alpha, beta as sorted tuples), once the bound
    and the blocks are checked: disjoint nonempty spherical vertex sets of g."""
    _check_bound(bound)
    for v in (*alpha, *beta):
        if v not in g._index:
            raise ValueError(f"{v!r} is not a vertex")
    alpha, beta = tuple(sorted(set(alpha))), tuple(sorted(set(beta)))
    if not alpha or not beta or set(alpha) & set(beta):
        raise ValueError("blocks must be disjoint and nonempty")
    for b in (alpha, beta):
        if not is_spherical(g.restrict(b)):
            raise ValueError(f"block {b} does not span a spherical subgraph")
    return g.restrict(alpha + beta), alpha, beta


def _check_partitions(**named) -> None:
    """Refuse an argument that is not a BlockPartition, naming it."""
    for name, x in named.items():
        if not isinstance(x, BlockPartition):
            raise TypeError(f"{name} must be a BlockPartition, not {type(x).__name__}")


def _check_partition(p: BlockPartition, bound) -> None:
    """Check the bound, p and each block's sphericity, once per partition call."""
    _check_bound(bound)
    _check_partitions(p=p)
    if not all(is_spherical(p.graph.restrict(b)) for b in p.blocks):
        raise ValueError("every block must span a spherical subgraph")


def pair_order(g: CoxeterGraph, alpha, beta, bound: int = DEFAULT_BOUND):
    """Order of r_alpha r_beta: exact over a spherical restriction (from
    the cycles of its root permutation), else a power scan up to the bound
    (None past it)."""
    return _pair_order(*_check_blocks(g, alpha, beta, bound), bound)


def _pair_order(gr: CoxeterGraph, alpha, beta, bound: int):
    """``pair_order`` over the carrier gr, for blocks already checked."""
    return (longest_element(gr, alpha) * longest_element(gr, beta)).order(bound)


@functools.lru_cache(maxsize=None)
def _block_step(gr: CoxeterGraph, block: tuple) -> tuple:
    """(mask, const, images) of appending r_B, B = ``block``, on the
    small-root states of ``gr``: ``mask`` holds B's vertex bits, and a w with
    no right descent in B goes from the state D to ``const`` (the state of
    r_B) together with ``images[k]`` for each bit k of D (``_advance``).
    r_B's word comes from a greedy ascent on the states themselves: append
    the least letter of B not yet in the state, until the state covers B."""
    index = gr._index
    letters = [(1 << a, tuple(0 if k < 0 else 1 << k for k in image))
               for a, image in enumerate(small_roots(gr))]
    mask = sum(1 << index[v] for v in block)
    state, images = 0, tuple(1 << k for k in range(len(letters[0][1])))
    while state & mask != mask:
        free = mask & ~state
        letter = letters[(free & -free).bit_length() - 1]
        state = _advance(state, *letter)
        images = tuple([_advance(x, 0, letter[1]) for x in images])
    return mask, state, images


def _advance(state: int, out: int, images: tuple) -> int:
    """The small-root state after appending a letter or a block to a w with
    state ``state`` and no right descent there: the letter's or block's own
    state ``out`` together with the image of each bit of ``state``."""
    while state:
        low = state & -state
        out |= images[low.bit_length() - 1]
        state ^= low
    return out


def _scan_alternating(gr: CoxeterGraph, alpha, beta, limit: int):
    """Both alternating words on their small-root states, up to ``limit``
    factors: (n_alpha, n_beta, w0).  n_alpha is the first length at which
    the word starting with alpha fails, where the scan stops, and n_beta
    that of the beta word if it fails first; None for a word that does not
    fail.  The alpha word fails by the next factor, as P_(n+1)(a) =
    r_a P_n(b), so no beta state past the beta word's failure decides
    anything.  w0 says whether both states are all of E at ``limit``, which
    over a spherical carrier is the state of the longest element."""
    step_a, step_b = _block_step(gr, alpha), _block_step(gr, beta)
    state_a, state_b = step_a[1], step_b[1]
    n_beta = None
    for n in range(2, limit + 1):
        next_a, next_b = (step_a, step_b) if n % 2 else (step_b, step_a)
        if state_a & next_a[0]:
            return n, n_beta, False
        if state_b & next_b[0]:
            n_beta = n
        state_a, state_b = _advance(state_a, *next_a[1:]), _advance(state_b, *next_b[1:])
    return None, n_beta, state_a == state_b == (1 << len(step_a[2])) - 1


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
    return _decide_pair(*_check_blocks(g, alpha, beta, bound), bound)


def _decide_pair(gr: CoxeterGraph, alpha, beta, bound: int) -> AdmissibilityVerdict:
    """``check_pair`` over the carrier gr, for blocks already checked."""
    pair = (alpha, beta)
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
                gr, IncompatibleWord(alpha, beta, 3, first), bound, pair,
                f"vertex {i0} has only label-2 edges into the other block",
            )

    # (iii) over a spherical carrier the scan runs to the exact order; (v)
    # over an infinite one to the bound, with the order sought behind a failure
    spherical = is_spherical(gr)
    m = _pair_order(gr, alpha, beta, bound) if spherical else None
    n_alpha, n_beta, w0 = _scan_alternating(gr, alpha, beta, m or bound)
    if not spherical and (n_alpha or n_beta):
        m = _pair_order(gr, alpha, beta, bound)
    # the scanned words end at m factors, where the two products agree
    for first, n in (("alpha", n_alpha), ("beta", n_beta)):
        if n is not None and n <= (m or bound):
            order = "" if m is None else f" (order of r_a r_b is {m})"
            return _refusal(
                gr, IncompatibleWord(alpha, beta, n, first), bound, pair,
                f"alternating word of length {n} is incompatible{order}",
            )
    if m is not None:
        # every vertex of the carrier is a left descent of the compatible
        # products of m factors, so they are its longest element (and the
        # carrier is spherical: rung (iv) is empty)
        if not (spherical and w0):
            raise RuntimeError(f"alternating products of {pair} are not w0")
        return AdmissibilityVerdict(
            "admissible",
            bound,
            reason=f"both alternating words compatible up to the order {m}",
            certificate=ExhaustiveFiniteCertificate(m),
            pair=pair,
        )

    return _orbit_verdict(gr, (alpha, beta), bound, pair) or AdmissibilityVerdict(
        "unknown",
        bound,
        reason=f"compatible up to {bound} factors but no certificate applies",
        pair=pair,
    )


def _orbit_verdict(g: CoxeterGraph, blocks, bound: int, pair=None):
    """The admissible verdict of the blocks' orbit certificate, or None."""
    cert = _orbit_certificate(g, blocks)
    return None if cert is None else AdmissibilityVerdict(
        "admissible", bound, reason="blocks are the orbits of their stabilizer in Aut",
        certificate=cert, pair=pair)


def _orbit_certificate(g: CoxeterGraph, blocks):
    """OrbitCertificate when the blocks are exactly the vertex orbits of
    the subgroup of Aut(g) stabilizing every block.

    Complete for the certificate's purpose: if the blocks are the orbits of
    *any* subgroup G, then G lies in the stabilizer, so the stabilizer's
    orbits refine into unions of G-orbits and coincide with the blocks.
    """
    if g.rank > ISOMORPHISM_RANK_LIMIT:
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
    """The orbits of the group generated by some vertex bijections (a whole
    group, or generators of one), in the order of their least vertex: the
    orbit of v is its closure under the maps, which needs no inverses
    because every map of a finite set has finite order."""
    orbits, seen = [], set()
    for v in vertices:
        if v not in seen:
            # the orbit grows as it is walked; no map leaves it, so seen serves all orbits
            seen.add(v)
            orbits.append([v])
            for u in orbits[-1]:
                for a in maps:
                    if a[u] not in seen:
                        seen.add(a[u])
                        orbits[-1].append(a[u])
    return [tuple(sorted(o)) for o in orbits]


# -- partition-level operations -------------------------------------------


def check_admissible(p: BlockPartition, bound: int = DEFAULT_BOUND) -> AdmissibilityVerdict:
    """Admissibility of a whole partition: a full-partition orbit
    certificate if one applies, otherwise every pair on the pair ladder."""
    _check_partition(p, bound)
    if len(p.blocks) == 1:
        return AdmissibilityVerdict("admissible", bound, reason="single block")
    if verdict := _orbit_verdict(p.graph.restrict(p.carrier), p.blocks, bound):
        return verdict
    # every pair is checked; the first refusal, else the unknown pairs,
    # decides the verdict
    details = tuple([
        ((na, nb), _decide_pair(p.graph.restrict(a + b), a, b, bound))
        for (na, a), (nb, b) in itertools.combinations(zip(p.names, p.blocks), 2)
    ])
    refused = [v for _, v in details if v.outcome == "not_admissible"]
    if refused:
        return AdmissibilityVerdict(
            "not_admissible",
            bound,
            reason=f"pair {refused[0].pair} is not admissible: {refused[0].reason}",
            witness=refused[0].witness,
            details=details,
        )
    unknown = [d for d, v in details if v.outcome == "unknown"]
    if unknown:
        return AdmissibilityVerdict(
            "unknown",
            bound,
            reason=f"pairs {unknown} compatible to the bound but uncertified",
            details=details,
        )
    return AdmissibilityVerdict(
        "admissible",
        bound,
        reason="every pair of blocks is admissible",
        details=details,
    )


class PartitionType(namedtuple("PartitionType", "partition orders bound")):
    """The Coxeter matrix over block names: entry |r_a r_b|, where the
    infinite label is only written for an admissible pair over an infinite
    restriction, certified or, under ``assume_admissible``, on the caller's
    word; None records "no finite order up to the bound, no certificate"."""

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
        names = self.partition.names
        return CoxeterGraph.from_edges(names, [
            (names[i], names[j], self.orders[i][j])
            for i, j in itertools.combinations(range(len(names)), 2)])

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
    """A spherical carrier gives the exact order.  Over an infinite one an
    admissible pair has infinite order (rung (iv) is empty): under
    ``assume_admissible`` every such entry is infinite on the caller's word
    (e.g. a partition certified by a lift), with no search; otherwise one
    pair check decides, a certificate giving infinity, a refusal the order
    up to the bound and an unknown None."""
    _check_partition(p, bound)
    k = len(p.blocks)
    orders = [[1 if i == j else None for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            a, b = p.blocks[i], p.blocks[j]
            gr = p.graph.restrict(a + b)
            if is_spherical(gr):
                m = _pair_order(gr, a, b, bound)
            elif assume_admissible:
                m = INFINITY
            elif (v := _decide_pair(gr, a, b, bound)).outcome == "not_admissible":
                m = _pair_order(gr, a, b, bound)
            else:  # certified admissible, or unknown
                m = INFINITY if v.is_admissible else None
            orders[i][j] = orders[j][i] = m
    return PartitionType(p, tuple(tuple(row) for row in orders), bound)


def orbit_partition(g: CoxeterGraph, generators=None) -> BlockPartition:
    """Partition of the vertices into the *spherical* orbits of the group
    generated by some automorphisms (the full Aut by default).  The orbits
    are read off the given maps, so the group is never listed.  Orbits
    spanning non-spherical subgraphs are dropped from the carrier."""
    if generators is None:
        maps = automorphisms(g)
    else:
        maps = [dict(a) for a in generators]
        for a in maps:
            if set(a) != set(g.vertices) or set(a.values()) != set(g.vertices):
                raise ValueError("automorphism must be a vertex bijection")
            if any(g.m(a[u], a[v]) != g.m(u, v) for u in g.vertices for v in g.vertices):
                raise ValueError("map does not preserve labels")
    orbits = _orbits_of(g.vertices, maps)
    spherical_orbits = [o for o in orbits if is_spherical(g.restrict(o))]
    if not spherical_orbits:
        raise ValueError("no spherical orbits")
    return block_partition(g, spherical_orbits)


def lift_partition(outer: BlockPartition, inner: BlockPartition) -> BlockPartition:
    """Compose partitions: inner is a partition of the type graph of outer
    (its vertices are outer's block names); each inner block becomes the
    union of the outer blocks it names."""
    _check_partitions(outer=outer, inner=inner)
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
    _check_bound(bound)
    _check_partitions(outer=outer, inner=inner)
    ov = check_admissible(outer, bound)
    if not ov.is_admissible:
        raise ValueError(f"outer partition must be admissible: {ov.reason}")
    # under assume_admissible every entry is resolved
    if partition_type(outer, bound, assume_admissible=True).graph() != inner.graph:
        raise ValueError("inner partition must lie over the type graph of the outer one")
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
    _check_bound(bound)
    factors = [tuple(sorted(f)) for f in factors]
    if sorted(v for f in factors for v in f) != sorted(g.vertices):
        raise ValueError("factors must partition the vertices")
    if not is_direct_product(g, factors):
        raise ValueError("factors are joined by an edge; not a direct product")
    pairs = []  # (carrier, alpha, beta) per factor, then of the glued pair
    for f, (a, b) in zip(factors, factor_partitions):
        if sorted(a + b) != list(f):
            raise ValueError(f"partition of factor {f} does not cover it")
        pairs.append(_check_blocks(g, a, b, bound))
    pairs.append(_check_blocks(g, [v for a, _ in factor_partitions for v in a],
                               [v for _, b in factor_partitions for v in b], bound))
    verdicts = tuple(_decide_pair(*pair, bound) for pair in pairs)
    orders = tuple(_pair_order(*pair, bound) for pair in pairs)
    return ProductSplitReport(tuple(factors), verdicts[:-1], orders[:-1],
                              pairs[-1][1:], verdicts[-1], orders[-1])


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


def _length_filter_passes(la: int, lb: int, total: int) -> bool:
    """Whether some n >= 2 makes the alternating length identity possible
    in both orders.  Even n needs (n/2)(la+lb) = total, so (la+lb) | total;
    odd n needs la = lb and n la = total, so la | total (and n >= 3, since
    total > la + lb for blocks joined by an edge)."""
    return total % (la if la == lb else la + lb) == 0


def classify_2partitions(
    g: CoxeterGraph, bound: int = DEFAULT_BOUND
) -> ClassificationReport:
    """All admissible 2-partitions of a connected spherical graph, up to
    graph automorphisms, with the elimination trail of every candidate.

    Pipeline per candidate: the isolated-vertex test, then the arithmetic
    length filter (blocks are automatically spherical, so both sides are
    diagrammatic), then the full pair check.
    """
    _check_bound(bound)
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
            if not _length_filter_passes(la, lb, total):
                eliminated.append(
                    (p, "length", f"block lengths {la}/{lb} against {total}")
                )
                continue
            verdict = _decide_pair(g, a, b, bound)
            if verdict.is_admissible:
                # over a spherical carrier the certificate is exhaustive
                admissible.append((p, verdict.certificate.order))
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
