"""Two routes for a pair of blocks: production ``check_pair`` and
``partition_type`` against test-local copies of the routes they replaced.

The copies below find the order m of r_a r_b first, by a power scan of
w = r_a r_b (not cut off over a spherical carrier, where w has finite
order), and then scan the alternating word starting with r_a up to m (or
the bound), and only then the word starting with r_b, on matrix or
permutation products built one letter at a time.  Production scans both
words at once on their small-root states, to the exact order over a
spherical carrier and to the bound over an infinite one, and seeks the
order over an infinite carrier only behind a failure; a failure counts
only up to that order.  So agreement of whole verdicts (outcome, reason,
witness, certificate) checks the automaton's descents, the length each
scan runs to, the preference for a witness starting with alpha, and the
order quoted in a refusal.

The graphs are seeded random graphs of rank 4 (so every pair of disjoint
blocks of rank <= 4 occurs as a carrier), labels from {2, ..., 6, inf}.
The bound is 5: below the order of most spherical pairs, whose scan must
run past it, and low enough that a non-spherical pair whose word starting
with beta fails at length 5, and whose word starting with alpha would fail
only at 6, is refused with a witness starting with beta.  No pair reaches
rung (iv), an admissible pair of finite order over a non-spherical
carrier: the ``partitions`` docstring proves it empty, so every exhaustive
certificate met here must come with a spherical carrier.
"""

import itertools
import random

from coxmon import (
    INFINITY,
    CoxeterGraph,
    block_partition,
    canonical_word,
    check_pair,
    is_spherical,
    longest_element,
    partition_type,
)
from coxmon.elements import identity_element
from coxmon.graphs import is_direct_product
from coxmon.partitions import (
    AdmissibilityVerdict,
    ExhaustiveFiniteCertificate,
    IncompatibleWord,
    _isolated_vertex,
    _orbit_certificate,
    replay_witness,
)

LABELS = [2, 3, 4, 5, 6, INFINITY]
# seeds 0..26, plus three whose pairs reach a scan refusal: over a
# spherical carrier (2208, an H4), over a non-spherical one (2198, which
# also gives the witness starting with beta), and a product of
# two dihedral factors (1105)
SEEDS = [*range(27), 1105, 2198, 2208]
BOUND = 5


def seeded_graph(seed: int) -> CoxeterGraph:
    rng = random.Random(seed)
    names = ["1", "2", "3", "4"]
    edges = [(names[i], names[j], lab)
             for i in range(4) for j in range(i + 1, 4)
             if (lab := rng.choice(LABELS)) != 2]
    return CoxeterGraph.from_edges(names, edges)


def block_pairs(g):
    """Every ordered pair of disjoint nonempty spherical blocks."""
    blocks = [b for k in range(1, g.rank)
              for b in itertools.combinations(g.vertices, k)
              if is_spherical(g.restrict(b))]
    return [(a, b) for a in blocks for b in blocks if not set(a) & set(b)]


# -- the routes the lockstep scan replaced ----------------------------------


def times(w, r):
    """w * r by one generator at a time along the canonical word of r, so
    that the reference products do not run the element product they
    check."""
    for v in canonical_word(r):
        w = w.gen_right(v)
    return w


def ref_pair_order(g, alpha, beta, bound):
    """Order of r_alpha r_beta by a power scan, up to the bound over a
    non-spherical carrier (None past it)."""
    gr = g.restrict(set(alpha) | set(beta))
    w = times(longest_element(gr, alpha), longest_element(gr, beta))
    limit = None if is_spherical(gr) else bound
    cur, n = w, 1
    while limit is None or n <= limit:
        if cur.is_identity:
            return n
        cur, n = times(cur, w), n + 1
    return None


def ref_scan_alternating(gr, alpha, beta, n_max):
    """The word starting with alpha up to n_max factors, then the word
    starting with beta: (first witness, None) or (None, both products)."""
    products = {}
    for first, x, y in (("alpha", alpha, beta), ("beta", beta, alpha)):
        rx, ry = longest_element(gr, x), longest_element(gr, y)
        w = identity_element(gr)
        for n in range(1, n_max + 1):
            block, r = (x, rx) if n % 2 else (y, ry)
            if any(v in w.right_descents for v in block):
                return IncompatibleWord(alpha, beta, n, first), None
            w = times(w, r)
        products[first] = w
    return None, products


def ref_check_pair(g, alpha, beta, bound):
    alpha, beta = tuple(sorted(alpha)), tuple(sorted(beta))
    pair = (alpha, beta)
    carrier = tuple(sorted(alpha + beta))
    gr = g.restrict(carrier)
    if is_direct_product(gr, (alpha, beta)):
        return AdmissibilityVerdict(
            "admissible", bound, reason="no edges between the blocks (order 2)",
            certificate=ExhaustiveFiniteCertificate(2), pair=pair)
    for first, x, y in (("alpha", alpha, beta), ("beta", beta, alpha)):
        i0 = _isolated_vertex(gr, x, y)
        if i0 is not None:
            return AdmissibilityVerdict(
                "not_admissible", bound,
                reason=f"vertex {i0} has only label-2 edges into the other block",
                witness=IncompatibleWord(alpha, beta, 3, first), pair=pair)
    m = ref_pair_order(gr, alpha, beta, bound)
    witness, products = ref_scan_alternating(gr, alpha, beta, bound if m is None else m)
    if witness is not None:
        assert replay_witness(g, witness)
        order = "" if m is None else f" (order of r_a r_b is {m})"
        return AdmissibilityVerdict(
            "not_admissible", bound,
            reason=f"alternating word of length {witness.n} is incompatible{order}",
            witness=witness, pair=pair)
    if m is not None:
        if is_spherical(gr):
            w0 = longest_element(gr, carrier)
            assert products["alpha"] == w0 and products["beta"] == w0
        return AdmissibilityVerdict(
            "admissible", bound,
            reason=f"both alternating words compatible up to the order {m}",
            certificate=ExhaustiveFiniteCertificate(m), pair=pair)
    cert = _orbit_certificate(gr, (alpha, beta))
    if cert is not None:
        return AdmissibilityVerdict(
            "admissible", bound,
            reason="blocks are the orbits of their stabilizer in Aut",
            certificate=cert, pair=pair)
    return AdmissibilityVerdict(
        "unknown", bound,
        reason=f"compatible up to {bound} factors but no certificate applies",
        pair=pair)


def ref_partition_type_orders(p, bound, assume_admissible):
    k = len(p.blocks)
    orders = [[1 if i == j else None for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            a, b = p.blocks[i], p.blocks[j]
            infinite = not is_spherical(p.graph.restrict(a + b))
            if infinite and assume_admissible:
                m = INFINITY  # the caller's word, whatever the order
            else:
                m = ref_pair_order(p.graph, a, b, bound)
                if m is None and infinite:
                    v = ref_check_pair(p.graph, a, b, bound)
                    if v.is_admissible and v.certificate is not None:
                        m = INFINITY
            orders[i][j] = orders[j][i] = m
    return tuple(tuple(row) for row in orders)


# -- the comparisons --------------------------------------------------------


def test_check_pair_agrees_with_the_order_first_route():
    seen = set()
    for seed in SEEDS:
        g = seeded_graph(seed)
        for a, b in block_pairs(g):
            v = check_pair(g, a, b, BOUND)
            assert v == ref_check_pair(g, a, b, BOUND), (seed, a, b)
            if isinstance(v.certificate, ExhaustiveFiniteCertificate):
                assert is_spherical(g.restrict(a + b)), (seed, a, b)
                seen.add("exhaustive")
            if v.reason.startswith("alternating word"):
                seen.add(("scan refusal", v.witness.first))
    # without these the comparison could pass on the easy rungs alone
    assert {("scan refusal", "alpha"), ("scan refusal", "beta"), "exhaustive"} <= seen


def test_partition_type_agrees_with_the_order_first_route():
    for seed in SEEDS:
        g = seeded_graph(seed)
        for a, b in block_pairs(g):
            if a > b:
                continue
            p = block_partition(g, [a, b])
            for assume in (False, True):
                t = partition_type(p, BOUND, assume_admissible=assume)
                assert t.orders == ref_partition_type_orders(p, BOUND, assume), (
                    seed, a, b, assume)
