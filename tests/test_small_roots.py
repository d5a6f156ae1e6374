"""The small-root automaton of ``check_pair`` against routes that share
none of it.

The alternating scan keeps, per word w, the set N(w) ∩ E of small roots
that w sends negative, as an int; the simple bits are the right descents of
w (``elements.small_roots``, ``partitions._scan_alternating``).  Checked
here against the positive-root count of spherical graphs, the descent
masks of matrix elements, and whole verdicts of the order-first reference
route of ``test_pair_routes``, which builds matrix products letter by
letter.

The automaton is also a second route for orbit certificates: the triple
(parity, alpha state, beta state) decides every later step of both words,
so a repeat before any witness means both words are compatible at every
length, which is what an admissible pair over an infinite carrier needs.
"""

import collections
import contextlib
import itertools
import json
import pathlib
import random
import signal

from coxmon import (
    INFINITY,
    CoxeterGraph,
    IncompatibleWord,
    OrbitCertificate,
    block_partition,
    canonical_word,
    check_pair,
    is_spherical,
    named_graph,
    parse_graph,
    replay_witness,
)
from coxmon import partitions
from coxmon.elements import identity_element, small_roots
from coxmon.graphs import positive_root_count
from coxmon.partitions import _advance, _block_step
import test_pair_routes
from test_pair_routes import SEEDS, block_pairs, ref_check_pair, seeded_graph

LABELS = [2, 3, 4, 5, 6, INFINITY]
POOL = pathlib.Path(__file__).parent.parent / "perfbench/reference/admit-nonspherical.json"


def nonspherical_graph(rng) -> CoxeterGraph:
    """A seeded graph of rank 3 to 6 with labels in {2, ..., 6, inf} that is
    not spherical."""
    while True:
        names = [str(k) for k in range(1, rng.randint(3, 6) + 1)]
        g = CoxeterGraph.from_edges(names, [
            (u, v, lab) for u, v in itertools.combinations(names, 2)
            if (lab := rng.choice(LABELS)) != 2])
        if not is_spherical(g):
            return g


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail, rather than hang, when an E build does not end (E is finite
    for every graph, and is built in milliseconds here)."""
    def fail(*_):
        raise AssertionError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, fail)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def after_letter(maps, a: int, state: int) -> int:
    """The state of w s_a from that of w, when a is no right descent of w:
    a_a joins, and every root of the state moves by s_a if it stays small."""
    out = 1 << a
    for k, image in enumerate(maps[a]):
        if state >> k & 1 and image >= 0:
            out |= 1 << image
    return out


def test_small_roots_of_a_spherical_graph_are_its_positive_roots():
    for name in ("A3", "B4", "D5", "E6", "E7", "E8", "F4", "H3", "H4", "I2(7)"):
        g = named_graph(name)
        maps = small_roots(g)
        assert len(maps) == g.rank
        assert {len(m) for m in maps} == {positive_root_count(g)}, name
        # s_a sends a_a to -a_a, out of E
        assert all(maps[a][a] == -1 for a in range(g.rank))


def test_a_spherical_build_makes_one_sign_test_per_new_root(monkeypatch):
    # over a spherical graph every positive root is small, so a root joins
    # E on a positive rise alone, with no test of the rise against 2: E8
    # has 120 - 8 = 112 non-simple positive roots (the upper test made 224)
    from coxmon.exact import ExactScalar

    calls = []
    sign = ExactScalar.sign
    monkeypatch.setattr(ExactScalar, "sign", lambda x: calls.append(x) or sign(x))
    small_roots.cache_clear()
    g = named_graph("E8")
    assert len(small_roots(g)[0]) == 120
    assert len(calls) == positive_root_count(g) - g.rank == 112


def test_simple_bits_of_the_state_are_the_matrix_descents():
    rng = random.Random(7)
    steps = 0
    for _ in range(30):
        g = nonspherical_graph(rng)
        with time_limit(20):
            maps = small_roots(g)
        simple = (1 << g.rank) - 1
        w, state = identity_element(g), 0
        assert w.backend == "matrix"
        for _ in range(30):
            a = rng.randrange(g.rank)
            if state >> a & 1:
                continue  # a descent: the letter is not length-additive
            w, state = w.gen_right(g.vertices[a]), after_letter(maps, a, state)
            assert state & simple == w.right_mask, (g, canonical_word(w))
            steps += 1
    assert steps >= 500


def test_the_automaton_scan_agrees_with_the_matrix_scan(monkeypatch):
    # rung (ii) is bypassed in both routes, so that the scan meets the
    # pairs it would refuse at length 3, and some of them quote a finite
    # order over a non-spherical carrier
    for module in (partitions, test_pair_routes):
        monkeypatch.setattr(module, "_isolated_vertex", lambda g, a, b: None)
    rng = random.Random(11)
    outcomes = collections.Counter()
    for _ in range(800):
        g = nonspherical_graph(rng)
        vs = list(g.vertices)
        rng.shuffle(vs)
        k = rng.randint(1, len(vs) - 1)
        alpha, beta = tuple(sorted(vs[:k])), tuple(sorted(vs[k:rng.randint(k + 1, len(vs))]))
        gr = g.restrict(alpha + beta)
        if is_spherical(gr) or not all(is_spherical(gr.restrict(b)) for b in (alpha, beta)):
            continue
        got = check_pair(g, alpha, beta, 16)
        assert got == ref_check_pair(g, alpha, beta, 16), (g, alpha, beta)
        # the scan ends one factor after the beta word fails, through the
        # alpha word, as P_(n+1)(a) = r_a P_n(b), or at the limit
        n_alpha, n_beta, _ = partitions._scan_alternating(gr, alpha, beta, 16)
        assert n_beta in (None, 16) or n_alpha == n_beta + 1, (g, alpha, beta)
        outcomes["beta word fails first"] += n_beta is not None
        if got.witness is None:
            outcomes["not refused"] += 1
        else:
            outcomes[got.witness.first, "order" in got.reason] += 1
    # both branches of the scan are met, and refusals that quote an order
    # found only behind the witness
    assert outcomes["not refused"] >= 30 and outcomes["alpha", False] >= 30, outcomes
    assert outcomes["alpha", True] >= 3 and outcomes["beta word fails first"] >= 10, outcomes


def test_a_scan_witness_over_an_infinite_carrier():
    # the path 4 - 1 - 3 - 5 with labels 3, 3, 6 is not spherical; no vertex
    # of either block is isolated from the other, so rung (v) refuses it
    g = parse_graph("edge 4 1 3\nedge 1 3 3\nedge 3 5 6")
    v = check_pair(g, ["4", "5"], ["1", "3"], 16)
    assert not is_spherical(g)
    assert v.outcome == "not_admissible"
    assert v.witness == IncompatibleWord(("4", "5"), ("1", "3"), 6, "alpha")
    assert v.reason == "alternating word of length 6 is incompatible"
    assert replay_witness(g, v.witness)


# -- the automaton as a second route for verdicts over infinite carriers -----


def run_to_repeat(gr, alpha, beta):
    """Both alternating words on the small-root states until a witness, the
    IncompatibleWord of the first failing word (alpha's first at one
    length), or a repeat of (parity, alpha state, beta state): then the
    number of factors at the repeat.  Finite states make one of them come."""
    step_a, step_b = _block_step(gr, alpha), _block_step(gr, beta)
    state_a, state_b, n, seen = step_a[1], step_b[1], 1, set()
    while (n % 2, state_a, state_b) not in seen:
        seen.add((n % 2, state_a, state_b))
        n += 1
        next_a, next_b = (step_a, step_b) if n % 2 else (step_b, step_a)
        for first, state, nxt in (("alpha", state_a, next_a), ("beta", state_b, next_b)):
            if state & nxt[0]:
                return IncompatibleWord(alpha, beta, n, first)
        state_a, state_b = _advance(state_a, *next_a[1:]), _advance(state_b, *next_b[1:])
    return n


def infinite_pairs():
    """(graph, alpha, beta) over non-spherical carriers: every pair of the
    seeded graphs of test_pair_routes and of two named graphs, and every
    pair of blocks of the admit benchmark's pool."""
    graphs = [seeded_graph(s) for s in SEEDS] + [named_graph("Atilde3"),
                                                  named_graph("I2(inf)")]
    for g in graphs:
        for a, b in block_pairs(g):
            if a < b and not is_spherical(g.restrict(a + b)):
                yield g, a, b
    pool = json.loads(POOL.read_text())["pool"]
    for _, e in sorted(pool.items()):
        g = CoxeterGraph.from_edges(e["vertices"], [
            (u, v, INFINITY if m == "inf" else m) for u, v, m in e["edges"]])
        p = block_partition(g, e["blocks"])
        for a, b in itertools.combinations(p.blocks, 2):
            if not is_spherical(g.restrict(a + b)):
                yield g, a, b


def test_orbit_certificates_repeat_and_refusals_reach_a_witness():
    seen = {"admissible": 0, "not_admissible": 0, "unknown": 0}
    for g, a, b in infinite_pairs():
        v = check_pair(g, a, b, 16)
        end = run_to_repeat(g.restrict(a + b), v.pair[0], v.pair[1])
        seen[v.outcome] += 1
        if v.outcome == "admissible":
            assert isinstance(v.certificate, OrbitCertificate), (g, a, b)
            assert isinstance(end, int), (g, a, b, end)
        elif v.outcome == "not_admissible":
            assert isinstance(end, IncompatibleWord), (g, a, b, end)
            assert replay_witness(g, end), (g, a, b, end)
    # the pool alone holds 248 certified pairs and 77 refusals
    assert seen["admissible"] >= 248 and seen["not_admissible"] >= 77, seen
