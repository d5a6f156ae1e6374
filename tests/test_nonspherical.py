"""Properties on random small Coxeter graphs, most of them non-spherical:
rank at most 4, labels from {2, ..., 6, inf}.

* Equality of two short words on the matrix backend agrees with
  ``tits_oracle``, which decides it by braid moves and cancellations alone.
* Every ``not_admissible`` verdict of ``check_admissible`` carries a witness
  that ``replay_witness`` confirms from the definition.

Example counts are kept small: a graph with labels 4, 5 and 6 computes in a
field of degree 32.
"""

from hypothesis import given, settings, strategies as st

from coxmon import (
    CoxeterGraph,
    INFINITY,
    block_partition,
    check_admissible,
    identity_element,
    is_spherical,
    replay_witness,
)
from oracles import tits_oracle

LABELS = [2, 3, 4, 5, 6, INFINITY]


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    names = [str(k) for k in range(1, n + 1)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            lab = draw(st.sampled_from(LABELS))
            if lab != 2:
                edges.append((names[i], names[j], lab))
    return CoxeterGraph.from_edges(names, edges)


def _matrix(g, word):
    w = identity_element(g, "matrix")
    for v in word:
        w = w.gen_right(v)
    return w


@st.composite
def graph_and_two_words(draw):
    g = draw(graphs())
    letters = st.sampled_from(g.vertices)
    u = draw(st.lists(letters, max_size=5))
    how = draw(st.sampled_from(["independent", "cancel", "braid"]))
    if how == "independent":
        v = draw(st.lists(letters, max_size=5))
    elif how == "cancel":
        # insert a letter twice: the same element
        k = draw(st.integers(min_value=0, max_value=len(u)))
        v = u[:k] + [draw(letters)] * 2 + u[k:]
    else:
        # append both sides of a finite braid relation: the same element
        a, b = draw(letters), draw(letters)
        m = g.m(a, b)
        if a == b or m == INFINITY:
            v = list(u)
        else:
            v = u + [(b, a)[k % 2] for k in range(m)]
            u = u + [(a, b)[k % 2] for k in range(m)]
    return g, tuple(u), tuple(v)


@settings(max_examples=100)
@given(graph_and_two_words())
def test_matrix_equality_agrees_with_the_word_oracle(case):
    g, u, v = case
    assert (_matrix(g, u) == _matrix(g, v)) == tits_oracle(g, u, v), (g, u, v)


@st.composite
def graph_and_partition(draw):
    g = draw(graphs())
    # a random labelling of the vertices by block; blocks that do not span
    # a spherical subgraph are split into singletons
    tags = [draw(st.integers(min_value=0, max_value=2)) for _ in g.vertices]
    blocks = []
    for t in sorted(set(tags)):
        block = [v for v, s in zip(g.vertices, tags) if s == t]
        if is_spherical(g.restrict(block)):
            blocks.append(block)
        else:
            blocks.extend([v] for v in block)
    return block_partition(g, blocks)


@settings(max_examples=80)
@given(graph_and_partition())
def test_every_refusal_replays(p):
    verdict = check_admissible(p, bound=6)
    if verdict.outcome == "not_admissible":
        assert replay_witness(p.graph, verdict.witness)
    for _, pair_verdict in verdict.details:
        if pair_verdict.outcome == "not_admissible":
            assert replay_witness(p.graph, pair_verdict.witness)
