"""Morphisms of positive braid monoids from admissible partitions.

An admissible partition p of (a subset of) the target graph, with resolved
type graph S over its block names, induces an injective monoid morphism
B+(S) -> B+(target) sending the atom named a to the lifted longest element
of the block a.  The morphism respects lcm's, gcd's, normal forms and
irreducible fractions; ``verify_respects_lcm`` and
``verify_respects_normal_forms`` exercise all of that on atom pairs and on
seeded random samples and report every check.

The module also covers the constructions that produce admissible
partitions:

* ``burst``: replace every vertex by N copies and every edge by label-3
  gadgets (two zigzag paths per copy for even labels, one path for odd
  labels, a 4-cycle per copy for infinite labels); the copy classes T(i)
  form an admissible partition of the burst whose type is the original
  graph, re-verified by ``verify_burst``;
* ``check_folding``: a vertex surjection between graphs is checked through
  its fiber partition, and each target edge is explained by a tag (A:
  disjoint edges, B: bipartite block, C1/C2/C3: the three exceptional
  2-partitions, D: mixed components) recomputed from the classification;
* ``compose``: the lift of one admissible partition through another, with
  the composite generator images verified and the verdict upgraded by a
  lift certificate;
* ``fixed_submonoid_check``: brute-force comparison of the fixed points of
  a group of graph automorphisms acting on B+ with the submonoid generated
  by the lifted longest elements of the spherical orbits.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import namedtuple

from .elements import canonical_word, longest_element
from .graphs import (
    CoxeterGraph,
    bipartite_classes,
    classify_spherical,
    is_infinite,
    is_spherical,
)
from .monoid import (
    PosBraid,
    StepBudgetExceeded,
    braid_from_word,
    braid_identity,
    divides,
    gcd,
    irreducible_fraction,
    lcm,
    lcm_atoms,
    lift,
    multiply,
    normalize,
)
from .partitions import (
    DEFAULT_BOUND,
    AdmissibilityVerdict,
    BlockPartition,
    Check,
    LiftCertificate,
    block_partition,
    check_admissible,
    check_pair,
    lift_partition,
    orbit_partition,
    pair_order,
    partition_type,
)

# default sample sizes of the verification reports, and the enumeration
# budget of fixed_submonoid_check
DEFAULT_PAIRS = 200
DEFAULT_SAMPLES = 100
DEFAULT_MAX_LEN = 6
DEFAULT_BUDGET = 200_000


# -- admissible morphisms --------------------------------------------------


class AdmissibleMorphism(namedtuple(
        "AdmissibleMorphism", "target partition verdict source")):
    """B+(source) -> B+(target), atom `a` |-> lifted r_{block a}."""

    @functools.cached_property
    def _images(self) -> dict:
        return {name: lift(longest_element(self.target, block))
                for name, block in zip(self.partition.names, self.partition.blocks)}

    def image_of_atom(self, name: str) -> PosBraid:
        return self._images[name]


def build_morphism(
    g: CoxeterGraph,
    p: BlockPartition,
    bound: int = DEFAULT_BOUND,
) -> AdmissibleMorphism:
    """Construct the morphism of an admissible partition p of g; ValueError
    when p is over another graph, not certified admissible or of unresolved type."""
    if p.graph != g:
        raise ValueError("partition is not over the given graph")
    verdict = check_admissible(p, bound)
    if not verdict.is_admissible:
        raise ValueError(f"partition is not admissible: {verdict.reason}")
    # the verdict covers every pair, so the type may assume admissibility:
    # it writes the exact order over every spherical carrier and, with no
    # search, the infinite label over every infinite one (rung (iv) is
    # empty), so every entry is set and the type graph exists
    ptype = partition_type(p, bound, assume_admissible=True)
    return AdmissibleMorphism(g, p, verdict, ptype.graph())


def apply_morphism(m: AdmissibleMorphism, x: PosBraid) -> PosBraid:
    """Image of a source braid: replace every letter of every factor, and
    normalize the product of all the atom images' factors once."""
    if x.graph != m.source:
        raise ValueError("braid is not over the source graph of the morphism")
    return normalize(m.target, [
        simple for f in x.factors for name in canonical_word(f)
        for simple in m.image_of_atom(name).factors
    ])


# -- verification reports --------------------------------------------------


class VerificationReport(namedtuple(
        "VerificationReport", "label checks skipped", defaults=((),))):
    """``checks`` holds ``Check``s; ``skipped`` holds (name, reason) for
    checks undecided within the step budget."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [(c.name, c.detail) for c in self.checks if not c.ok]


def _tally(name: str, outcomes: list) -> Check:
    """One check over per-sample outcomes: ``name`` formatted with their
    number, passing when all hold, with detail passed/total."""
    passed = sum(outcomes)
    return Check(name.format(len(outcomes)), passed == len(outcomes),
                 f"{passed}/{len(outcomes)}")


def _sample_pairs(m: AdmissibleMorphism, count, max_len, seed):
    """xs, ys, fxs, fys: ``count`` source braids xs, then ``count`` ys, each of
    a seeded random word of up to ``max_len`` letters, and their images."""
    rng, verts = random.Random(seed), m.source.vertices
    words = [[rng.choice(verts) for _ in range(rng.randint(0, max_len))] for _ in range(2 * count)]
    braids = [braid_from_word(m.source, w) for w in words]
    images = [apply_morphism(m, x) for x in braids]
    return braids[:count], braids[count:], images[:count], images[count:]


def verify_respects_lcm(
    m: AdmissibleMorphism,
    pairs: int = DEFAULT_PAIRS,
    max_len: int = DEFAULT_MAX_LEN,
    seed: int = 0,
    step_bound: int | None = None,
) -> VerificationReport:
    """Existence and value of lcm's through the morphism, divisibility
    reflection, injectivity, and the image of the source longest element.

    A pair whose reversing exhausts the step budget is recorded under
    ``skipped`` rather than as a failure: running out of budget decides
    nothing.  Over spherical graphs the default budget is large enough
    that skips do not occur in practice.
    """
    checks = []
    skipped = []

    # atom pairs: lcm exists on one side iff on the other, and is respected
    for na, nb in itertools.combinations(m.source.vertices, 2):
        src = lcm_atoms(m.source, (na, nb))
        try:
            tgt = lcm(m.image_of_atom(na), m.image_of_atom(nb), "right", step_bound)
        except StepBudgetExceeded:
            skipped.append((f"lcm atoms {na},{nb}", "target reversing budget"))
            continue
        if src is None or tgt is None:
            ok = src is None and tgt is None
            checks.append(Check(
                f"lcm atoms {na},{nb}", ok, "no common multiple on both sides"
                if ok else "existence mismatch"))
        else:
            img = apply_morphism(m, src)
            checks.append(Check(f"lcm atoms {na},{nb}", img.factors == tgt.factors,
                                f"phi(lcm)={img!r} lcm(phi)={tgt!r}"))

    # random pairs: injectivity, divisibility reflection, lcm respect
    xs, ys, fxs, fys = _sample_pairs(m, pairs, max_len, seed)
    injective, reflected, respected = [], [], []
    for x, y, fx, fy in zip(xs, ys, fxs, fys):
        if x.factors != y.factors:
            injective.append(fx.factors != fy.factors)
        reflected.append(divides(x, y, "left") == divides(fx, fy, "left")
                         and divides(y, x, "left") == divides(fy, fx, "left"))
        try:
            both = lcm(x, y, "right", step_bound)
            tboth = lcm(fx, fy, "right", step_bound)
        except StepBudgetExceeded:
            continue
        if both is None or tboth is None:
            respected.append((both is None) == (tboth is None))
        else:
            respected.append(apply_morphism(m, both).factors == tboth.factors)
    checks += [
        _tally("injectivity on {} distinct pairs", injective),
        _tally("divisibility reflection on {} pairs", reflected),
        _tally("lcm respect on {} decided pairs", respected),
    ]
    if len(respected) < len(xs):
        skipped.append(("lcm respect",
                        f"{len(xs) - len(respected)} pairs over the step budget"))

    # the longest element maps to the longest element of the carrier
    if is_spherical(m.source):
        img = apply_morphism(m, lift(longest_element(m.source)))
        want = lift(longest_element(m.target, m.partition.carrier))
        checks.append(Check("image of source longest element",
                            img.factors == want.factors, f"{img!r} vs {want!r}"))
    return VerificationReport("lcm respect", tuple(checks), tuple(skipped))


def _factorwise_image(m: AdmissibleMorphism, x: PosBraid) -> PosBraid | None:
    """The braid whose factors are the images of the normal-form factors
    of x, or None when some image is not a simple or the images are not
    already left-greedy."""
    image_factors = []
    for f in x.factors:
        img = apply_morphism(m, lift(f))
        if len(img.factors) != 1:
            return None  # a simple must map to a simple
        image_factors.append(img.factors[0])
    try:
        return PosBraid(m.target, tuple(image_factors))
    except ValueError:
        return None  # factor images must already be left-greedy


def verify_respects_normal_forms(
    m: AdmissibleMorphism,
    samples: int = DEFAULT_SAMPLES,
    max_len: int = DEFAULT_MAX_LEN,
    seed: int = 0,
) -> VerificationReport:
    """Factorwise images of normal forms are normal forms; gcd's and
    irreducible fractions are respected."""
    xs, ys, fxs, fys = _sample_pairs(m, samples, max_len, seed)
    factorwise = []
    for x, fx in zip(xs, fxs):
        rebuilt = _factorwise_image(m, x)
        factorwise.append(rebuilt is not None and rebuilt.factors == fx.factors)
    checks = [
        _tally("normal form factorwise on {} elements", factorwise),
        _tally("gcd respect on {} pairs", [
            apply_morphism(m, gcd(x, y, "left")).factors == gcd(fx, fy, "left").factors
            for x, y, fx, fy in zip(xs, ys, fxs, fys)]),
    ]
    if is_spherical(m.source) and is_spherical(m.target):
        fractions = []
        for x, y, fx, fy in zip(xs, ys, fxs, fys):
            fr = irreducible_fraction(x, y, "left")
            tf = irreducible_fraction(fx, fy, "left")
            fractions.append(apply_morphism(m, fr.first).factors == tf.first.factors
                             and apply_morphism(m, fr.second).factors == tf.second.factors)
        checks.append(_tally("irreducible fractions on {} pairs", fractions))
    return VerificationReport("normal form respect", tuple(checks))


# -- LCM-partitions --------------------------------------------------------


def is_lcm_partition(
    p: BlockPartition, bound: int = DEFAULT_BOUND
) -> VerificationReport:
    """The stronger-than-admissible property: for each pair of blocks,
    either (finite entry n) the restriction is spherical and both
    alternating products of n factors equal the lifted longest element of
    the union, or (infinite entry) adding any single vertex of one block
    to the other yields a non-spherical subgraph, both ways around.  One
    ``Check`` per pair of block names."""
    g = p.graph
    checks = []
    for (na, a), (nb, b) in itertools.combinations(zip(p.names, p.blocks), 2):
        carrier = tuple(sorted(a + b))
        if is_spherical(g.restrict(carrier)):
            n = pair_order(g, a, b, bound)
            ra, rb = longest_element(g, a), longest_element(g, b)
            want = lift(longest_element(g, carrier))
            ok = all(normalize(g, [second if k % 2 else first for k in range(n)]).factors
                     == want.factors for first, second in ((ra, rb), (rb, ra)))
            detail = (f"finite entry {n}" if ok
                      else f"product of {n} alternating factors is not r_J")
        else:
            extensions = [(i, side, tuple(sorted(set(y) | {i})))
                          for x, y, side in ((a, b, na), (b, a, nb)) for i in x]
            bad = next((e for e in extensions if is_spherical(g.restrict(e[2]))), None)
            ok = bad is None
            detail = ("all one-vertex extensions infinite" if ok else
                      f"vertex {bad[0]} of block {bad[1]} spans the spherical"
                      f" subgraph {bad[2]} with the other block")
        checks.append(Check((na, nb), ok, detail))
    return VerificationReport("lcm partition", tuple(checks))


# -- bursts ----------------------------------------------------------------


def burst_multiplier(m) -> int:
    """Copies consumed per gadget: m-1 for even m, (m-1)/2 for odd m,
    2 for the infinite label."""
    if is_infinite(m):
        return 2
    if m % 2 == 0:
        return m - 1
    return (m - 1) // 2


def burst_base_multiplicity(g: CoxeterGraph) -> int:
    out = 1
    for _, _, m in g.edges():
        out = math.lcm(out, burst_multiplier(m))
    return out


class BurstResult(namedtuple("BurstResult", "original copies graph partition")):
    """``partition`` has the blocks T(i), named by the original vertex."""

    __slots__ = ()


def burst(g: CoxeterGraph, copies: int | None = None) -> BurstResult:
    """Replace each vertex i by copies i^1 .. i^N and each edge by label-3
    gadgets; N must be a multiple of every edge's multiplier."""
    N0 = burst_base_multiplicity(g)
    N = N0 if copies is None else copies
    if N < 1 or N % N0:
        raise ValueError(f"copies must be a positive multiple of {N0}")
    verts = [f"{i}^{k}" for i in g.vertices for k in range(1, N + 1)]
    edges = []
    for i, j, m in g.edges():
        d = burst_multiplier(m)
        for c in range(N // d):
            t = [f"{i}^{c * d + k}" for k in range(1, d + 1)]
            b = [f"{j}^{c * d + k}" for k in range(1, d + 1)]
            if is_infinite(m):
                # a 4-cycle with the fibers as opposite pairs
                edges += [(t[0], b[0], 3), (b[0], t[1], 3),
                          (t[1], b[1], 3), (b[1], t[0], 3)]
            elif m % 2 == 0:
                # two disjoint paths zigzagging between the fibers
                for k in range(d - 1):
                    edges.append((b[k], t[k + 1], 3))
                    edges.append((t[k], b[k + 1], 3))
            else:
                # one path: rungs plus one zigzag
                for k in range(d):
                    edges.append((t[k], b[k], 3))
                for k in range(d - 1):
                    edges.append((b[k], t[k + 1], 3))
    bg = CoxeterGraph.from_edges(verts, edges)
    blocks = [[f"{i}^{k}" for k in range(1, N + 1)] for i in g.vertices]
    return BurstResult(g, N, bg, block_partition(bg, blocks, g.vertices))


class BurstReport(namedtuple(
        "BurstReport",
        "result verdict ptype type_matches infinite_pair_structure")):
    """``infinite_pair_structure`` holds a ``Check`` per pair (na, nb) of
    block names whose original label is infinite."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (
            self.verdict.is_admissible
            and self.type_matches
            and all(c.ok for c in self.infinite_pair_structure)
        )


def _is_opposite_pair_square(g: CoxeterGraph, comp, fa, fb) -> bool:
    """comp is a 4-cycle, all labels 3, with the two fibers as the two
    opposite vertex pairs."""
    if len(comp) != 4:
        return False
    sub = g.restrict(comp)
    if any(m != 3 for _, _, m in sub.edges()) or len(sub.edges()) != 4:
        return False
    if any(sub.degree(v) != 2 for v in comp):
        return False
    pa = tuple(sorted(set(comp) & set(fa)))
    pb = tuple(sorted(set(comp) & set(fb)))
    if len(pa) != 2 or len(pb) != 2:
        return False
    # opposite = not adjacent
    return sub.m(pa[0], pa[1]) == 2 and sub.m(pb[0], pb[1]) == 2


def verify_burst(b: BurstResult, bound: int = DEFAULT_BOUND) -> BurstReport:
    """Re-derive admissibility and the type of the copy-class partition and
    compare the type with the original graph (same vertex names)."""
    verdict = check_admissible(b.partition, bound)
    ptype = partition_type(b.partition, bound)
    structure = []
    for (na, a), (nb, bb) in itertools.combinations(
        zip(b.partition.names, b.partition.blocks), 2
    ):
        if not is_infinite(b.original.m(na, nb)):
            continue
        gr = b.graph.restrict(tuple(sorted(a + bb)))
        bad = [c for c in gr.components()
               if not _is_opposite_pair_square(gr, c, a, bb)]
        structure.append(Check(
            (na, nb), not bad,
            "all components are opposite-pair squares" if not bad
            else f"component {bad[0]} is not an opposite-pair square",
        ))
    matches = ptype.is_resolved and ptype.graph() == b.original
    return BurstReport(b, verdict, ptype, matches, tuple(structure))


# -- foldings --------------------------------------------------------------


class FoldingReport(namedtuple(
        "FoldingReport", "source base mapping partition verdict ptype"
        " type_matches pair_tags")):
    """``mapping`` holds the sorted (src, tgt) pairs and ``pair_tags``
    holds ((a, b), m, tag, ok, detail)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (
            self.verdict.is_admissible
            and self.type_matches
            and all(ok for _, _, _, ok, _ in self.pair_tags)
        )


def _component_tag(g: CoxeterGraph, comp, fa, fb, m: int):
    """Tag one component of a fiber graph against the classification of
    admissible 2-partitions of connected spherical graphs."""
    sub = g.restrict(comp)
    pa = tuple(sorted(set(comp) & set(fa)))
    pb = tuple(sorted(set(comp) & set(fb)))
    if not pa or not pb:
        return None, "component misses a fiber"
    if len(comp) == 2:
        return ("A", None) if sub.m(comp[0], comp[1]) == m else (
            None, f"edge label {sub.m(comp[0], comp[1])} != {m}")
    types = classify_spherical(sub)
    if types is None:
        return None, "component not spherical"
    if len(types) != 1:
        raise RuntimeError(f"component {comp} is not irreducible")
    t = types[0]
    order = pair_order(sub, pa, pb)
    if order != m:
        return None, f"pair order {order} != label {m}"
    try:
        bip = set(map(tuple, bipartite_classes(sub)))
    except ValueError:
        bip = set()
    if {pa, pb} == bip:
        return ("B", str(t)) if t.coxeter_number == m else (
            None, f"coxeter number {t.coxeter_number} != {m}")
    # non-bipartite admissible 2-partitions of an irreducible spherical
    # graph: the A_2n, E6 and F4 exceptions
    if not check_pair(sub, pa, pb).is_admissible:
        return None, "fiber pair not admissible on the component"
    if t.family == "A" and t.param % 2 == 0:
        return "C1", str(t)
    if t.family == "E" and t.param == 6:
        return "C2", str(t)
    if t.family == "F":
        return "C3", str(t)
    return None, f"unclassified admissible split of {t}"


def check_folding(
    src: CoxeterGraph,
    base: CoxeterGraph,
    mapping: dict,
    bound: int = DEFAULT_BOUND,
) -> FoldingReport:
    """Check that a vertex surjection src -> base folds B+(base) into
    B+(src): the fibers must form an admissible partition of type `base`,
    and (for finite base labels) each base edge is explained per fiber
    component by the classification tags."""
    if set(mapping) != set(src.vertices):
        raise ValueError("mapping must cover every source vertex")
    fibers = {t: [] for t in base.vertices}
    for v, t in mapping.items():
        if t not in fibers:
            raise ValueError(f"{t!r} is not a base vertex")
        fibers[t].append(v)
    empty = [t for t, f in fibers.items() if not f]
    if empty:
        raise ValueError(f"empty fiber over {empty[0]!r}")
    p = block_partition(src, [fibers[t] for t in base.vertices], base.vertices)
    verdict = check_admissible(p, bound)
    ptype = partition_type(p, bound)
    matches = ptype.is_resolved and ptype.graph() == base
    tags = []
    for i, j in itertools.combinations(base.vertices, 2):
        m = base.m(i, j)
        fa, fb = tuple(fibers[i]), tuple(fibers[j])
        if is_infinite(m):
            tags.append(((i, j), m, None, True,
                         "infinite base label: no tag, direct check only"))
            continue
        cross = [
            (u, v) for u in fa for v in fb if src.m(u, v) != 2
        ]
        if m == 2:
            tags.append(((i, j), 2, "product", not cross,
                         "no edges between fibers" if not cross
                         else f"unexpected edge {cross[0]}"))
            continue
        gf = src.restrict(tuple(sorted(fa + fb)))
        comp_tags = []
        for comp in gf.components():
            tag, info = _component_tag(gf, comp, fa, fb, m)
            if tag is None:
                tags.append(((i, j), m, None, False, f"component {comp}: {info}"))
                break
            comp_tags.append(tag)
        else:
            if all(t == "A" for t in comp_tags):
                tag = "A"
            elif len(comp_tags) == 1:
                tag = comp_tags[0]
            else:
                tag = "D(" + ",".join(comp_tags) + ")"
            tags.append(((i, j), m, tag, True, f"components tagged {comp_tags}"))
    return FoldingReport(
        src, base, tuple(sorted(mapping.items())), p, verdict, ptype,
        matches, tuple(tags),
    )


# -- composition -----------------------------------------------------------


def compose(
    outer: AdmissibleMorphism, inner: AdmissibleMorphism, bound: int = DEFAULT_BOUND
) -> AdmissibleMorphism:
    """outer o inner, realized as the lifted partition; generator images
    are verified and the verdict carries a lift certificate."""
    if inner.target != outer.source:
        raise ValueError("inner target must equal outer source")
    lifted = lift_partition(outer.partition, inner.partition)
    for name in inner.partition.names:
        via = apply_morphism(outer, inner.image_of_atom(name))
        direct = lift(longest_element(outer.target, lifted.block_of(name)))
        if via.factors != direct.factors:
            raise RuntimeError(
                f"composite image of atom {name} is not the lifted longest element"
            )
    direct_verdict = check_admissible(lifted, bound)
    if direct_verdict.outcome == "not_admissible":
        raise RuntimeError("lifted partition failed the direct re-check")
    verdict = AdmissibilityVerdict(
        "admissible",
        bound,
        reason="lift of an admissible partition through an admissible partition"
        + ("" if direct_verdict.is_admissible else " (direct check inconclusive)"),
        certificate=LiftCertificate(outer.partition, inner.partition),
    )
    ptype = partition_type(lifted, bound)
    for i, j in itertools.combinations(inner.source.vertices, 2):
        got = ptype.entry(i, j)
        if got is not None and got != inner.source.m(i, j):
            raise RuntimeError("composite type disagrees")
    return AdmissibleMorphism(outer.target, lifted, verdict, inner.source)


# -- fixed submonoids ------------------------------------------------------


class FixedSubmonoidReport(namedtuple(
        "FixedSubmonoidReport", "graph partition ptype length_bound"
        " fixed_counts generated_counts sets_match")):
    """The counts are aligned by length 0..bound; ``sets_match`` compares
    the sets element for element, not just their counts."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.sets_match and self.fixed_counts == self.generated_counts


def _products_by_length(g: CoxeterGraph, simples, length_bound: int, budget: int,
                        what: str) -> list:
    """The products of the given braids, one dict per length 0..bound
    keyed by normal form; dicts keep insertion order, so the work done
    does not follow the string hash seed.  Raises StepBudgetExceeded once
    a length holds more than ``budget`` elements."""
    one = braid_identity(g)
    levels = [{} for _ in range(length_bound + 1)]
    levels[0][one.factors] = one
    for L, level in enumerate(levels):
        for x in level.values():
            for r in simples:
                if L + r.length <= length_bound:
                    y = multiply(x, r)
                    levels[L + r.length].setdefault(y.factors, y)
                    if len(levels[L + r.length]) > budget:
                        raise StepBudgetExceeded(f"{what} enumeration passed {budget} elements")
    return levels


def fixed_submonoid_check(
    g: CoxeterGraph,
    generators,
    length_bound: int,
    budget: int = DEFAULT_BUDGET,
) -> FixedSubmonoidReport:
    """Enumerate, length by length, the braids fixed by every generator
    automorphism, and the products of the lifted longest elements of the
    spherical orbits; report both counts (they must agree).  A braid fixed
    by each generator is fixed by their products, so no group is needed.

    Raises StepBudgetExceeded when a length level holds more than
    ``budget`` elements."""
    if length_bound < 0:
        raise ValueError(f"length_bound must be >= 0, got {length_bound}")
    generators = [dict(a) for a in generators]
    p = orbit_partition(g, generators)  # checks that each is an automorphism
    atoms = [braid_from_word(g, (v,)) for v in g.vertices]
    fixed = [
        {k for k, x in level.items()
         if all(braid_from_word(g, [a[v] for v in x.word()]).factors == k
                for a in generators)}
        for level in _products_by_length(g, atoms, length_bound, budget, "fixed-point")
    ]
    gens = [lift(longest_element(g, b)) for b in p.blocks]
    reached = [set(level) for level in _products_by_length(
        g, gens, length_bound, budget, "submonoid")]
    return FixedSubmonoidReport(
        g,
        p,
        partition_type(p),
        length_bound,
        tuple(len(s) for s in fixed),
        tuple(len(s) for s in reached),
        all(f == r for f, r in zip(fixed, reached)),
    )
