"""Command-line interface.

Exit codes are uniform across subcommands: 0 for a positive result
(admissible, verified, element found), 1 for a certified negative
(not admissible, verification failed, no lcm), 2 for "unknown within the
bound", an exhausted step budget or an internal error (traceback on
stderr), 3 for usage and input errors.

Graphs are given by name (``A5``, ``E8``, ``I2(7)``, ``I2(inf)``,
``Atilde3``) or by file, either the line format of ``parse_graph`` or
JSON.  Partitions are ``bipartite``, inline blocks like ``1,4/2,3``, or a
file.  Words are comma-separated vertex names; automorphisms are
``from:to`` pairs joined by commas.  ``--json`` switches every subcommand
to a machine-readable report with a ``schema`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .graphs import (
    CoxeterGraph,
    graph_from_json,
    is_infinite,
    named_graph,
    parse_graph,
)
from .monoid import (
    StepBudgetExceeded,
    braid_from_word,
    braid_to_json,
    gcd,
    lcm,
)
from .morphisms import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_LEN,
    DEFAULT_PAIRS,
    DEFAULT_SAMPLES,
    build_morphism,
    burst,
    check_folding,
    fixed_submonoid_check,
    verify_burst,
    verify_respects_lcm,
    verify_respects_normal_forms,
)
from .partitions import (
    DEFAULT_BOUND,
    AdmissibilityVerdict,
    BlockPartition,
    ExhaustiveFiniteCertificate,
    LiftCertificate,
    OrbitCertificate,
    bipartite_partition,
    check_admissible,
    classify_2partitions,
    orbit_partition,
    parse_partition,
    partition_from_json,
    partition_type,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; we reserve 2 for 'unknown'."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# -- input parsing ---------------------------------------------------------


def _count_at_least(minimum: int):
    """argparse type for a count option: an integer >= minimum."""

    def count(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {n}")
        return n

    return count


_positive = _count_at_least(1)
_non_negative = _count_at_least(0)


def load_graph(spec: str) -> CoxeterGraph:
    if os.path.exists(spec):
        with open(spec) as f:
            text = f.read()
        if text.lstrip().startswith("{"):
            return graph_from_json(json.loads(text))
        return parse_graph(text)
    return named_graph(spec)


def load_partition(g: CoxeterGraph, spec: str) -> BlockPartition:
    if spec == "bipartite":
        return bipartite_partition(g)
    if os.path.exists(spec):
        with open(spec) as f:
            text = f.read()
        if text.lstrip().startswith("["):
            return partition_from_json(g, json.loads(text))
        return parse_partition(g, text)
    return parse_partition(g, spec)


def parse_word(spec: str) -> list:
    return [] if spec in ("", "-") else spec.split(",")


def parse_vertex_map(spec: str) -> dict:
    out = {}
    for item in spec.split(","):
        src, _, dst = item.partition(":")
        if not dst:
            raise ValueError(f"expected 'from:to', got {item!r}")
        src, dst = src.strip(), dst.strip()
        if out.setdefault(src, dst) != dst:
            raise ValueError(f"vertex {src!r} is given two images, {out[src]!r} and {dst!r}")
    return out


# -- output ----------------------------------------------------------------


def _emit(args, lines, payload) -> None:
    if args.json:
        payload = {"schema": SCHEMA, "command": args.command, **payload}
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# records are encoded through their own fields (tuples become JSON arrays)
_CERTIFICATE_KINDS = {
    ExhaustiveFiniteCertificate: "exhaustive_finite",
    OrbitCertificate: "orbit",
    LiftCertificate: "lift",
}


def _certificate_json(cert):
    if cert is None:
        return None
    if isinstance(cert, LiftCertificate):
        cert = LiftCertificate(cert.outer.to_json(), cert.inner.to_json())
    return {"kind": _CERTIFICATE_KINDS[type(cert)], **cert._asdict()}


def _verdict_json(v: AdmissibilityVerdict) -> dict:
    out = {
        "outcome": v.outcome,
        "bound": v.bound,
        "reason": v.reason,
        "certificate": _certificate_json(v.certificate),
        "witness": None if v.witness is None else v.witness._asdict(),
    }
    if v.pair is not None:
        out["pair"] = v.pair
    return out


def _verdict_lines(v: AdmissibilityVerdict) -> list:
    lines = [f"verdict: {v.outcome}"]
    if v.reason:
        lines.append(f"reason: {v.reason}")
    if v.witness is not None:
        w = v.witness
        lines.append(
            f"witness: alternating word of {w.n} factors starting with"
            f" {w.first} ({','.join(w.alpha)} / {','.join(w.beta)})"
        )
    if v.certificate is not None:
        lines.append(f"certificate: {type(v.certificate).__name__}")
    return lines


def _verdict_exit(v: AdmissibilityVerdict, ok=None) -> int:
    """0 when ``ok`` (by default: when v is admissible), else 2 when v is
    unknown and 1 when it is a certified negative."""
    if v.is_admissible if ok is None else ok:
        return EXIT_OK
    return EXIT_UNKNOWN if v.outcome == "unknown" else EXIT_FAIL


def _braid_text(x) -> str:
    if x.is_trivial:
        return "(identity)"
    return " . ".join(",".join(w) for w in braid_to_json(x))


# -- subcommands -----------------------------------------------------------


def cmd_check_partition(args) -> int:
    g = load_graph(args.graph)
    p = load_partition(g, args.partition)
    v = check_admissible(p, args.bound)
    _emit(args, _verdict_lines(v),
          {"partition": p.to_json(), "verdict": _verdict_json(v)})
    return _verdict_exit(v)


def cmd_type(args) -> int:
    g = load_graph(args.graph)
    p = load_partition(g, args.partition)
    t = partition_type(p, args.bound)
    lines = []
    if t.is_resolved:
        lines.append(t.graph().to_text().rstrip())
    else:
        lines.append(f"type not resolved within bound {args.bound}:")
        enc = t.to_json()
        for name, row in zip(enc["names"], enc["orders"]):
            lines.append(f"  {name}: {row}")
    _emit(args, lines, {
        "partition": p.to_json(),
        "type": t.to_json(),
        "resolved": t.is_resolved,
        "type_graph": t.graph().to_json() if t.is_resolved else None,
    })
    return EXIT_OK if t.is_resolved else EXIT_UNKNOWN


def cmd_classify(args) -> int:
    g = load_graph(args.graph)
    rep = classify_2partitions(g, args.bound)
    lines = []
    for p, order in rep.admissible:
        blocks = " / ".join(",".join(b) for b in p.blocks)
        lines.append(f"admissible: {blocks}  (order {order})")
    stages = {}
    for _, stage, _ in rep.eliminated:
        stages[stage] = stages.get(stage, 0) + 1
    lines.append(
        "eliminated: "
        + ", ".join(f"{n} by {s}" for s, n in sorted(stages.items()))
        if rep.eliminated
        else "eliminated: none"
    )
    _emit(args, lines, {"graph": g.to_json(), "report": rep.to_json()})
    return EXIT_OK


def cmd_burst(args) -> int:
    g = load_graph(args.graph)
    b = burst(g, args.copies)
    lines = [f"copies: {b.copies}", b.graph.to_text().rstrip(),
             b.partition.to_text().rstrip()]
    _emit(args, lines, {
        "copies": b.copies,
        "graph": b.graph.to_json(),
        "partition": b.partition.to_json(),
    })
    return EXIT_OK


def cmd_verify_burst(args) -> int:
    g = load_graph(args.graph)
    b = burst(g, args.copies)
    rep = verify_burst(b, args.bound)
    lines = [f"copies: {b.copies}"]
    lines += _verdict_lines(rep.verdict)
    lines.append(f"type matches original: {rep.type_matches}")
    for c in rep.infinite_pair_structure:
        lines.append(f"infinite pair {c.name}: {'ok' if c.ok else c.detail}")
    lines.append("burst verified" if rep.ok else "burst verification FAILED")
    _emit(args, lines, {
        "copies": b.copies,
        "verdict": _verdict_json(rep.verdict),
        "type_matches": rep.type_matches,
        "infinite_pairs": [{"pair": c.name, "ok": c.ok, "detail": c.detail}
                           for c in rep.infinite_pair_structure],
        "ok": rep.ok,
    })
    return _verdict_exit(rep.verdict, rep.ok)


def cmd_normal_form(args) -> int:
    g = load_graph(args.graph)
    x = braid_from_word(g, parse_word(args.word))
    _emit(args, [_braid_text(x), f"length: {x.length}"],
          {"factors": braid_to_json(x), "length": x.length})
    return EXIT_OK


def cmd_lcm_gcd(args) -> int:
    g = load_graph(args.graph)
    x = braid_from_word(g, parse_word(args.x))
    y = braid_from_word(g, parse_word(args.y))
    if args.command == "gcd":
        z = gcd(x, y, args.side)
    else:
        z = lcm(x, y, args.side, args.steps)
    if z is None:
        _emit(args, ["no common multiple"], {"result": None})
        return EXIT_FAIL
    _emit(args, [_braid_text(z), f"length: {z.length}"],
          {"result": braid_to_json(z), "length": z.length})
    return EXIT_OK


def cmd_morphism_verify(args) -> int:
    g = load_graph(args.graph)
    p = load_partition(g, args.partition)
    m = build_morphism(g, p, args.bound)
    rl = verify_respects_lcm(m, args.pairs, args.max_len, args.seed, args.steps)
    rn = verify_respects_normal_forms(m, args.samples, args.max_len, args.seed)
    lines = [f"source type: {m.source.to_text().rstrip()}".replace("\n", "; ")]
    for rep in (rl, rn):
        for c in rep.checks:
            lines.append(f"{'pass' if c.ok else 'FAIL'}: {c.name}"
                         + ("" if c.ok else f"  [{c.detail}]"))
        for name, reason in rep.skipped:
            lines.append(f"skip: {name}  [{reason}]")
    ok = rl.ok and rn.ok
    lines.append("morphism verified" if ok else "morphism verification FAILED")
    _emit(args, lines, {
        "source": m.source.to_json(),
        "partition": p.to_json(),
        "checks": [c._asdict() for c in rl.checks + rn.checks],
        "skipped": [{"name": n, "reason": r} for n, r in rl.skipped + rn.skipped],
        "ok": ok,
    })
    return EXIT_OK if ok else EXIT_FAIL


def cmd_folding(args) -> int:
    src = load_graph(args.source)
    base = load_graph(args.base)
    rep = check_folding(src, base, parse_vertex_map(args.mapping), args.bound)
    lines = _verdict_lines(rep.verdict)
    lines.append(f"type matches base: {rep.type_matches}")
    for pair, m, tag, ok, detail in rep.pair_tags:
        shown = tag if tag is not None else "-"
        lines.append(
            f"edge {pair[0]},{pair[1]} (m={m}): {shown}"
            + ("" if ok else f"  FAIL [{detail}]")
        )
    lines.append("folding verified" if rep.ok else "folding check FAILED")
    _emit(args, lines, {
        "partition": rep.partition.to_json(),
        "verdict": _verdict_json(rep.verdict),
        "type_matches": rep.type_matches,
        "tags": [
            {"pair": list(p), "m": "inf" if is_infinite(m) else m,
             "tag": tag, "ok": ok, "detail": d}
            for p, m, tag, ok, d in rep.pair_tags
        ],
        "ok": rep.ok,
    })
    return _verdict_exit(rep.verdict, rep.ok)


def cmd_fixed_points(args) -> int:
    g = load_graph(args.graph)
    maps = [parse_vertex_map(s) for s in args.automorphism]
    rep = fixed_submonoid_check(g, maps, args.length_bound, args.budget)
    lines = [
        f"orbit partition: {' / '.join(','.join(b) for b in rep.partition.blocks)}",
        f"fixed element counts:     {list(rep.fixed_counts)}",
        f"generated element counts: {list(rep.generated_counts)}",
        "fixed submonoid matches" if rep.ok else "fixed submonoid check FAILED",
    ]
    _emit(args, lines, {
        "partition": rep.partition.to_json(),
        "type": rep.ptype.to_json(),
        "fixed_counts": rep.fixed_counts,
        "generated_counts": rep.generated_counts,
        "ok": rep.ok,
    })
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_orbits(args) -> int:
    g = load_graph(args.graph)
    maps = [parse_vertex_map(s) for s in args.automorphism] or None
    p = orbit_partition(g, maps)
    t = partition_type(p, args.bound)
    lines = [p.to_text().rstrip()]
    if t.is_resolved:
        lines.append("type:")
        lines.append(t.graph().to_text().rstrip())
    _emit(args, lines, {
        "partition": p.to_json(),
        "type": t.to_json(),
        "resolved": t.is_resolved,
    })
    return EXIT_OK if t.is_resolved else EXIT_UNKNOWN


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coxmon", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name, func, help, *positionals, copies=False, bound=False):
        """A subcommand with --json, the positionals, then --copies and
        --bound when asked for."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        for arg in positionals:
            p.add_argument(arg)
        if copies:
            p.add_argument("--copies", type=_positive, default=None)
        if bound:
            p.add_argument("--bound", type=_positive, default=DEFAULT_BOUND)
        return p

    add("check-partition", cmd_check_partition,
        "decide admissibility of a partition", "graph", "partition", bound=True)
    add("type", cmd_type, "Coxeter matrix of an admissible partition",
        "graph", "partition", bound=True)
    add("classify", cmd_classify,
        "all admissible 2-partitions of a spherical graph", "graph", bound=True)
    add("burst", cmd_burst, "the burst of a graph", "graph", copies=True)
    add("verify-burst", cmd_verify_burst,
        "re-check admissibility and type of a burst", "graph", copies=True,
        bound=True)
    add("normal-form", cmd_normal_form,
        "left-greedy normal form of a positive word", "graph", "word")

    p = add("lcm", cmd_lcm_gcd, "least common multiple of two positive words",
            "graph", "x", "y")
    p.add_argument("--side", choices=("left", "right"), default="right")
    p.add_argument("--steps", type=_positive, default=None,
                   help="reversing budget (default: scaled to the graph)")

    p = add("gcd", cmd_lcm_gcd, "greatest common divisor of two positive words",
            "graph", "x", "y")
    p.add_argument("--side", choices=("left", "right"), default="left")

    p = add("morphism-verify", cmd_morphism_verify,
            "build the morphism of an admissible partition and test it",
            "graph", "partition", bound=True)
    p.add_argument("--pairs", type=_positive, default=DEFAULT_PAIRS)
    p.add_argument("--samples", type=_positive, default=DEFAULT_SAMPLES)
    p.add_argument("--max-len", type=_positive, default=DEFAULT_MAX_LEN)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=_positive, default=None,
                   help="reversing budget (default: scaled to the graph)")

    p = add("folding", cmd_folding, "check a vertex surjection as a folding",
            "source", "base", bound=True)
    p.add_argument("mapping", help="from:to pairs joined by commas")

    p = add("fixed-points", cmd_fixed_points,
            "compare automorphism fixed points with the orbit submonoid", "graph")
    p.add_argument("automorphism", nargs="+",
                   help="from:to pairs joined by commas")
    p.add_argument("--length-bound", type=_non_negative, required=True)
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)

    p = add("orbits", cmd_orbits,
            "spherical orbit partition of a group of automorphisms", "graph",
            bound=True)
    p.add_argument("automorphism", nargs="*",
                   help="from:to pairs; full Aut when omitted")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StepBudgetExceeded as e:
        reason = f"step budget exhausted: {e}"
        print(reason, file=sys.stderr)
        # undecided, so an "unknown" envelope under --json; text mode prints nothing
        _emit(args, (), {"outcome": "unknown", "reason": reason})
        return EXIT_UNKNOWN
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # an internal error decides nothing, so it must not read as exit 1;
        # traceback is imported only here, to keep it out of every start
        import traceback

        traceback.print_exc()
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
