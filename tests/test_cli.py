import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from coxmon import automorphisms, cli, parse_graph
from coxmon.cli import main
from coxmon.partitions import IncompatibleWord, replay_witness


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    data = json.loads(out)
    assert data["schema"] == 1
    return code, data


def test_check_partition_admissible(capsys):
    code, out, _ = run(capsys, "check-partition", "A3", "bipartite")
    assert code == 0
    assert "verdict: admissible" in out

    code, data = run_json(capsys, "check-partition", "A3", "bipartite")
    assert code == 0
    assert data["command"] == "check-partition"
    assert data["verdict"]["outcome"] == "admissible"
    # the bipartite classes of A3 are the orbits of its flip
    assert data["verdict"]["certificate"]["kind"] == "orbit"

    # B3 has no symmetry, so the verdict falls back to the pairwise check
    code, data = run_json(capsys, "check-partition", "B3", "bipartite")
    assert code == 0
    assert data["verdict"]["outcome"] == "admissible"
    assert "pair" in data["verdict"]["reason"]


def test_check_partition_not_admissible(capsys):
    code, data = run_json(capsys, "check-partition", "A3", "1/2,3")
    assert code == 1
    assert data["verdict"]["outcome"] == "not_admissible"
    w = data["verdict"]["witness"]
    assert w is not None and w["n"] >= 1 and w["first"] in ("alpha", "beta")


def test_check_partition_unknown(capsys, tmp_path):
    f = tmp_path / "open.graph"
    f.write_text("edge 1 2 3\nedge 2 3 inf\n")
    code, data = run_json(capsys, "check-partition", str(f), "1,3/2",
                          "--bound", "10")
    assert code == 2
    assert data["verdict"]["outcome"] == "unknown"


def test_graph_file_inputs(capsys, tmp_path):
    j = tmp_path / "graph.json"
    j.write_text('{"vertices": ["1", "2"], "edges": [{"i": "1", "j": "2", "m": 4}]}')
    code, data = run_json(capsys, "check-partition", str(j), "1/2")
    assert code == 0
    assert data["verdict"]["outcome"] == "admissible"


@pytest.mark.parametrize("graph, partition", [
    ("A3", '[{"name": "a"}]'),
    ("A3", '["x"]'),
    ("A3", '[]'),
    ("A3", '[{"name": "a", "vertices": 5}]'),
    ('{"edges": []}', "1/2"),
    ('{"vertices": ["1", "2"], "edges": [{"i": "1", "j": "2"}]}', "1/2"),
    ('{"vertices": ["1", "2"], "edges": {"i": "1"}}', "1/2"),
])
def test_malformed_json_inputs_are_usage_errors(capsys, tmp_path, graph, partition):
    # a JSON file of the wrong shape is an input error (exit 3), not an
    # internal one (exit 2 with a traceback)
    argv = ["check-partition"]
    for name, spec in (("graph.json", graph), ("partition.json", partition)):
        if spec.startswith(("{", "[")):
            (tmp_path / name).write_text(spec)
            spec = str(tmp_path / name)
        argv.append(spec)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: a JSON ") and "Traceback" not in err


def test_type(capsys):
    code, out, _ = run(capsys, "type", "A3", "bipartite")
    assert code == 0
    assert "edge 1 2 4" in out

    code, data = run_json(capsys, "type", "A3", "bipartite")
    assert data["resolved"] is True
    assert data["type_graph"]["edges"] == [{"i": "1", "j": "2", "m": 4}]


def test_type_unresolved(capsys, tmp_path):
    f = tmp_path / "open.graph"
    f.write_text("edge 1 2 3\nedge 2 3 inf\n")
    code, data = run_json(capsys, "type", str(f), "1,3/2", "--bound", "10")
    assert code == 2
    assert data["resolved"] is False


def test_classify(capsys):
    code, data = run_json(capsys, "classify", "A4")
    assert code == 0
    rep = data["report"]
    orders = sorted(e["order"] for e in rep["admissible"])
    assert orders == [4, 5]
    assert all(e["stage"] == "isolated" for e in rep["eliminated"])


def test_burst_and_verify(capsys):
    code, out, _ = run(capsys, "burst", "B2", "--copies", "3")
    assert code == 0
    assert "1^1" in out and "2^3" in out

    code, out, _ = run(capsys, "verify-burst", "H3", "--copies", "2")
    assert code == 0
    assert "burst verified" in out

    code, data = run_json(capsys, "verify-burst", "I2(inf)", "--copies", "2")
    assert code == 0
    assert data["ok"] is True
    assert data["verdict"]["certificate"]["kind"] == "orbit"


def test_burst_bad_copies(capsys):
    code, _, err = run(capsys, "burst", "B2", "--copies", "2")
    assert code == 3
    assert "error" in err


def test_normal_form(capsys):
    code, out, _ = run(capsys, "normal-form", "A2", "1,1,2,1")
    assert code == 0
    assert "1,2,1 . 2" in out
    assert "length: 4" in out

    code, data = run_json(capsys, "normal-form", "A2", "1,1,2,1")
    assert data["factors"] == [["1", "2", "1"], ["2"]]


def test_lcm_and_gcd(capsys):
    code, out, _ = run(capsys, "lcm", "A2", "1", "2")
    assert code == 0
    assert "1,2,1" in out

    code, out, _ = run(capsys, "lcm", "I2(inf)", "1", "2")
    assert code == 1
    assert "no common multiple" in out

    code, _, err = run(capsys, "lcm", "Atilde3", "1,3", "2,4", "--steps", "500")
    assert code == 2
    assert "budget" in err

    code, data = run_json(capsys, "gcd", "A2", "1,1,2", "1,2")
    assert code == 0
    assert data["result"] == [["1"]]


def test_morphism_verify(capsys):
    code, out, _ = run(capsys, "morphism-verify", "A3", "bipartite",
                       "--pairs", "15", "--samples", "10", "--max-len", "4")
    assert code == 0
    assert "morphism verified" in out

    code, data = run_json(capsys, "morphism-verify", "B3", "bipartite",
                          "--pairs", "10", "--samples", "8", "--max-len", "3")
    assert code == 0
    assert data["ok"] is True
    assert all(c["ok"] for c in data["checks"])


def test_folding(capsys):
    code, out, _ = run(
        capsys, "folding", "E6", "F4", "1:1,6:1,3:2,5:2,4:3,2:4"
    )
    assert code == 0
    assert "folding verified" in out

    code, out, _ = run(capsys, "folding", "A3", "I2(3)", "1:1,3:1,2:2")
    assert code == 1


def test_fixed_points(capsys):
    code, out, _ = run(capsys, "fixed-points", "A3", "1:3,3:1,2:2",
                       "--length-bound", "5")
    assert code == 0

    code, data = run_json(capsys, "fixed-points", "A3", "1:3,3:1,2:2",
                          "--length-bound", "5")
    assert data["fixed_counts"] == [1, 1, 2, 3, 5, 8]
    assert data["ok"] is True

    # an exhausted enumeration budget leaves the check undecided
    code, _, err = run(capsys, "fixed-points", "A3", "1:3,3:1,2:2",
                       "--length-bound", "8", "--budget", "5")
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("argv", [
    ["check-partition", "A3", "bipartite", "--bound", "0"],
    ["check-partition", "A3", "bipartite", "--bound", "-3"],
    ["type", "A3", "bipartite", "--bound", "x"],
    ["lcm", "A2", "1", "2", "--steps", "-1"],
    ["morphism-verify", "A3", "bipartite", "--pairs", "-2"],
    ["morphism-verify", "A3", "bipartite", "--samples", "0"],
    ["morphism-verify", "A3", "bipartite", "--max-len", "0"],
    ["verify-burst", "B2", "--copies", "0"],
    ["fixed-points", "A3", "1:3,3:1,2:2", "--length-bound", "2",
     "--budget", "0"],
    ["fixed-points", "A3", "1:3,3:1,2:2", "--length-bound", "-1"],
])
def test_count_options_are_validated(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 3
    assert f"argument {argv[-2]}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["folding", "A3", "A2", "1:1,2:2,3:1,3:2"],
    ["fixed-points", "A3", "1:3,1:1,3:3,2:2", "--length-bound", "3"],
    ["orbits", "A3", "1:3,3:1,2:2,2:1"],
])
def test_vertex_map_refuses_two_images(capsys, argv):
    # a vertex with two images is an input error: keeping either image would
    # certify fibers, or check a map, that were never given
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, *argv, *json_flag)
        assert (code, out) == (3, "")
        assert err.startswith("error: vertex ") and "given two images" in err
    with pytest.raises(ValueError, match="vertex '3' is given two images, '1' and '2'"):
        cli.parse_vertex_map("1:1,3:1,3:2")


def test_vertex_map_accepts_a_repeated_pair(capsys):
    assert cli.parse_vertex_map("1:3,1:3, 3 : 1,2:2") == {"1": "3", "3": "1", "2": "2"}
    code, out, _ = run(capsys, "orbits", "A3", "1:3,1:3,3:1,2:2")
    assert code == 0 and "1,3" in out


@pytest.mark.parametrize("name, text", [
    ("graph.txt", "edge 1 2 3\nedge 2 1 4\n"),
    ("graph.json", '{"vertices": ["1", "2"], "edges": [{"i": "1", "j": "2", "m": 5},'
                   ' {"i": "1", "j": "2", "m": 3}]}'),
])
def test_graph_files_refuse_a_pair_given_two_labels(capsys, tmp_path, name, text):
    # a pair with two labels is an input error: keeping either label would
    # decide a partition of a graph that was never given
    path = tmp_path / name
    path.write_text(text)
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "check-partition", str(path), "1/2", *json_flag)
        assert (code, out) == (3, "")
        assert err.startswith("error: edge ") and "given two labels" in err


def test_orbits(capsys):
    code, out, _ = run(capsys, "orbits", "D4")
    assert code == 0
    assert "1,3,4" in out


def test_usage_errors(capsys):
    # unknown subcommands exit through argparse with the usage status
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 3
    capsys.readouterr()

    code, _, err = run(capsys, "check-partition", "Q9", "bipartite")
    assert code == 3
    assert "error" in err


def test_internal_error_exits_undecided(capsys, monkeypatch):
    # a crash decides nothing: exit 2 with the traceback, never 1 (which
    # certifies a negative)
    def crash(args):
        raise RuntimeError("internal failure")

    monkeypatch.setattr(cli, "cmd_orbits", crash)
    code, out, err = run(capsys, "orbits", "D4")
    assert code == 2
    assert out == ""
    assert "Traceback" in err and "RuntimeError: internal failure" in err


def test_console_entry_point():
    # one end-to-end subprocess: the module must also run standalone
    proc = subprocess.run(
        [sys.executable, "-m", "coxmon.cli", "check-partition", "A3",
         "bipartite", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"]["outcome"] == "admissible"


def test_spherical_commands_load_neither_mpmath_nor_dataclasses():
    # the combinatorial route of a spherical command needs no real numbers
    # and no class generation, and a run without an internal error prints
    # no traceback; a sign that needs enclosures is right and loads no
    # mpmath either
    code = """
import contextlib, io, sys
from coxmon.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["check-partition", "E8", "bipartite"]), main(["normal-form", "A3", "1,2"])]
print(codes, *(m in sys.modules for m in ("mpmath", "dataclasses", "traceback")))
from coxmon.exact import field_for_modulus
print(field_for_modulus(5).scalar((-2, 1)).sign(), "mpmath" in sys.modules)
"""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n")[:2] == ["[0, 0] False False False", "-1 False"]


def test_cold_import_loads_no_rational_arithmetic():
    # every scalar has integer coefficients, so importing the CLI loads
    # neither fractions nor the decimal and numbers modules it pulls in;
    # -S keeps the imports of site and its .pth files out of the set
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import coxmon.cli; "
            "print([m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# -- the exit-code contract on generated inputs -------------------------------


def generated_check_partition_inputs(seed, count):
    """(graph file text, partition spec, extra argv) triples: seeded graphs
    of rank <= 4 with labels in {2, ..., 6, inf}, each with valid partitions
    and malformed ones (overlapping blocks, a repeated or unknown vertex,
    an empty block, a JSON file of the wrong shape, a bad bound)."""
    rng = random.Random(seed)
    labels = ("2", "3", "4", "5", "6", "inf")
    for _ in range(count):
        verts = [str(k) for k in range(1, rng.choice((1, 2, 3, 3, 4, 4, 4)) + 1)]
        text = "".join(f"vertex {v}\n" for v in verts) + "".join(
            f"edge {a} {b} {m}\n" for a, b in itertools.combinations(verts, 2)
            if (m := rng.choice(labels)) != "2")
        for _ in range(3):
            chosen = rng.sample(verts, rng.randint(min(2, len(verts)), len(verts)))
            blocks = {}
            for v in chosen:
                blocks.setdefault(rng.randrange(len(chosen)), []).append(v)
            yield text, "/".join(",".join(b) for b in blocks.values()), []
        bad = rng.choice(verts)
        yield text, rng.choice([
            f"{bad}/{bad}",
            f"{bad},{bad}",
            f"{bad}/9",
            f"{bad},/",
            '[{"name": "a", "vertices": "' + bad + '"}]',
            "block a = " + bad + "\nblock a",
        ]), []
        yield text, "/".join(verts), ["--bound", rng.choice(["0", "-3", "x"])]


def test_check_partition_exit_contract_on_generated_inputs(capsys, tmp_path):
    codes = set()
    witnesses = 0
    for k, (text, spec, extra) in enumerate(generated_check_partition_inputs(7, 60)):
        graph = tmp_path / f"g{k}.graph"
        graph.write_text(text)
        if spec.startswith("["):
            (tmp_path / f"p{k}.json").write_text(spec)
            spec = str(tmp_path / f"p{k}.json")
        argv = ["check-partition", str(graph), spec, *extra]
        results = []
        for json_flag in ([], ["--json"]):
            try:
                code = main(argv + json_flag)
            except SystemExit as e:  # argparse refuses the option
                code = e.code
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), (argv, code)
            assert "Traceback" not in err, (argv, err)
            results.append((code, out))
        (code, _), (json_code, out) = results
        assert code == json_code, argv
        codes.add(code)
        if code == 3:
            assert out == "" and "error" in err, argv
            continue
        data = json.loads(out)
        assert (data["schema"], data["command"]) == (1, "check-partition"), argv
        if code == 1:
            w = data["verdict"]["witness"]
            witness = IncompatibleWord(tuple(w["alpha"]), tuple(w["beta"]), w["n"], w["first"])
            assert replay_witness(cli.load_graph(str(graph)), witness), (argv, w)
            witnesses += 1
    assert codes == {0, 1, 2, 3}
    assert witnesses >= 10


def generated_word_commands(seed, count):
    """(graph file text, argv) pairs for the word subcommands, argv with
    {graph} for the file: seeded graphs of rank <= 4 with labels in
    {2, ..., 6, inf}, words of up to five letters that sometimes hold an
    unknown vertex, ``normal-form``, ``lcm`` with a step budget of 1, 20 or
    500, and ``gcd`` on either side."""
    rng = random.Random(seed)
    labels = ("2", "3", "4", "5", "6", "inf")

    def word(verts):
        letters = [rng.choice(verts) for _ in range(rng.randint(0, 5))]
        if letters and rng.random() < 0.1:
            letters[rng.randrange(len(letters))] = "9"
        return ",".join(letters) or "-"

    for _ in range(count):
        verts = [str(k) for k in range(1, rng.randint(1, 4) + 1)]
        text = "".join(f"vertex {v}\n" for v in verts) + "".join(
            f"edge {a} {b} {m}\n" for a, b in itertools.combinations(verts, 2)
            if (m := rng.choice(labels)) != "2")
        yield text, ["normal-form", "{graph}", word(verts)]
        yield text, ["lcm", "{graph}", word(verts), word(verts),
                     "--side", rng.choice(["left", "right"]),
                     "--steps", rng.choice(["1", "20", "500"])]
        yield text, ["gcd", "{graph}", word(verts), word(verts),
                     "--side", rng.choice(["left", "right"])]


def test_word_commands_exit_contract_on_generated_inputs(capsys, tmp_path):
    codes = set()
    for k, (text, argv) in enumerate(generated_word_commands(11, 100)):
        graph = tmp_path / f"g{k}.graph"
        graph.write_text(text)
        argv = [str(graph) if a == "{graph}" else a for a in argv]
        results = []
        for json_flag in ([], ["--json"]):
            code = main(argv + json_flag)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), (argv, code)
            assert "Traceback" not in err, (argv, err)
            if code == 3:
                assert out == "" and "error" in err, argv
            elif code == 2:  # only a budget leaves an lcm undecided
                assert "step budget exhausted" in err, argv
                if json_flag:
                    data = json.loads(out)
                    assert data == {"schema": 1, "command": argv[0], "outcome": "unknown",
                                    "reason": err.strip()}, argv
                else:
                    assert out == "", argv
            elif json_flag:
                data = json.loads(out)
                assert (data["schema"], data["command"]) == (1, argv[0]), argv
            results.append(code)
        assert results[0] == results[1], argv
        codes.add(code)
    assert codes == {0, 1, 2, 3}


def generated_other_commands(seed, count):
    """(graph file texts, argv) pairs for the eight subcommands that take
    neither a partition check nor words, argv with {graph} and {base} for
    the files: seeded graphs of rank <= 4 (rank <= 3 for ``verify-burst``)
    with labels in {2, ..., 6, inf}, valid and malformed partitions, vertex
    maps that are automorphisms, other bijections or malformed, and counts
    and bounds that are sometimes 0, negative or not numbers."""
    rng = random.Random(seed)
    labels = ("2", "3", "4", "5", "6", "inf")

    def graph(max_rank):
        verts = [str(k) for k in range(1, rng.randint(1, max_rank) + 1)]
        return verts, "".join(f"vertex {v}\n" for v in verts) + "".join(
            f"edge {a} {b} {m}\n" for a, b in itertools.combinations(verts, 2)
            if (m := rng.choice(labels)) != "2")

    def number(*good):
        return rng.choice(good) if rng.random() < 0.85 else rng.choice(["0", "-3", "x"])

    def partition(verts):
        if rng.random() < 0.2:
            bad = rng.choice(verts)
            return rng.choice(["bipartite", f"{bad}/{bad}", f"{bad},9", f"{bad},/"])
        chosen = rng.sample(verts, rng.randint(1, len(verts)))
        blocks = {}
        for v in chosen:
            blocks.setdefault(rng.randrange(len(chosen)), []).append(v)
        return "/".join(",".join(b) for b in blocks.values())

    def vertex_map(verts, text):
        roll = rng.random()
        if roll < 0.5:
            a = rng.choice(automorphisms(parse_graph(text)))
        elif roll < 0.8:
            a = dict(zip(verts, rng.sample(verts, len(verts))))
        else:
            v = rng.choice(verts)
            return rng.choice([v, f"{v}:9", f"{v}:{v}", f"{v}:{verts[0]},{verts[0]}:{v}"])
        return ",".join(f"{u}:{v}" for u, v in a.items())

    for _ in range(count):
        verts, text = graph(4)
        maps = [vertex_map(verts, text) for _ in range(rng.randint(0, 2))]
        yield text, None, ["type", "{graph}", partition(verts), "--bound", number("2", "10")]
        yield text, None, ["classify", "{graph}", "--bound", number("4", "64")]
        yield text, None, ["burst", "{graph}"] + rng.choice(
            [[], ["--copies", number("1", "2", "30")]])
        yield text, None, ["morphism-verify", "{graph}", partition(verts),
                           "--pairs", number("1", "3"), "--samples", number("1", "3"),
                           "--max-len", number("1", "3"), "--steps", number("1", "50")]
        yield text, None, ["fixed-points", "{graph}", *(maps or [vertex_map(verts, text)]),
                           "--length-bound", number("0", "2", "4"),
                           "--budget", number("1", "5", "1000")]
        yield text, None, ["orbits", "{graph}", *maps, "--bound", number("2", "10")]
        base_verts, base = graph(len(verts))
        images = base_verts + [rng.choice(base_verts) for _ in verts[len(base_verts):]]
        rng.shuffle(images)
        mapping = ",".join(f"{u}:{v}" for u, v in zip(verts, images))
        if rng.random() < 0.2:
            mapping = rng.choice([mapping + ",9:1", mapping.split(",")[0], "1"])
        yield text, base, ["folding", "{graph}", "{base}", mapping, "--bound", number("4", "16")]
        verts, text = graph(3)
        yield text, None, ["verify-burst", "{graph}", "--bound", number("4", "16")]


def test_other_commands_exit_contract_on_generated_inputs(capsys, tmp_path):
    codes, commands = set(), set()
    for k, (text, base, argv) in enumerate(generated_other_commands(13, 25)):
        (tmp_path / f"g{k}.graph").write_text(text)
        if base is not None:
            (tmp_path / f"b{k}.graph").write_text(base)
        argv = [a.format(graph=tmp_path / f"g{k}.graph", base=tmp_path / f"b{k}.graph")
                for a in argv]
        results = []
        for json_flag in ([], ["--json"]):
            try:
                code = main(argv + json_flag)
            except SystemExit as e:  # argparse refuses the option
                code = e.code
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), (argv, code)
            assert "Traceback" not in err, (argv, err)
            if code == 3:
                assert out == "" and "error" in err, argv
            elif json_flag:
                data = json.loads(out)
                assert (data["schema"], data["command"]) == (1, argv[0]), argv
                if "step budget exhausted" in err:
                    assert code == 2 and data == {
                        "schema": 1, "command": argv[0], "outcome": "unknown",
                        "reason": err.strip()}, argv
            results.append(code)
        assert results[0] == results[1], argv
        codes.add(code)
        commands.add(argv[0])
    assert codes == {0, 1, 2, 3}
    assert commands == {"type", "classify", "burst", "verify-burst", "morphism-verify",
                        "folding", "fixed-points", "orbits"}


# -- golden output ---------------------------------------------------------

# argv (with {open} for a graph file that has an infinite label), exit
# code, and the first 16 hex digits of the sha256 of stdout, recorded
# before the report records and the CLI encoders were unified: every
# subcommand in text and JSON, the exit 1, 2 and 3 cases, and each help
# text at 80 columns.  The two --json runs that exhaust a budget were
# re-recorded when such a run gained its "unknown" envelope, the two runs
# of ``type`` on a non-spherical block were added when that became an input
# error, and the four runs of ``folding`` and ``fixed-points`` on a map that
# gives one vertex two images were added when that became one
GOLDEN = [
    ("check-partition A3 bipartite", 0, "5f7ef0b28b6261eb"),
    ("check-partition A3 bipartite --json", 0, "9dc280790a687b05"),
    ("check-partition B3 bipartite", 0, "d722502c7bf614c0"),
    ("check-partition B3 bipartite --json", 0, "edfe428c0610bc9c"),
    ("check-partition H4 1,4/2,3", 1, "817a623eb22f801a"),
    ("check-partition H4 1,4/2,3 --json", 1, "baa439e4be994eae"),
    ("check-partition A3 1/2,3", 1, "926c2d0de7537bb5"),
    ("check-partition A3 1/2,3 --json", 1, "5de20bf24676fd52"),
    ("check-partition {open} 1,3/2 --bound 10", 2, "5c166a109574c3e7"),
    ("check-partition {open} 1,3/2 --bound 10 --json", 2, "27b6f690281f2fcd"),
    ("check-partition A3 1,2/2,3", 3, "e3b0c44298fc1c14"),
    ("check-partition A3 1,2/2,3 --json", 3, "e3b0c44298fc1c14"),
    ("type E6 1,2,6/3,4,5", 0, "bf8f1682ed197165"),
    ("type E6 1,2,6/3,4,5 --json", 0, "33e38062e3b04032"),
    ("type {open} 1,3/2 --bound 10", 2, "567f26336c188d35"),
    ("type {open} 1,3/2 --bound 10 --json", 2, "9d544180c1253539"),
    ("type Atilde3 1,2,3,4", 3, "e3b0c44298fc1c14"),
    ("type Atilde3 1,2,3,4 --json", 3, "e3b0c44298fc1c14"),
    ("classify A4", 0, "6060ccebc98b488b"),
    ("classify A4 --json", 0, "e563d2f82f902d97"),
    ("classify F4", 0, "d1ff3129ab191092"),
    ("classify F4 --json", 0, "281ec3ebf4f9704c"),
    ("burst B2 --copies 3", 0, "c70dcbf8c2e8886d"),
    ("burst B2 --copies 3 --json", 0, "d3a70061e10d5c0e"),
    ("burst I2(inf)", 0, "6c1a4de53086e035"),
    ("burst I2(inf) --json", 0, "b0331039db7effbe"),
    ("verify-burst H3", 0, "4cd0d0ba7fa18b62"),
    ("verify-burst H3 --json", 0, "42fa639a2d79bdb9"),
    ("verify-burst I2(inf)", 0, "29b4fa0107268e85"),
    ("verify-burst I2(inf) --json", 0, "d1c44561811c5eff"),
    ("normal-form A2 1,1,2,1", 0, "2f6fd3e4d077333f"),
    ("normal-form A2 1,1,2,1 --json", 0, "d79402b42bb5a79c"),
    ("normal-form A3 -", 0, "21c3675576656027"),
    ("normal-form A3 - --json", 0, "0019b2c38859e93a"),
    ("normal-form A3 1,9", 3, "e3b0c44298fc1c14"),
    ("normal-form A3 1,9 --json", 3, "e3b0c44298fc1c14"),
    ("lcm A2 1 2", 0, "41f71e872294c29b"),
    ("lcm A2 1 2 --json", 0, "545a0e8aeb2f0649"),
    ("lcm E8 1,3,2 4,5 --side left", 0, "24c6c97b7c78e551"),
    ("lcm E8 1,3,2 4,5 --side left --json", 0, "2ac1ebd46e045407"),
    ("lcm I2(inf) 1 2", 1, "0cadb6bfcb66af10"),
    ("lcm I2(inf) 1 2 --json", 1, "79a10bf3e275fec0"),
    ("lcm Atilde3 1,3 2,4 --steps 500", 2, "e3b0c44298fc1c14"),
    ("lcm Atilde3 1,3 2,4 --steps 500 --json", 2, "c80f150378420264"),
    ("gcd A2 1,1,2 1,2", 0, "337cd3be69f23e1a"),
    ("gcd A2 1,1,2 1,2 --json", 0, "9bcdcc53cad1bdc4"),
    ("gcd B3 1,2,3 3,2,1 --side right", 0, "21c3675576656027"),
    ("gcd B3 1,2,3 3,2,1 --side right --json", 0, "5da60371e6f8124c"),
    ("morphism-verify B3 bipartite --pairs 10 --samples 5", 0, "254d86a428e4aed9"),
    ("morphism-verify B3 bipartite --pairs 10 --samples 5 --json", 0, "cdaac13d20dd8f33"),
    ("morphism-verify Atilde3 1,3/2,4 --pairs 4 --samples 2 --max-len 3 --steps 50", 0, "97cc2f66eec8b863"),
    ("morphism-verify Atilde3 1,3/2,4 --pairs 4 --samples 2 --max-len 3 --steps 50 --json", 0, "8b707ac1534369cb"),
    ("folding E6 F4 1:1,6:1,3:2,5:2,4:3,2:4", 0, "f91fec8b3774c474"),
    ("folding E6 F4 1:1,6:1,3:2,5:2,4:3,2:4 --json", 0, "8963f8b7f7682ef6"),
    ("folding A3 I2(3) 1:1,3:1,2:2", 1, "cf5d66fc317d8ebc"),
    ("folding A3 I2(3) 1:1,3:1,2:2 --json", 1, "5033a7579b98fc7b"),
    ("folding I2(inf) A1 1:1,2:1", 3, "e3b0c44298fc1c14"),
    ("folding I2(inf) A1 1:1,2:1 --json", 3, "e3b0c44298fc1c14"),
    ("folding A3 A2 1:1,2:2,3:1,3:2", 3, "e3b0c44298fc1c14"),
    ("folding A3 A2 1:1,2:2,3:1,3:2 --json", 3, "e3b0c44298fc1c14"),
    ("fixed-points A3 1:3,3:1,2:2 --length-bound 6", 0, "9518fdd2dc1b63f1"),
    ("fixed-points A3 1:3,3:1,2:2 --length-bound 6 --json", 0, "83b1fa208b5d8f7b"),
    ("fixed-points A3 1:3,3:1,2:2 --length-bound 8 --budget 5", 2, "e3b0c44298fc1c14"),
    ("fixed-points A3 1:3,3:1,2:2 --length-bound 8 --budget 5 --json", 2, "12e40a46fadc58df"),
    ("fixed-points A3 1:3,1:1,3:3,2:2 --length-bound 3", 3, "e3b0c44298fc1c14"),
    ("fixed-points A3 1:3,1:1,3:3,2:2 --length-bound 3 --json", 3, "e3b0c44298fc1c14"),
    ("orbits D4", 0, "2cd94dc97871b862"),
    ("orbits D4 --json", 0, "ad8dd1112b03ba04"),
    ("orbits A3 1:3,3:1,2:2", 0, "a8e69a8f4d15a0b4"),
    ("orbits A3 1:3,3:1,2:2 --json", 0, "24bd7929d1438e3e"),
    ("--help", 0, "c6b580269cd2af3f"),
    ("check-partition --help", 0, "a2da79695a996e2d"),
    ("type --help", 0, "f9edf36f758d2fa6"),
    ("classify --help", 0, "201ab70fdc20ae25"),
    ("burst --help", 0, "ce74926c32cc088e"),
    ("verify-burst --help", 0, "3362c54b1dd5b11d"),
    ("normal-form --help", 0, "62dadd5c603203a9"),
    ("lcm --help", 0, "66d788b6fc6d811c"),
    ("gcd --help", 0, "f41dd88313f6a3d7"),
    ("morphism-verify --help", 0, "5b4ecbf2741ad0df"),
    ("folding --help", 0, "e0cec48e801e3943"),
    ("fixed-points --help", 0, "512b164d54c6d4dd"),
    ("orbits --help", 0, "8e894e56d19851de"),
]
# argparse lays out help text differently from one Python release to the
# next; the help digests were recorded with this one
HELP_PYTHON = (3, 11)


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, monkeypatch, tmp_path, argv, code, digest):
    if "--help" in argv and sys.version_info[:2] != HELP_PYTHON:
        pytest.skip(f"help digests are for Python {HELP_PYTHON}")
    monkeypatch.setenv("COLUMNS", "80")
    graph = tmp_path / "open.graph"
    graph.write_text("edge 1 2 3\nedge 2 3 inf\n")
    try:
        got = main(argv.format(open=graph).split())
    except SystemExit as e:  # --help
        got = e.code
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest), out
