import json
import os
import pathlib
import subprocess
import sys

import pytest

from coxmon import cli
from coxmon.cli import main


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
    # and no class generation; mpmath loads on the first sign that needs
    # enclosures, and that sign is right
    code = """
import contextlib, io, sys
from coxmon.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["check-partition", "E8", "bipartite"]), main(["normal-form", "A3", "1,2"])]
print(codes, "mpmath" in sys.modules, "dataclasses" in sys.modules)
from coxmon.exact import field_for_modulus
print(field_for_modulus(5).scalar((-2, 1)).sign(), "mpmath" in sys.modules)
"""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n")[:2] == ["[0, 0] False False", "-1 True"]
