"""Validation must not depend on ``assert``: run the graph, record, exact,
element, partition, monoid, morphism and CLI tests again under ``python -O``,
which strips assert statements from the library (pytest still rewrites the
asserts of the test modules)."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_suite_subset_passes_under_optimize():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_graphs.py", "tests/test_records.py", "tests/test_exact.py",
         "tests/test_elements.py", "tests/test_partitions.py", "tests/test_monoid.py",
         "tests/test_morphisms.py", "tests/test_cli.py"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
