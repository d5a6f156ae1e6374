"""The benchmark's tracer (``perfbench/tracing.py``) patches library
functions and methods by name: ``Tracer.install()`` reads each traced
attribute from ``vars()`` of its owner, the module or the class named in the
path, and ``cache_info()`` reads ``cache_info`` off each listed cache.  A
traced method moved onto a base class would only break the benchmark's
traced runs, so this checks the table against the library.  The tracer is
compiled from its source, so nothing is written under ``perfbench/``."""

import importlib
import pathlib
import types

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_tables_name_library_bindings():
    import coxmon  # noqa: F401

    tracing = _tracing()
    for name, targets in tracing.TRACED.items():
        for mod, path in targets:
            owner = importlib.import_module(mod)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            assert attr in vars(owner), f"{name}: {mod}.{path}"
    for name, (mod, attr) in tracing.CACHES.items():
        assert hasattr(getattr(importlib.import_module(mod), attr), "cache_info"), name
