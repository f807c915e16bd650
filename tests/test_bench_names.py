"""Every name the benchmark binds resolves on the imported package.

The benchmark (`perfbench/`) wraps qfock functions and methods by name:
the tracer's tables in `tracing.py`, the modules `run.py` imports and
rebinds in, and each `qf.<module>.<name>` a workload of `workloads.py`
reads.  A rename in `src` that drops one of them would fail only a traced
benchmark run; here it fails in a second.  The tables are read from the
files' text, and nothing under `perfbench/` is imported.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def constants(path: Path, names: tuple) -> dict:
    """The literal values of the module-level assignments to names."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id in names):
            out[node.targets[0].id] = ast.literal_eval(node.value)
    assert sorted(out) == sorted(names)
    return out


TABLES = constants(BENCH / "tracing.py", ("TIMED_FUNCTIONS", "TIMED_METHODS",
                                          "COUNTED_METHODS", "GENERATORS"))
MODULES = constants(BENCH / "run.py", ("MODULES",))["MODULES"]
WORKLOAD_NAMES = sorted(set(re.findall(r"\bqf\.(\w+)\.(\w+)",
                                       (BENCH / "workloads.py").read_text())))
FUNCTIONS = TABLES["TIMED_FUNCTIONS"] + TABLES["GENERATORS"]
METHODS = TABLES["TIMED_METHODS"] + TABLES["COUNTED_METHODS"]


def module(name: str):
    return importlib.import_module(f"qfock.{name}")


def test_tables_are_read():
    assert FUNCTIONS and METHODS and TABLES["GENERATORS"] and WORKLOAD_NAMES
    assert "cli" in MODULES


@pytest.mark.parametrize("prefix, mod, attr", FUNCTIONS, ids=[f[0] for f in FUNCTIONS])
def test_traced_function_resolves(prefix, mod, attr):
    # the tracer rebinds a function only in the modules run.py imports
    assert mod in MODULES
    assert inspect.isfunction(getattr(module(mod), attr))


@pytest.mark.parametrize("prefix, mod, cls, attr", METHODS,
                         ids=[f"{m[0]}:{m[2]}" for m in METHODS])
def test_traced_method_resolves(prefix, mod, cls, attr):
    assert mod in MODULES
    assert callable(getattr(getattr(module(mod), cls), attr))


@pytest.mark.parametrize("prefix, mod, attr", TABLES["GENERATORS"],
                         ids=[g[0] for g in TABLES["GENERATORS"]])
def test_counted_generator_is_a_generator_function(prefix, mod, attr):
    # the tracer counts yields by iterating what the function returns
    assert inspect.isgeneratorfunction(getattr(module(mod), attr))


@pytest.mark.parametrize("mod, attr", WORKLOAD_NAMES,
                         ids=[f"{m}.{a}" for m, a in WORKLOAD_NAMES])
def test_workload_name_resolves(mod, attr):
    assert mod in MODULES
    assert hasattr(module(mod), attr)
