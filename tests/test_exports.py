import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import maskgrpo

MODULES = sorted(info.name for info in pkgutil.iter_modules(maskgrpo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"maskgrpo.{name}")
    assert module.__all__, f"maskgrpo.{name} exports nothing"
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"maskgrpo.{name}.__all__ names {missing}, which the module does not define"


def test_package_names_are_the_objects_their_modules_export():
    public = {
        name: obj
        for name, obj in vars(maskgrpo).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public
    for name, obj in public.items():
        module = importlib.import_module(obj.__module__)
        assert name in module.__all__, f"{name} is not in {obj.__module__}.__all__"
        assert getattr(module, name) is obj, f"maskgrpo.{name} is not {obj.__module__}.{name}"


# The names the benchmark's files bind to maskgrpo modules.
BENCH_MODULES = {"mg": "maskgrpo", "harness": "maskgrpo.harness", "grpo": "maskgrpo.grpo"}
BENCH_FILES = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_every_name_the_benchmark_reads_resolves(path):
    # Tier-1 does not run the workloads, so a name that only they reach is guarded here.
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in BENCH_MODULES
    }
    missing = [
        f"{alias}.{attr}"
        for alias, attr in sorted(read)
        if not hasattr(importlib.import_module(BENCH_MODULES[alias]), attr)
    ]
    assert not missing, f"bench/{path.name} reads {missing}, which maskgrpo no longer defines"
