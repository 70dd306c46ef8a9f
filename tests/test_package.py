"""The package's public surface is its version and its modules: each name
has one home, the module that defines it."""

import ast
import sys
import types
from pathlib import Path

import pytest

import bitcontext


def test_public_names_are_the_version_and_the_modules():
    public = {k: v for k, v in vars(bitcontext).items() if not k.startswith("_")}
    assert isinstance(bitcontext.__version__, str)
    assert not hasattr(bitcontext, "__all__")
    for name, value in public.items():
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"bitcontext.{name}"
    # read off the package, without importing them, by the per-layer tracer
    assert {"autograd", "bittensor", "blocks", "network", "train"} <= set(public)


def test_imports_need_only_the_declared_numpy_floor():
    """Every import in the package is the standard library, numpy or the
    package itself, and pyproject.toml declares numpy >= 2.0, the first
    release with np.bitwise_count."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    src = Path(bitcontext.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                assert top in sys.stdlib_module_names or top in ("numpy", "bitcontext"), \
                    f"{path.name} imports {top}"
    project = tomllib.loads((src.parents[1] / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
