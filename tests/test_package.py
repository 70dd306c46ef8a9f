"""The package's public surface is its version and its modules: each name
has one home, the module that defines it."""

import types

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
