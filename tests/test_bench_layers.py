"""The traced benchmark names program functions by owner and attribute; each
name must resolve, or a traced run would stop at install time.  It wraps the
kernel functions on the kernel module, so the program must reach them there."""

import importlib
import importlib.util
import pathlib
import pkgutil

from superquant import supercore

TRACING = pathlib.Path(__file__).parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(owner: str, attr: str):
    if owner == "@kernel":
        holder = supercore._ops
    elif ":" in owner:
        module, cls = owner.split(":")
        holder = getattr(importlib.import_module(module), cls, None)
    else:
        holder = importlib.import_module(owner)
    return getattr(holder, attr, None)


def test_every_traced_layer_resolves():
    layers = _load_tracing().LAYERS
    pairs = [pair for pairs in layers.values() for pair in pairs]
    assert len(pairs) >= len(layers)
    missing = [
        f"{owner} {attr}" for owner, attr in pairs if not callable(_resolve(owner, attr))
    ]
    assert missing == []


def test_no_module_binds_a_kernel_function():
    # a kernel function bound by name elsewhere would run past the tracer,
    # and the traced supercore counts would miss its calls
    kernel = importlib.import_module("superquant._termops_py")
    package = importlib.import_module("superquant")
    modules = [package] + [
        importlib.import_module(f"superquant.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    assert kernel in modules
    bound = [
        f"{module.__name__}.{name}"
        for module in modules
        if module is not kernel
        for name, value in vars(module).items()
        if getattr(value, "__module__", None) == kernel.__name__
    ]
    assert bound == []
