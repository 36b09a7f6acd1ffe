"""Every benchmark trace site and every exported name resolves in the package,
and the benchmark workloads still build their input records.

The span tracer in ``perfbench/tracer.py`` skips a site whose function is gone
and only notes it in the run's output, so a rename or deletion here would
silently drop a benchmark layer.  The workloads in ``perfbench/workloads.py``
read configuration attributes that the package must keep.  Both files are
loaded by path, unchanged.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import pslwave

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trace_sites() -> tuple:
    return load_perfbench("tracer").SITES


MODULES = ["pslwave"] + [f"pslwave.{info.name}" for info in pkgutil.iter_modules(pslwave.__path__)]


@pytest.mark.parametrize("module_name,attr,span", trace_sites(), ids=lambda v: str(v))
def test_trace_site_resolves(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), span


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def exported_callables(module):
    """(label, function) for each function in ``__all__`` and, for each class
    there, its ``__init__``, ``__call__`` and public methods."""
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if inspect.isclass(obj):
            for attr in vars(obj):
                if attr in ("__init__", "__call__") or not attr.startswith("_"):
                    yield f"{name}.{attr}", getattr(obj, attr)
        else:
            yield name, obj


@pytest.mark.parametrize("module_name", MODULES)
def test_no_exported_name_takes_an_underscore_parameter(module_name):
    # a private keyword on a public call is a side channel (carried arrays,
    # precomputed radii) that the signature hides from its readers
    found = [
        f"{label}({param})"
        for label, func in exported_callables(importlib.import_module(module_name))
        if inspect.isfunction(func) or inspect.ismethod(func)
        for param in inspect.signature(func).parameters
        if param.startswith("_")
    ]
    assert found == []


def test_workload_input_records_build(monkeypatch):
    # the workloads import their sibling modules by plain name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = load_perfbench("workloads")
    assert workloads.OptimizeDefault(0, tiny=True).input_size["accelerated"] is True
    assert workloads.Evaluate(0, tiny=True).input_size["N"] == workloads.TINY["n_subcarriers"]
