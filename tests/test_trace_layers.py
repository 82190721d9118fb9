"""The benchmark's tracer (`perfbench/trace.py`) rebinds every pntap name in
its `LAYERS` list.  A renamed or removed name would crash only a traced
benchmark run, so each one is resolved here, without installing the tracer.
"""
import importlib

from perfbench.trace import LAYERS


def test_every_traced_name_resolves():
    missing = []
    for module, attr, *_ in LAYERS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing
