"""The benchmark tracer (perfbench/tracer.py) wraps the public functions it
lists in TRACED by name; each of them must still exist in the package."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, _ in module.TRACED]


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for module_name, attr in names:
        owner = importlib.import_module(f"ramanfuse.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"ramanfuse.{module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"ramanfuse.{module_name}.{attr} is not callable"
