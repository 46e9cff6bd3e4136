"""The benchmark calls into the package by name: the tracer
(perfbench/tracer.py) wraps the public functions it lists in TRACED, and
the workloads (perfbench/workloads.py) call package functions. Each of
those names must still exist, each workload call must still bind to its
function's signature, and each parameter a tracer annotator reads by name
must still be a parameter of the functions it annotates."""
import ast
import importlib
import importlib.util
import inspect
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


WORKLOADS = TRACER.with_name("workloads.py")


def workload_uses():
    """(module, attribute, call or None) for every attribute of a package
    module that perfbench/workloads.py reads, from its source alone; call
    is the ast.Call when the attribute is called there."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "ramanfuse"
               for alias in node.names}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return modules, [
        (node.value.id, node.attr, calls.get(id(node))) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]


def test_every_package_name_the_workloads_use_resolves_and_binds():
    modules, uses = workload_uses()
    assert {"cli", "experiments", "svm", "spectral", "dataio", "synth"} <= modules
    assert {"run_bovw_cv", "run_pls_cv"} <= {attr for _, attr, _ in uses}
    for module_name, attr, call in uses:
        owner = importlib.import_module(f"ramanfuse.{module_name}")
        assert hasattr(owner, attr), f"ramanfuse.{module_name}.{attr} is gone"
        if call is None:
            continue
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(keyword.arg is not None for keyword in call.keywords)
        try:
            inspect.signature(getattr(owner, attr)).bind(
                *call.args, **{keyword.arg: keyword.value for keyword in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"workloads.py line {call.lineno}: "
                                 f"{module_name}.{attr} {exc}") from None


def annotator_reads():
    """(module, attribute, names) for every TRACED entry with an annotator,
    from perfbench/tracer.py's source alone: names are the parameter names
    that annotator passes to _arg."""
    tree = ast.parse(TRACER.read_text())
    reads = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            calls = [call for call in ast.walk(node) if isinstance(call, ast.Call)
                     and isinstance(call.func, ast.Name) and call.func.id == "_arg"]
            assert all(isinstance(call.args[3], ast.Constant) for call in calls)
            reads[node.name] = {call.args[3].value for call in calls}
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [target.id for target in node.targets] == ["TRACED"])
    return [(module_name.value, attr.value, reads[annotator.id])
            for module_name, attr, annotator in (entry.elts for entry in traced.elts)
            if isinstance(annotator, ast.Name)]


def test_every_parameter_an_annotator_reads_exists():
    uses = annotator_reads()
    assert {"path", "cube", "img", "descriptors", "dictionary"} == set().union(
        *(names for _, _, names in uses))
    for module_name, attr, names in uses:
        owner = importlib.import_module(f"ramanfuse.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        missing = names - set(inspect.signature(owner).parameters)
        assert not missing, f"ramanfuse.{module_name}.{attr} has no parameter {sorted(missing)}"
