"""The benchmark tracer's layer and solver names resolve on the strictq modules.

``benchmarks/tracer.py`` names every traced function by module and
attribute, and the dense solvers whose flops it counts by their names on
``strictq.weyl``; a rename in ``src`` would otherwise surface only as a
crash of a traced benchmark run, and so would a layer that ``import
strictq.cli`` no longer loads.  The tracer is loaded by path, unchanged.
"""

import importlib
import importlib.util
import subprocess
import sys
from functools import reduce
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("strictq_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(layer, name):
    module = importlib.import_module(f"strictq.{layer}")
    try:
        return callable(reduce(getattr, name.split("."), module))
    except AttributeError:
        return False


def test_tracer_layers_resolve():
    layers = load_tracer().LAYERS
    names = [(layer, name) for layer, names in layers.items() for name in names]
    assert names
    missing = [f"{layer}.{name}" for layer, name in names if not resolves(layer, name)]
    assert missing == []


def test_tracer_op_norm_solvers_resolve():
    solvers = list(load_tracer().OP_NORM_SOLVERS)
    assert solvers
    assert [name for name in solvers if not resolves("weyl", name)] == []


def test_cli_import_loads_every_traced_layer():
    # the tracer finds its layers in sys.modules of a fresh ``import strictq.cli``
    code = (f"import sys; sys.path.insert(0, {str(TRACER.parents[1] / 'src')!r}); "
            "import strictq.cli; print([m for m in sys.argv[1:] if m not in sys.modules])")
    modules = [f"strictq.{layer}" for layer in load_tracer().LAYERS]
    done = subprocess.run([sys.executable, "-c", code, *modules], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
