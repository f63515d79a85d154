"""The traced benchmark (``perfbench/spans.py``) wraps qollide's public names
and reads argument names at the call boundary; these tests keep the names
it depends on in place."""

import importlib
import importlib.util
import inspect
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")

# the arguments each size function reads, by layer
SIZE_ARGUMENTS = {
    "dynamics.integrate_master": ("t_end", "dt"),
    "dynamics.collision_chain": ("t_end", "dt", "scheme", "n_trajectories"),
    "dynamics.ladder_history": ("t_end", "dt"),
    "dynamics.Trajectory.from_states": ("times",),
    "baths.load_bath_csv": ("path",),
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _public(module_name, name):
    obj = importlib.import_module(f"qollide.{module_name}")
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_layer_names_a_function(spans):
    for module_name, name, *_ in spans.LAYERS:
        assert callable(_public(module_name, name)), f"{module_name}.{name}"


def test_size_functions_read_existing_arguments(spans):
    sized = {f"{m}.{n}" for m, n, _, _, size_fn in spans.LAYERS if size_fn is not None}
    # every sized layer is listed here, except those sized by their first
    # argument or their result
    assert set(SIZE_ARGUMENTS) <= sized
    for label, names in SIZE_ARGUMENTS.items():
        params = inspect.signature(_public(*label.split(".", 1))).parameters
        for name in names:
            assert name in params, f"{label} lost argument {name!r}"


def test_install_and_uninstall(spans, capsys):
    from qollide import cli, dynamics

    main, ladder_history = cli.main, dynamics.ladder_history
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main is not main
        code = cli.main(["evolve", "--engine", "ode", "--bath", "dicke", "--N", "2",
                         "--k", "1", "--t-end", "0.01", "--dt", "0.001", "--n-points", "3"])
        assert code == 0
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert cli.main is main and dynamics.ladder_history is ladder_history
    assert totals["dynamics.integrate_master.steps"] == 10
    assert totals["dynamics.Trajectory.from_states.records"] == 3
