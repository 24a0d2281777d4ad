"""The benchmark's tracer (symbench/tracer.py) wraps symflow functions by
module and name.  A name that no longer resolves reports 0 calls and a note
instead of stopping the run, so a rename would silently drop a layer from
the per-layer metrics.  These tests read the tracer's targets without
changing the file."""

import importlib
import importlib.util
import inspect
import os

from symflow import numeric

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "symbench", "tracer.py")

# names symflow dropped on purpose; the tracer reports 0 calls for them
GONE = {
    ("expr", "evaluate_scaled"),
    ("numeric", "damped_newton"),
    ("numeric", "rk4_step"),
    ("numeric", "rk4_final"),
}


def tracer_targets():
    spec = importlib.util.spec_from_file_location("symbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, name) for module_name, name, *_ in module.TARGETS]


def test_every_traced_name_resolves():
    missing = {
        (module_name, name)
        for module_name, name in tracer_targets()
        if not callable(getattr(importlib.import_module(f"symflow.{module_name}"), name, None))
    }
    assert missing <= GONE, f"traced names gone from symflow: {sorted(missing - GONE)}"


def test_variational_counter_arguments_keep_their_positions():
    # the tracer's rows x steps counter reads z0 and steps by position
    params = list(inspect.signature(numeric.rk4_variational).parameters)
    assert params[2] == "z0" and params[4] == "steps"
