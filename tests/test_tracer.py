"""The benchmark's per-layer tracer (``bench/tracer.py``) on the loaded package.

The tracer wraps module attributes by name, including the two scipy entry
points ``varmms.gradients.minimize`` and ``varmms.gradients.linprog``, so a
rename in the package that breaks ``bench/run.py --trace 1`` fails here.
"""
import importlib.util
import pathlib

import numpy as np
import scipy.optimize

import varmms
import varmms.cli  # noqa: F401  (the tracer wraps every layer, cli included)
from varmms import gradients
from varmms.generators import line_space

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("varmms_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes():
    tracer = load_tracer().Tracer()
    original = gradients.minimal_scalar_gradient
    tracer.install()
    try:
        assert gradients.linprog is not scipy.optimize.linprog
        assert gradients.minimize is not scipy.optimize.minimize
        sol = varmms.minimal_scalar_gradient(line_space(4), np.arange(4.0), 0.5, 1.0)
    finally:
        tracer.remove()
    assert sol.info["path"] == "lp"
    assert gradients.linprog is scipy.optimize.linprog
    assert gradients.minimize is scipy.optimize.minimize
    assert gradients.minimal_scalar_gradient is original
    assert varmms.minimal_scalar_gradient is original
    totals = tracer.aggregate()
    assert totals["gradients.scalar.calls"] == 1
    assert totals.get("gradients.scipy_linprog.calls", 0) == 0


def test_tracer_counts_slsqp_of_the_besov_bisection():
    # gradients imports minimize on first use and _slsqp looks it up on the
    # module, so the tracer's wrapper still sees every SLSQP solve
    tracer = load_tracer().Tracer()
    with tracer:
        sol = varmms.minimal_vector_gradient(line_space(3), np.array([0.0, 1.0, 0.3]), 0.5,
                                             [1.2, 1.8, 1.5], [0.8, 1.3, 1.2], scale="lq_lp")
    assert sol.info["path"] == "bisection"
    totals = tracer.aggregate()
    assert totals["gradients.scipy_minimize.calls"] > 0
    assert gradients.minimize is scipy.optimize.minimize
