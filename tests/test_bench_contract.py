"""The names the benchmark in bench/ reaches into must exist and be live.

bench/tracing.py replaces module globals of pinchsec.harness and
pinchsec.game with timed wrappers, and bench/probes.py imports its inputs
from the package; both are loaded here from the checkout.  A rename, a
trimmed export or a runner that captured a function at import would
otherwise only show when a traced benchmark run breaks or reads zero.
"""

import importlib.util
from pathlib import Path

import pytest

from pinchsec import ExperimentConfig, game, harness, run_convergence_study, run_power_sweep

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_probes_import_from_the_package():
    assert callable(_load("probes").run_all)


def test_every_traced_name_exists(tracing):
    for module, name, _ in tracing.SPANNED:
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"
    for module, name in ((harness, "SecrecyEvaluator"), (harness, "drop_seed"),
                         (game, "shapley_value")):
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"


def test_studies_call_the_traced_names(tracing):
    methods = ("initial-single-antenna", "shapley", "coalition-value", "brute-force",
               "annealing", "fixed-ula")
    with tracing.Tracer() as tracer:
        run_power_sweep(ExperimentConfig(n_antennas=5, trials=1, power_dbm_axis=(10.0,),
                                         methods=methods, sa_steps=10))
        run_convergence_study(ExperimentConfig(n_antennas=5, trials=1))
        tracer.close()
    for _, name, _ in tracing.SPANNED:
        assert tracer.calls[name] > 0, name
    assert tracer.evaluators == 2
    assert tracer.scan_cycles > 0
    assert len(tracer.cpu_s) == 2
