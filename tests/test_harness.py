import math
import os
import statistics
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsec import (
    AnnealingSchedule,
    AntennaLayout,
    CapacityError,
    ExperimentConfig,
    LinkBudget,
    Scenario,
    aggregate_rows,
    coalitions,
    run_antenna_sweep,
    run_convergence_study,
    run_power_sweep,
    write_outputs,
)
from pinchsec import game, harness, secrecy
from pinchsec.coalitions import ENUMERATION_CAP
from pinchsec.harness import (ResultRow, apply_overrides, build_trial, config_from_ini, drop_seed,
                              effective_config_ini, emit_csv, method_seed)
from helpers import to_rows

TINY = dict(trials=2, n_antennas=5, power_dbm_axis=(0.0, 10.0), antenna_axis=(3, 5))


def _row_key(row):
    return tuple(getattr(row, f.name) for f in fields(ResultRow) if f.name != "wall_time_s")


@pytest.mark.parametrize("kwargs", [
    {"trials": 0},
    {"power_dbm_axis": ()},
    {"antenna_axis": ()},
    {"antenna_axis": (4, 0)},
    {"n_antennas": 0},
    {"methods": ()},
    {"methods": ("shapley", "shapley")},
    {"methods": ("gradient-descent",)},
    {"master_seed": -1},
    {"master_seed": 1 << 64},
    {"workers": 0},
    {"max_cycles": 0},
    {"sa_steps": -1},
    {"sa_initial_temperature": 0.0},
    {"power_dbm_axis": (float("nan"),)},
    {"power_dbm_axis": (0.0, float("inf"))},
    {"power_dbm": float("nan")},
    {"convergence_power_dbm": float("-inf")},
    {"power_dbm_axis": (0.0, 4000.0)},
    {"power_dbm": 4000.0},
    {"convergence_power_dbm": 4000.0},
    {"scenario": Scenario(noise_power_dbm=-4000.0)},
    {"sa_initial_temperature": float("nan")},
    {"sa_initial_temperature": float("inf")},
    {"power_dbm_axis": (10.0, 10.0)},
    {"antenna_axis": (5, 10, 5)},
    {"sa_initial_temperature": -1.0},
    # integer fields refuse floats and bools where they enter
    {"trials": 2.5},
    {"trials": True},
    {"n_antennas": 8.0},
    {"workers": 1.5},
    {"max_cycles": 3.5},
    {"master_seed": 1.5},
    {"antenna_axis": (5.5,)},
    {"antenna_axis": (5, np.float64(10.0))},
    {"sa_steps": 1e5},
    {"sa_steps": False},
    # so does the switch: "no" is a truthy string, not a false
    {"timing": "no"},
    {"timing": 1},
    {"timing": None},
    # float fields refuse bools and strings where they enter
    {"power_dbm": True},
    {"power_dbm_axis": ("10",)},
    {"convergence_power_dbm": None},
    {"sa_initial_temperature": "1"},
    # the scenario is a Scenario, not a string naming one
    {"scenario": "x"},
    # a list field takes a list: not a bare item, nor a string split into
    # its characters or bytes into their values
    {"methods": None},
    {"power_dbm_axis": 3.0},
    {"methods": "shapley"},
    {"antenna_axis": b"ab"},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_config_stores_every_float_field_as_a_float(tmp_path):
    with pytest.raises(ValueError, match="power_dbm must be a real number, got '10'"):
        ExperimentConfig(power_dbm="10")
    with pytest.raises(ValueError, match="power_dbm_axis must be a real number, got True"):
        ExperimentConfig(power_dbm_axis=(0.0, True))
    config = ExperimentConfig(scenario=Scenario(region_x=12), power_dbm_axis=[0, np.int64(10)],
                              power_dbm=np.float32(5.5), convergence_power_dbm=20,
                              sa_initial_temperature=2)
    floats = (config.scenario.region_x, *config.power_dbm_axis, config.power_dbm,
              config.convergence_power_dbm, config.sa_initial_temperature)
    assert floats == (12.0, 0.0, 10.0, 5.5, 20.0, 2.0)
    assert all(type(value) is float for value in floats)
    # so the echo writes what its reader parses back
    path = tmp_path / "echo.ini"
    path.write_text(effective_config_ini(config), encoding="utf-8")
    assert "region_x = 12.0\n" in path.read_text(encoding="utf-8")
    assert config_from_ini(path) == config


def test_config_names_the_field_that_is_no_integer_and_takes_numpy_integers():
    for name, value in [("trials", 2.5), ("n_antennas", 8.0), ("workers", True),
                        ("sa_steps", 1e5), ("antenna_axis", (5.5,))]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentConfig(**{name: value})
    config = ExperimentConfig(trials=np.int64(2), n_antennas=np.uint8(6),
                              antenna_axis=(np.int32(5), 10), sa_steps=np.int64(100))
    assert config == ExperimentConfig(trials=2, n_antennas=6, antenna_axis=(5, 10), sa_steps=100)
    assert type(config.n_antennas) is int and type(config.antenna_axis[0]) is int
    assert run_power_sweep(replace(config, power_dbm_axis=(10.0,),
                                   methods=("annealing",))).rows


def test_config_names_the_switch_that_is_no_bool_and_takes_numpy_bools():
    with pytest.raises(ValueError, match="timing must be a bool, got 'no'"):
        ExperimentConfig(timing="no")
    config = ExperimentConfig(timing=np.True_)
    assert config.timing is True and config == ExperimentConfig(timing=True)


# one valid instance of each input record, and what each field's annotation refuses
_RECORDS = (Scenario(), AntennaLayout((1.0, 2.0)), LinkBudget(10.0, -90.0), AnnealingSchedule(),
            ExperimentConfig())
_BAD = {float: (True, "1", None, math.nan), int: (1.5, True), bool: ("no", 1)}


def _bad_fields():
    for record in _RECORDS:
        for f in fields(record):
            kind, good = f.type, getattr(record, f.name)
            if get_origin(kind) is tuple:
                bad = [(), (good[0], good[0]), good[0], None, "ab", b"ab"]
                bad += [(item,) for item in _BAD.get(get_args(kind)[0], ())]
            elif is_dataclass(kind):
                bad = ["x"]
            else:
                bad = _BAD.get(kind, ())      # out_dir, a str, takes what it is given
            for value in bad:
                yield pytest.param(record, f.name, value,
                                   id=f"{type(record).__name__}.{f.name}={value!r}")


@pytest.mark.parametrize("record, name, value", list(_bad_fields()))
def test_every_input_field_refuses_what_its_annotation_does_not_allow(record, name, value):
    with pytest.raises(ValueError, match=f"^{name} "):
        replace(record, **{name: value})


def test_trials_at_one_power_share_the_budget_the_config_checked():
    config = ExperimentConfig(power_dbm_axis=(3.0, 7.0))
    first, second = (build_trial(config, 0, t, 4, 3.0) for t in (0, 1))
    assert first.budget is second.budget is harness._link_budget(3.0, -90.0)
    assert first.budget == LinkBudget(3.0, -90.0)
    # a bool equals 1.0 but never reads the 1 dBm budget from the cache
    harness._link_budget(1.0, -90.0)
    with pytest.raises(ValueError, match="transmit_power_dbm must be a real number"):
        harness._link_budget(True, -90.0)


def test_config_defaults():
    config = ExperimentConfig()
    assert config.power_dbm_axis == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    assert config.antenna_axis == (5, 10, 15, 20)
    assert config.methods == ("initial-single-antenna", "shapley",
                              "coalition-value", "fixed-ula")
    assert config.trials == 500
    assert config.workers == 1
    assert config.timing is False


def test_seed_streams_are_distinct_and_stable():
    a = drop_seed(7, 0, 3).generate_state(4)
    b = drop_seed(7, 0, 3).generate_state(4)
    np.testing.assert_array_equal(a, b)
    assert list(a) != list(drop_seed(7, 0, 4).generate_state(4))
    assert list(a) != list(drop_seed(7, 1, 3).generate_state(4))
    assert list(a) != list(drop_seed(8, 0, 3).generate_state(4))
    m1 = method_seed(7, 0, 3, "annealing").generate_state(4)
    m2 = method_seed(7, 0, 3, "shapley").generate_state(4)
    assert list(m1) != list(m2)
    assert list(m1) != list(a)


@pytest.mark.parametrize("method, stream_id", [
    ("initial-single-antenna", 1), ("shapley", 2), ("coalition-value", 3),
    ("brute-force", 4), ("annealing", 5), ("fixed-ula", 6),
])
def test_method_streams_keep_their_ids(method, stream_id):
    # the ids are part of every seeded result: changing one reshuffles the
    # draws of that method in every study ever run
    got = method_seed(7, 2, 11, method).generate_state(4)
    want = np.random.SeedSequence([7, 2, 11, stream_id]).generate_state(4)
    np.testing.assert_array_equal(got, want)


def test_single_trial_power_study():
    config = ExperimentConfig(trials=1, n_antennas=4, power_dbm_axis=(10.0,),
                              methods=("initial-single-antenna",), master_seed=5)
    rows = run_power_sweep(config).rows
    assert len(rows) == 1
    row = rows[0]
    assert row.method == "initial-single-antenna"
    assert row.sweep_value == 10.0
    assert row.trial == 0
    assert row.iterations == 0
    assert row.coalition_size == 1
    assert row.coalition_mask.bit_count() == 1
    assert row.secrecy_rate == pytest.approx(row.bob_rate - row.eve_rate, rel=1e-12)
    assert row.secrecy_rate_clamped == max(0.0, row.secrecy_rate)
    expected_seed = int(drop_seed(5, 0, 0).generate_state(1, np.uint64)[0])
    assert row.seed == expected_seed


def test_rows_are_sorted_and_paired():
    config = ExperimentConfig(**TINY, master_seed=3,
                              methods=("initial-single-antenna", "shapley"))
    rows = run_power_sweep(config).rows
    assert len(rows) == 2 * 2 * 2
    keys = [(r.method, r.sweep_value, r.trial) for r in rows]
    assert keys == sorted(keys)
    # every method sees the same drop: the seed fingerprint matches per trial
    by_trial = {}
    for r in rows:
        by_trial.setdefault((r.sweep_value, r.trial), set()).add(r.seed)
    assert all(len(seeds) == 1 for seeds in by_trial.values())


def test_antenna_sweep_uses_counts_as_sweep_values():
    config = ExperimentConfig(**TINY, master_seed=3, methods=("shapley",))
    rows = run_antenna_sweep(config).rows
    assert sorted({r.sweep_value for r in rows}) == [3.0, 5.0]
    for r in rows:
        assert r.coalition_mask < (1 << int(r.sweep_value))


def test_adding_a_method_leaves_other_rows_unchanged():
    base = ExperimentConfig(**TINY, master_seed=11,
                            methods=("initial-single-antenna", "shapley"))
    extended = replace(base, methods=("initial-single-antenna", "shapley", "annealing"),
                       sa_steps=200)
    rows_base = [r for r in run_power_sweep(base).rows]
    rows_ext = [r for r in run_power_sweep(extended).rows if r.method != "annealing"]
    assert [_row_key(r) for r in rows_base] == [_row_key(r) for r in rows_ext]


def test_method_row_semantics():
    config = ExperimentConfig(trials=2, n_antennas=6, power_dbm_axis=(10.0,),
                              master_seed=21, sa_steps=500,
                              methods=("initial-single-antenna", "shapley",
                                       "coalition-value", "brute-force",
                                       "annealing", "fixed-ula"))
    rows = run_power_sweep(config).rows
    assert len(rows) == 12
    by_method = {}
    for r in rows:
        by_method.setdefault(r.method, {})[r.trial] = r
    full = coalitions.full_mask(6)
    for trial in (0, 1):
        best = by_method["brute-force"][trial].secrecy_rate
        for method in ("initial-single-antenna", "shapley", "coalition-value", "annealing"):
            assert by_method[method][trial].secrecy_rate <= best + 1e-9
        assert by_method["brute-force"][trial].iterations == 63
        assert by_method["annealing"][trial].iterations == 500
        assert by_method["fixed-ula"][trial].coalition_mask == full
        assert by_method["initial-single-antenna"][trial].coalition_size == 1
        for method in ("shapley", "coalition-value"):
            row = by_method[method][trial]
            assert row.coalition_mask != 0
            # one scan step per antenna per cycle
            assert row.iterations % 6 == 0 and row.iterations >= 6


def test_runs_are_reproducible():
    config = ExperimentConfig(**TINY, master_seed=13,
                              methods=("initial-single-antenna", "coalition-value"))
    first = run_power_sweep(config).rows
    second = run_power_sweep(config).rows
    assert [_row_key(r) for r in first] == [_row_key(r) for r in second]


# --- CSV emission ---------------------------------------------------------

def _tiny_rows():
    config = ExperimentConfig(trials=2, n_antennas=4, power_dbm_axis=(10.0,),
                              methods=("initial-single-antenna",), master_seed=2)
    return run_power_sweep(config).rows


def test_emit_csv_header_and_crlf(tmp_path):
    rows = _tiny_rows()
    path = emit_csv(rows, tmp_path / "rows.csv")
    data = path.read_bytes()
    lines = data.split(b"\r\n")
    assert lines[0] == (b"method,sweep_value,trial,seed,secrecy_rate,secrecy_rate_clamped,"
                        b"bob_rate,eve_rate,coalition_mask,coalition_size,iterations")
    assert len(lines) == len(rows) + 2 and lines[-1] == b""
    assert b"wall_time" not in data
    # no bare newlines outside the CRLF pairs
    assert data.replace(b"\r\n", b"").find(b"\n") == -1


def test_emit_csv_formats_floats_to_twelve_digits(tmp_path):
    rows = [{"name": "x", "value": math.pi, "count": 3}]
    path = emit_csv(rows, tmp_path / "f.csv")
    assert path.read_bytes() == b"name,value,count\r\nx,3.14159265359,3\r\n"


def test_emit_csv_round_trips_rows(tmp_path):
    rows = _tiny_rows()
    path = emit_csv(rows, tmp_path / "rows.csv")
    import csv
    with open(path, newline="", encoding="utf-8") as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == len(rows)
    for row, rec in zip(rows, parsed):
        assert rec["method"] == row.method
        assert int(rec["trial"]) == row.trial
        assert int(rec["seed"]) == row.seed
        assert float(rec["secrecy_rate"]) == pytest.approx(row.secrecy_rate, rel=1e-11)


def test_emit_csv_refuses_empty(tmp_path):
    target = tmp_path / "empty.csv"
    with pytest.raises(ValueError):
        emit_csv([], target)
    assert not target.exists()


def test_emit_csv_wraps_os_errors(tmp_path):
    rows = _tiny_rows()
    bogus = tmp_path / "missing" / "rows.csv"
    with pytest.raises(OSError, match="rows.csv"):
        emit_csv(rows, bogus)


# --- aggregation ----------------------------------------------------------

def test_aggregate_matches_numpy():
    config = ExperimentConfig(trials=6, n_antennas=5, power_dbm_axis=(0.0, 20.0),
                              methods=("initial-single-antenna", "shapley"),
                              master_seed=17)
    rows = run_power_sweep(config).rows
    records = aggregate_rows(rows)
    assert len(records) == 4
    for record in records:
        sample = np.array([r.secrecy_rate for r in rows
                           if r.method == record["method"]
                           and r.sweep_value == record["sweep_value"]])
        assert record["trials"] == 6
        assert record["secrecy_mean"] == pytest.approx(sample.mean(), rel=1e-12)
        assert record["secrecy_se"] == pytest.approx(
            sample.std(ddof=1) / math.sqrt(sample.size), rel=1e-12)
        assert record["coalition_size_mean"] > 0


def test_aggregate_single_trial_has_zero_error():
    config = ExperimentConfig(trials=1, n_antennas=4, power_dbm_axis=(10.0,),
                              methods=("shapley",), master_seed=1)
    record = aggregate_rows(run_power_sweep(config).rows)[0]
    assert record["secrecy_se"] == 0.0


# --- convergence study ----------------------------------------------------

@pytest.fixture(scope="module")
def small_convergence():
    config = ExperimentConfig(trials=3, n_antennas=6, convergence_power_dbm=10.0,
                              master_seed=23)
    return config, run_convergence_study(config)


def test_convergence_rows_carry_the_reference(small_convergence):
    config, result = small_convergence
    assert result.kind == "convergence"
    assert result.reference_method == "brute-force"
    methods = {r.method for r in result.rows}
    assert methods == {"shapley", "coalition-value", "brute-force"}
    by_trial = {}
    for r in result.rows:
        by_trial.setdefault(r.trial, []).append(r)
    for trial_rows in by_trial.values():
        optima = {r.optimum_value for r in trial_rows}
        assert len(optima) == 1
        optimum = optima.pop()
        for r in trial_rows:
            assert r.reference_method == "brute-force"
            assert r.secrecy_rate <= optimum + 1e-9
            if r.method == "brute-force":
                assert r.secrecy_rate == optimum
                assert r.iterations == 63
            if optimum > 0:
                assert r.optimum_ratio == pytest.approx(r.secrecy_rate / optimum, rel=1e-12)
            else:
                assert math.isnan(r.optimum_ratio)


def test_convergence_traces_are_emittable(small_convergence):
    _, result = small_convergence
    assert result.trace_rows
    golden_keys = ["method", "trial", "cycle", "step", "antenna", "action",
                   "coalition_mask", "coalition_size", "value"]
    assert all(list(tr) == golden_keys for tr in result.trace_rows)
    assert {tr["method"] for tr in result.trace_rows} == {"shapley", "coalition-value"}
    # steps count 1, 2, 3, ... within each (method, trial) run
    runs = {}
    for tr in result.trace_rows:
        runs.setdefault((tr["method"], tr["trial"]), []).append(tr["step"])
    for steps in runs.values():
        assert steps == list(range(1, len(steps) + 1))


def _oracle_trace_rows(result):
    """trace.csv's rows as the dict layer built them: every trace expanded
    by the oracle, then sorted by (method, trial, step)."""
    rows = [{"method": method, "trial": trial, **row}
            for method, trial, trace in result.traces for row in to_rows(trace)]
    return sorted(rows, key=lambda r: (r["method"], r["trial"], r["step"]))


@pytest.mark.parametrize("config, shows", [
    # the defaults but for the study's size
    (ExperimentConfig(trials=4, n_antennas=10, master_seed=11),
     lambda trace: trace.converged and len(trace.flips) > 1),
    # cut scans end with flips in their last cycle
    (ExperimentConfig(trials=4, n_antennas=10, master_seed=11, max_cycles=1),
     lambda trace: not trace.converged and trace.flips[-1].cycle == trace.cycles_used),
    # trial 2's value-greedy scan never flips
    (ExperimentConfig(trials=3, n_antennas=6, convergence_power_dbm=0.0, master_seed=3),
     lambda trace: not trace.flips),
], ids=["default", "cut-at-one-cycle", "no-flip"])
def test_trace_csv_and_trace_rows_match_the_oracle_expansion(tmp_path, config, shows):
    result = run_convergence_study(config)
    assert any(shows(trace) for _, _, trace in result.traces)
    want = _oracle_trace_rows(result)
    # repr compares NaN values too, and tells -0.0 from 0.0
    assert repr(result.trace_rows) == repr(want)
    written = write_outputs(result, replace(config, out_dir=str(tmp_path / "out")))["trace"]
    oracle = emit_csv(want, tmp_path / "oracle.csv")
    assert (written.read_bytes().splitlines(keepends=True)
            == oracle.read_bytes().splitlines(keepends=True))


def test_convergence_aggregate_includes_ratio(small_convergence):
    _, result = small_convergence
    records = aggregate_rows(result.rows)
    brute = [r for r in records if r["method"] == "brute-force"][0]
    assert brute["reference_method"] == "brute-force"
    assert brute["optimum_ratio_mean"] == pytest.approx(1.0, rel=1e-12) \
        or math.isnan(brute["optimum_ratio_mean"])


def test_convergence_beyond_the_exhaustive_limit_warns():
    config = ExperimentConfig(trials=1, n_antennas=25, sa_steps=200, master_seed=31)
    with pytest.warns(RuntimeWarning, match="annealing"):
        result = run_convergence_study(config)
    assert result.reference_method == "annealing"
    assert {r.reference_method for r in result.rows} == {"annealing"}
    assert {r.method for r in result.rows} == {"shapley", "coalition-value", "annealing"}


@pytest.mark.parametrize("study, kwargs", [
    (run_convergence_study, {"n_antennas": 65}),
    (run_power_sweep, {"n_antennas": 65, "methods": ("annealing",)}),
    (run_antenna_sweep, {"antenna_axis": (5, 65), "methods": ("shapley", "annealing")}),
])
def test_annealing_past_64_antennas_is_refused_before_any_trial(monkeypatch, study, kwargs):
    def no_trial(task):
        raise AssertionError("no trial should run")

    monkeypatch.setattr(harness, "_evaluate_trial", no_trial)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="at most 64"):
            study(ExperimentConfig(trials=1, sa_steps=10, **kwargs))
    # a convergence study past the exhaustive limit warns only once it can run
    assert caught == []


@pytest.mark.parametrize("methods", [("annealing",), ("shapley", "coalition-value")])
def test_convergence_refuses_other_methods_before_any_trial(monkeypatch, methods):
    def no_trial(task):
        raise AssertionError("no trial should run")

    monkeypatch.setattr(harness, "_evaluate_trial", no_trial)
    with pytest.raises(ValueError, match="^methods: "):
        run_convergence_study(ExperimentConfig(trials=1, n_antennas=4, methods=methods))


@pytest.mark.parametrize("study, kwargs", [
    (run_power_sweep, {"n_antennas": 25}),
    (run_antenna_sweep, {"antenna_axis": (5, 25)}),
])
def test_brute_force_past_the_cap_is_refused_before_any_trial(monkeypatch, study, kwargs):
    def no_trial(*args):
        raise AssertionError("no trial should be built")

    monkeypatch.setattr(harness, "build_trial", no_trial)
    with pytest.raises(CapacityError, match=f"at most {ENUMERATION_CAP} antennas"):
        study(ExperimentConfig(trials=200, methods=("shapley", "brute-force"), **kwargs))


@pytest.mark.parametrize("method", [m for m, entry in harness.METHODS.items()
                                    if entry.max_antennas is not None])
def test_every_method_limit_is_refused_before_any_trial(monkeypatch, method):
    def no_trial(*args):
        raise AssertionError("no trial should be built")

    monkeypatch.setattr(harness, "build_trial", no_trial)
    limit = harness.METHODS[method].max_antennas
    config = ExperimentConfig(trials=1, antenna_axis=(3, limit + 1), methods=(method,))
    with pytest.raises(CapacityError) as info:
        run_antenna_sweep(config)
    assert str(info.value) == (f"{method} supports at most {limit} antennas; "
                               f"this study needs it at {limit + 1}")


def test_a_fixed_ula_trial_builds_no_pinching_channel(monkeypatch):
    config = ExperimentConfig(n_antennas=6, trials=3, power_dbm_axis=(0.0, 20.0),
                              methods=("fixed-ula",), master_seed=5)
    plain = run_power_sweep(config)

    def no_channel(*args):
        raise AssertionError("fixed-ula reads no pinching-antenna channel")

    monkeypatch.setattr(harness, "channel_vector", no_channel)
    patched = run_power_sweep(config)
    assert [_row_key(r) for r in patched.rows] == [_row_key(r) for r in plain.rows]


def test_a_convergence_trial_builds_one_evaluator(monkeypatch):
    # the two games and the exhaustive reference all score the trial's own v
    built = []
    init = secrecy.SecrecyEvaluator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(secrecy.SecrecyEvaluator, "__init__", counting_init)
    result = run_convergence_study(ExperimentConfig(n_antennas=12, trials=3, master_seed=4))
    assert result.reference_method == "brute-force"
    assert len(built) == 3


@pytest.mark.parametrize("workers, trials, pool_size", [
    (8, 1, None), (8, 3, 3), (2, 5, 2), (1, 5, None),
])
def test_pool_never_outnumbers_its_tasks(monkeypatch, workers, trials, pool_size):
    # a pool forks all of its workers at the first submit, so a study with
    # fewer tasks than workers must not ask for the rest
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # _run_study imports the pool class only when it needs one, so it reads the patched name
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    config = ExperimentConfig(n_antennas=4, trials=trials, workers=workers, master_seed=8)
    result = run_convergence_study(config)
    assert sizes == ([] if pool_size is None else [pool_size])
    serial = run_convergence_study(replace(config, workers=1))
    assert [_row_key(r) for r in result.rows] == [_row_key(r) for r in serial.rows]
    assert result.trace_rows == serial.trace_rows


@pytest.mark.parametrize("workers", [1, 2])
def test_coalition_past_shapley_cap_names_its_trial(monkeypatch, workers):
    # pool workers fork from this process, so they see the patched cap too
    monkeypatch.setattr(game, "ENUMERATION_CAP", 4)
    config = ExperimentConfig(n_antennas=20, methods=("shapley",), trials=50, workers=workers)
    seed = int(drop_seed(config.master_seed, 0, 0).generate_state(1, np.uint64)[0])
    with pytest.raises(CapacityError) as info:
        run_power_sweep(config)
    assert str(info.value) == (f"shapley at power sweep point 0, trial 0 (drop seed {seed}): "
                               "coalition size 5 exceeds enumeration cap 4")


def test_annealing_leaves_the_evaluator_as_it_was():
    # the walk keeps every value it scores in its own dict and the evaluator
    # keeps none, so the method hands the walk the evaluator itself
    config = ExperimentConfig(n_antennas=12, master_seed=3, sa_steps=3000)
    trial = harness.build_trial(config, 0, 0, 12, 0.0)
    evaluator = trial.evaluator

    def state():
        return {name: len(value) if isinstance(value, (dict, list)) else id(value)
                for name, value in vars(evaluator).items()}

    before = state()
    outcome = harness.METHODS["annealing"].run(trial)
    assert state() == before
    mask, _ = harness.simulated_annealing(
        evaluator, 12, harness.AnnealingSchedule(1.0, 3000),
        seed=method_seed(config.master_seed, 0, 0, "annealing"))
    assert outcome.mask == mask
    assert outcome.secrecy_rate == evaluator(mask)


def _assert_no_method_beats_the_exact_optimum(n, power_dbm, seed):
    # fixed-ula is left out: it is another array, not a coalition of these antennas
    config = ExperimentConfig(n_antennas=n, master_seed=seed, sa_steps=300)
    trial = harness.build_trial(config, 0, 0, n, power_dbm)
    optimum = harness.METHODS["brute-force"].run(trial).secrecy_rate
    for method in ("initial-single-antenna", "shapley", "coalition-value", "annealing"):
        achieved = harness.METHODS[method].run(trial).secrecy_rate
        assert achieved <= optimum + 1e-12 * max(1.0, abs(optimum)), method


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 20), power_dbm=st.sampled_from([0.0, 10.0, 20.0, 30.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_no_method_beats_the_exact_optimum(n, power_dbm, seed):
    _assert_no_method_beats_the_exact_optimum(n, power_dbm, seed)


@pytest.mark.parametrize("n", [21, 22, 24])
@pytest.mark.parametrize("power_dbm", [0.0, 30.0])
@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_no_method_beats_the_exact_optimum_past_20_antennas(n, power_dbm, seed):
    # past 20 antennas the exhaustive search stacks 8 to 11 prefix blocks,
    # deeper than the hypothesis property above ever reaches
    _assert_no_method_beats_the_exact_optimum(n, power_dbm, seed)


def test_studies_past_64_antennas_run_without_annealing():
    config = ExperimentConfig(trials=1, n_antennas=65, power_dbm_axis=(10.0,),
                              methods=("coalition-value",))
    assert run_power_sweep(config).rows[0].coalition_size >= 1


# --- file outputs ---------------------------------------------------------

def test_write_outputs_power_study(tmp_path):
    config = ExperimentConfig(trials=2, n_antennas=4, power_dbm_axis=(0.0, 10.0),
                              methods=("initial-single-antenna", "shapley"),
                              master_seed=4, out_dir=str(tmp_path / "out"))
    result = run_power_sweep(config)
    paths = write_outputs(result, config)
    out = tmp_path / "out"
    assert (out / "raw_rows.csv").exists()
    assert (out / "aggregate.csv").exists()
    assert (out / "effective_config.ini").exists()
    assert not (out / "trace.csv").exists()
    assert not (out / "timings.csv").exists()
    assert set(paths) == {"raw_rows", "aggregate", "config"}


def test_write_outputs_convergence_and_timing(tmp_path):
    config = ExperimentConfig(trials=2, n_antennas=5, master_seed=4, timing=True,
                              out_dir=str(tmp_path / "conv"))
    result = run_convergence_study(config)
    write_outputs(result, config)
    out = tmp_path / "conv"
    assert (out / "trace.csv").exists()
    timings = (out / "timings.csv").read_text(encoding="utf-8").splitlines()
    assert timings[0] == "method,sweep_value,trial,wall_time_s"
    assert len(timings) == len(result.rows) + 1


def test_write_outputs_requires_out_dir():
    config = ExperimentConfig(trials=1, n_antennas=4, methods=("shapley",))
    result = run_power_sweep(config)
    with pytest.raises(ValueError):
        write_outputs(result, config)


# --- configuration files --------------------------------------------------

def test_config_from_ini_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        config_from_ini(tmp_path / "nope.ini")


def test_config_from_ini_partial_file_keeps_defaults(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[experiment]\ntrials = 9\n", encoding="utf-8")
    config = config_from_ini(path)
    assert config.trials == 9
    assert config.n_antennas == 20
    assert config.scenario == Scenario()


def test_config_from_ini_rejects_unknown_method(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nmethods = shapley, magic\n", encoding="utf-8")
    with pytest.raises(ValueError):
        config_from_ini(path)


@pytest.mark.parametrize("text, names", [
    ("[experiment]\ntrails = 5\n", ("[experiment]", "trails")),
    ("[anealing]\nsteps = 10\n", ("[anealing]",)),
    ("[DEFAULT]\ntrials = 5\n", ("[DEFAULT]",)),
    # the payoff cap is a package constant, not a config field
    ("[experiment]\nshapley_cap = 24\n", ("[experiment]", "shapley_cap")),
])
def test_config_from_ini_rejects_unknown_sections_and_keys(tmp_path, text, names):
    # a typo must not leave its field at the default
    path = tmp_path / "typo.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        config_from_ini(path)
    for name in names:
        assert name in str(info.value)


def test_effective_config_round_trips(tmp_path):
    config = ExperimentConfig(
        scenario=Scenario(region_x=8.0, region_y=4.0, waveguide_height=2.0,
                          carrier_frequency=60.0e9, effective_refractive_index=1.8,
                          noise_power_dbm=-85.0, feed_point_x=1.25,
                          one_sided_region=True, waveguide_length=8.0),
        power_dbm_axis=(-5.0, 2.5), antenna_axis=(3, 7), n_antennas=9,
        power_dbm=12.5, convergence_power_dbm=18.0, trials=4, master_seed=99,
        methods=("shapley", "annealing"), out_dir=str(tmp_path), workers=3,
        max_cycles=17, sa_steps=777,
        sa_initial_temperature=2.5, timing=True)
    # every field differs from its default, so a field the echo or the
    # reader missed would come back as its default and fail the comparison
    defaults = ExperimentConfig()
    for f in fields(ExperimentConfig):
        assert getattr(config, f.name) != getattr(defaults, f.name), f.name
    for f in fields(Scenario):
        assert getattr(config.scenario, f.name) != getattr(defaults.scenario, f.name), f.name
    path = tmp_path / "echo.ini"
    path.write_text(effective_config_ini(config), encoding="utf-8")
    loaded = config_from_ini(path)
    # the echo deliberately drops the execution environment
    assert loaded == replace(config, out_dir=None, workers=1)


def test_effective_config_of_list_inputs_round_trips(tmp_path):
    # lists are stored as tuples, so the echo writes them as the reader's comma lists
    config = ExperimentConfig(power_dbm_axis=[0, 10.0], methods=["shapley", "fixed-ula"])
    assert config.power_dbm_axis == (0, 10.0) and config.methods == ("shapley", "fixed-ula")
    text = effective_config_ini(config)
    assert "powers_dbm = 0.0, 10.0\n" in text and "methods = shapley, fixed-ula\n" in text
    path = tmp_path / "echo.ini"
    path.write_text(text, encoding="utf-8")
    assert config_from_ini(path) == config


DEFAULT_ECHO = """\
[scenario]
region_x = 10.0
region_y = 6.0
waveguide_height = 3.0
waveguide_length = 10.0
carrier_frequency = 28000000000.0
effective_refractive_index = 1.4
noise_power_dbm = -90.0
feed_point_x = 0.0
one_sided_region = false

[experiment]
powers_dbm = 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0
antenna_counts = 5, 10, 15, 20
n_antennas = 20
power_dbm = 10.0
convergence_power_dbm = 20.0
trials = 500
master_seed = 1
max_cycles = 100
timing = false
methods = initial-single-antenna, shapley, coalition-value, fixed-ula

[annealing]
steps = 1000000
initial_temperature = 1.0
"""


def test_effective_config_of_the_defaults_is_pinned():
    # effective_config.ini is one of the byte-identical outputs
    assert effective_config_ini(ExperimentConfig()) == DEFAULT_ECHO


def test_effective_config_omits_execution_environment(tmp_path):
    text = effective_config_ini(ExperimentConfig(out_dir="/somewhere", workers=5))
    assert "somewhere" not in text
    assert "workers" not in text


def test_apply_overrides_skips_none():
    config = ExperimentConfig()
    same = apply_overrides(config, trials=None, master_seed=None)
    assert same == config
    changed = apply_overrides(config, trials=7, power_dbm=25.0)
    assert changed.trials == 7
    assert changed.power_dbm == 25.0
    assert changed.n_antennas == config.n_antennas


FRESH_INTERPRETER = """
import sys
from dataclasses import replace
from pathlib import Path

from pinchsec import ExperimentConfig, run_power_sweep, write_outputs

out = Path(sys.argv[1])
config = ExperimentConfig(n_antennas=6, trials=3, power_dbm_axis=(0.0, 20.0),
                          master_seed=5, out_dir=str(out / "one"))
write_outputs(run_power_sweep(config), config)
loaded = sorted({"concurrent.futures", "configparser"} & set(sys.modules))
assert not loaded, f"a one-worker run imported {loaded}"

from pinchsec.harness import config_from_ini

pooled = config_from_ini(out / "one" / "effective_config.ini")
assert pooled == ExperimentConfig(n_antennas=6, trials=3, power_dbm_axis=(0.0, 20.0),
                                  master_seed=5)
pooled = replace(pooled, workers=2, out_dir=str(out / "two"))
write_outputs(run_power_sweep(pooled), pooled)
"""


def test_a_one_worker_run_imports_no_pool_and_no_ini_parser(tmp_path):
    # a fresh interpreter, since this one has long imported both
    src = str(Path(harness.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", FRESH_INTERPRETER, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    one, two = ({path.name: path.read_bytes() for path in (tmp_path / side).iterdir()}
                for side in ("one", "two"))
    assert sorted(one) == ["aggregate.csv", "effective_config.ini", "raw_rows.csv"]
    assert one == two
