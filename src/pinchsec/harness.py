"""Monte Carlo experiment orchestration.

Runs the secrecy-rate studies behind the package: a transmit-power sweep,
an antenna-count sweep, and a convergence study that scores the activation
game against the exhaustive optimum.  Every method in a trial sees the
same user/eavesdropper drop, so method comparisons are paired.  Seeds
derive deterministically from (master_seed, sweep index, trial index) and,
for methods with internal randomness, a per-method stream id; results are
sorted before emission so the worker count never changes the output bytes.

Outputs (CSV, 12 significant digits, CRLF line ends):
  raw_rows.csv  one row per (method, sweep point, trial)
  aggregate.csv per-method per-sweep-point means and standard errors
  trace.csv     per-examined-antenna game trace (convergence runs only)
  timings.csv   wall-clock per row, only when timing is enabled
  effective_config.ini  the full configuration actually used

Wall-clock time is measured for every row but kept out of raw_rows.csv:
reruns must be byte-identical, and timestamps never are.
"""

import configparser
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import coalitions
from .baselines import (ANNEALING_MAX_ANTENNAS, AnnealingSchedule,
                        brute_force_secrecy_optimum,
                        coalition_value_activation, simulated_annealing,
                        ula_secrecy_rate)
from .channel import channel_vector
from .game import (DEFAULT_MAX_CYCLES, DEFAULT_SHAPLEY_CAP, closest_antenna,
                   run_activation)
from .geometry import Scenario, sample_drop, uniform_layout
from .secrecy import LinkBudget, SecrecyEvaluator

METHODS = ("initial-single-antenna", "shapley", "coalition-value",
           "brute-force", "annealing", "fixed-ula")

# fixed stream ids so adding or renaming list entries never shifts the
# random draws of an existing method
_METHOD_SEED_IDS = {
    "initial-single-antenna": 1,
    "shapley": 2,
    "coalition-value": 3,
    "brute-force": 4,
    "annealing": 5,
    "fixed-ula": 6,
}

EXHAUSTIVE_LIMIT = 24

DEFAULT_METHODS = ("initial-single-antenna", "shapley", "coalition-value", "fixed-ula")
CONVERGENCE_METHODS = ("shapley", "coalition-value")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a study run needs; unused axes are simply ignored."""

    scenario: Scenario = Scenario()
    power_dbm_axis: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    antenna_axis: tuple = (5, 10, 15, 20)
    n_antennas: int = 20
    power_dbm: float = 10.0              # fixed power for the antenna sweep
    convergence_power_dbm: float = 20.0
    trials: int = 500
    master_seed: int = 1
    methods: tuple = DEFAULT_METHODS
    out_dir: str = None
    workers: int = 1
    max_cycles: int = DEFAULT_MAX_CYCLES
    shapley_cap: int = DEFAULT_SHAPLEY_CAP
    sa_steps: int = 1_000_000
    sa_initial_temperature: float = 1.0
    timing: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.power_dbm_axis:
            raise ValueError("power axis must be nonempty")
        if not all(math.isfinite(p) for p in self.power_dbm_axis):
            raise ValueError(f"powers must be finite, got {self.power_dbm_axis}")
        for name in ("power_dbm", "convergence_power_dbm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.antenna_axis:
            raise ValueError("antenna axis must be nonempty")
        if any(n < 1 for n in self.antenna_axis):
            raise ValueError("antenna counts must be at least 1")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be at least 1")
        if not self.methods:
            raise ValueError("need at least one method")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate method names")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be at least 1")
        if self.shapley_cap < 1:
            raise ValueError("shapley_cap must be at least 1")
        if self.sa_steps < 0:
            raise ValueError("sa_steps must be nonnegative")
        if self.sa_initial_temperature <= 0:
            raise ValueError("sa_initial_temperature must be positive")


@dataclass(frozen=True)
class ResultRow:
    method: str
    sweep_value: float
    trial: int
    seed: int
    secrecy_rate: float
    secrecy_rate_clamped: float
    bob_rate: float
    eve_rate: float
    coalition_mask: int
    coalition_size: int
    iterations: int
    wall_time_s: float


@dataclass(frozen=True)
class ConvergenceRow(ResultRow):
    """Result row extended with the per-trial optimum comparison."""

    optimum_value: float
    optimum_ratio: float        # nan when the optimum is not positive
    reference_method: str       # "brute-force", or "annealing" past the cap


@dataclass
class StudyResult:
    kind: str                   # "power", "antenna", or "convergence"
    rows: list
    trace_rows: list = field(default_factory=list)
    reference_method: str = None


def drop_seed(master_seed: int, sweep_idx: int, trial: int) -> np.random.SeedSequence:
    """Seed for the trial's drop; identical for every method by design."""
    return np.random.SeedSequence([master_seed, sweep_idx, trial])


def method_seed(master_seed: int, sweep_idx: int, trial: int, method: str) -> np.random.SeedSequence:
    """Seed for a method's own randomness, independent of the drop stream."""
    return np.random.SeedSequence([master_seed, sweep_idx, trial, _METHOD_SEED_IDS[method]])


def _seed_fingerprint(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, np.uint64)[0])


def _sweep_point(kind: str, config: ExperimentConfig, sweep_idx: int):
    """(sweep value for the row, antenna count, transmit power dBm)."""
    if kind == "power":
        power = float(config.power_dbm_axis[sweep_idx])
        return power, config.n_antennas, power
    if kind == "antenna":
        n = int(config.antenna_axis[sweep_idx])
        return float(n), n, config.power_dbm
    if kind == "convergence":
        return float(config.convergence_power_dbm), config.n_antennas, config.convergence_power_dbm
    raise ValueError(f"unknown study kind {kind!r}")


def _evaluate_trial(args) -> tuple[list, list]:
    """Run every configured method on one drop.  Top level so it pickles."""
    kind, config, sweep_idx, trial = args
    sweep_value, n, power = _sweep_point(kind, config, sweep_idx)
    scenario = config.scenario
    seq = drop_seed(config.master_seed, sweep_idx, trial)
    fingerprint = _seed_fingerprint(seq)
    drop = sample_drop(scenario, np.random.default_rng(seq))
    layout = uniform_layout(scenario, n)
    bob_channels = channel_vector(scenario, layout, drop.bob)
    eve_channels = channel_vector(scenario, layout, drop.eve)
    budget = LinkBudget(power, scenario.noise_power_dbm)
    evaluator = SecrecyEvaluator(bob_channels, eve_channels, budget)

    methods = CONVERGENCE_METHODS if kind == "convergence" else config.methods

    rows = []
    traces = {}
    for method in methods:
        start = time.perf_counter()
        iterations = 0
        if method == "initial-single-antenna":
            mask = 1 << closest_antenna(layout, drop.bob)
            bob_rate, eve_rate = evaluator.link_rates(mask)
        elif method == "shapley":
            mask, trace = run_activation(evaluator, layout, drop.bob,
                                         max_cycles=config.max_cycles,
                                         cap=config.shapley_cap)
            iterations = len(trace.steps)
            traces[method] = trace
            bob_rate, eve_rate = evaluator.link_rates(mask)
        elif method == "coalition-value":
            mask, trace = coalition_value_activation(evaluator, layout, drop.bob,
                                                     max_cycles=config.max_cycles)
            iterations = len(trace.steps)
            traces[method] = trace
            bob_rate, eve_rate = evaluator.link_rates(mask)
        elif method == "brute-force":
            mask, _, bob_rate, eve_rate = brute_force_secrecy_optimum(
                bob_channels, eve_channels, budget)
            iterations = (1 << n) - 1
        elif method == "annealing":
            schedule = AnnealingSchedule(config.sa_initial_temperature, config.sa_steps)
            mask, _ = simulated_annealing(
                evaluator, n, schedule,
                seed=method_seed(config.master_seed, sweep_idx, trial, method))
            iterations = config.sa_steps
            bob_rate, eve_rate = evaluator.link_rates(mask)
        else:  # fixed-ula
            bob_rate, eve_rate, _ = ula_secrecy_rate(scenario, drop, n, budget)
            mask = coalitions.full_mask(n)
        secrecy = bob_rate - eve_rate
        rows.append(ResultRow(
            method=method, sweep_value=sweep_value, trial=trial, seed=fingerprint,
            secrecy_rate=secrecy, secrecy_rate_clamped=max(secrecy, 0.0),
            bob_rate=bob_rate, eve_rate=eve_rate,
            coalition_mask=mask, coalition_size=mask.bit_count(),
            iterations=iterations, wall_time_s=time.perf_counter() - start))

    if kind != "convergence":
        return rows, []
    return _convergence_extras(config, rows, traces, evaluator,
                               bob_channels, eve_channels, budget,
                               n, sweep_idx, trial, sweep_value, fingerprint)


def _convergence_extras(config, rows, traces, evaluator, bob_channels,
                        eve_channels, budget, n, sweep_idx, trial,
                        sweep_value, fingerprint):
    """Attach the optimum reference and per-iteration trace rows."""
    start = time.perf_counter()
    if n <= EXHAUSTIVE_LIMIT:
        reference = "brute-force"
        ref_mask, _, _, _ = brute_force_secrecy_optimum(bob_channels, eve_channels, budget)
        ref_iterations = (1 << n) - 1
    else:
        reference = "annealing"
        schedule = AnnealingSchedule(config.sa_initial_temperature, config.sa_steps)
        ref_mask, _ = simulated_annealing(
            evaluator, n, schedule,
            seed=method_seed(config.master_seed, sweep_idx, trial, "annealing"))
        ref_iterations = config.sa_steps
    # score the reference through the same evaluator as the game methods so
    # the ratio never turns on arithmetic differences between code paths
    ref_bob, ref_eve = evaluator.link_rates(ref_mask)
    ref_value = ref_bob - ref_eve
    elapsed = time.perf_counter() - start

    def ratio(value):
        if ref_value <= 0.0:
            return float("nan")
        return value / ref_value

    out = []
    for row in rows:
        if reference == "brute-force" and row.secrecy_rate > ref_value + 1e-9 * max(1.0, abs(ref_value)):
            raise RuntimeError(
                f"method {row.method} beat the exhaustive optimum on trial {row.trial}: "
                f"{row.secrecy_rate} > {ref_value}")
        out.append(ConvergenceRow(
            **{f.name: getattr(row, f.name) for f in fields(ResultRow)},
            optimum_value=ref_value, optimum_ratio=ratio(row.secrecy_rate),
            reference_method=reference))
    out.append(ConvergenceRow(
        method=reference, sweep_value=sweep_value, trial=trial, seed=fingerprint,
        secrecy_rate=ref_value, secrecy_rate_clamped=max(ref_value, 0.0),
        bob_rate=ref_bob, eve_rate=ref_eve,
        coalition_mask=ref_mask, coalition_size=ref_mask.bit_count(),
        iterations=ref_iterations, wall_time_s=elapsed,
        optimum_value=ref_value, optimum_ratio=ratio(ref_value),
        reference_method=reference))

    trace_rows = []
    for method, trace in traces.items():
        for r in trace.to_rows():
            trace_rows.append({
                "method": method, "trial": trial, "cycle": r["cycle"],
                "step": r["step"], "antenna": r["antenna"], "action": r["action"],
                "coalition_mask": r["coalition_mask"],
                "coalition_size": r["coalition_size"], "value": r["value"],
            })
    return out, trace_rows


def _run_study(kind: str, config: ExperimentConfig) -> StudyResult:
    if kind == "power":
        n_points, counts = len(config.power_dbm_axis), (config.n_antennas,)
    elif kind == "antenna":
        n_points, counts = len(config.antenna_axis), config.antenna_axis
    elif kind == "convergence":
        n_points, counts = 1, (config.n_antennas,)
    else:
        raise ValueError(f"unknown study kind {kind!r}")
    past_exhaustive = config.n_antennas > EXHAUSTIVE_LIMIT
    anneals = past_exhaustive if kind == "convergence" else "annealing" in config.methods
    if anneals and max(counts) > ANNEALING_MAX_ANTENNAS:
        raise ValueError(f"annealing supports at most {ANNEALING_MAX_ANTENNAS} antennas; "
                         f"this study needs it at {max(counts)}")
    if kind == "convergence" and past_exhaustive:
        warnings.warn(
            f"{config.n_antennas} antennas exceeds the exhaustive limit "
            f"({EXHAUSTIVE_LIMIT}); using simulated annealing as the reference",
            RuntimeWarning, stacklevel=3)

    tasks = [(kind, config, j, t) for j in range(n_points) for t in range(config.trials)]
    if config.workers == 1:
        outcomes = [_evaluate_trial(task) for task in tasks]
    else:
        chunk = max(1, len(tasks) // (config.workers * 4))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_evaluate_trial, tasks, chunksize=chunk))

    rows = [row for rows_, _ in outcomes for row in rows_]
    trace_rows = [tr for _, trs in outcomes for tr in trs]
    rows.sort(key=lambda r: (r.method, r.sweep_value, r.trial))
    trace_rows.sort(key=lambda r: (r["method"], r["trial"], r["step"]))
    reference = None
    if kind == "convergence":
        reference = "brute-force" if config.n_antennas <= EXHAUSTIVE_LIMIT else "annealing"
    return StudyResult(kind=kind, rows=rows, trace_rows=trace_rows,
                       reference_method=reference)


def run_power_sweep(config: ExperimentConfig) -> StudyResult:
    """Secrecy rate versus transmit power at a fixed antenna count."""
    return _run_study("power", config)


def run_antenna_sweep(config: ExperimentConfig) -> StudyResult:
    """Secrecy rate versus antenna count at a fixed transmit power."""
    return _run_study("antenna", config)


def run_convergence_study(config: ExperimentConfig) -> StudyResult:
    """Game trajectories plus the per-trial optimum comparison.

    Methods are restricted to the two activation games; the optimum
    reference (exhaustive up to 24 antennas, annealing beyond) is added
    automatically.
    """
    return _run_study("convergence", config)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def emit_csv(rows, path) -> Path:
    """Write rows (dataclasses or dicts) as CSV; refuses an empty table.

    Wall-clock columns are withheld so reruns stay byte-identical; pass
    timing rows as plain dicts to emit them deliberately.
    """
    if not rows:
        raise ValueError(f"refusing to write an empty table to {path}")
    path = Path(path)
    first = rows[0]
    if isinstance(first, dict):
        names = list(first)
        values = (row[name] for row in rows for name in names)
    else:
        names = [f.name for f in fields(first) if f.name != "wall_time_s"]
        values = (getattr(row, name) for row in rows for name in names)
    width = len(names)
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(",".join(names) + "\r\n")
            line = []
            for cell in values:
                line.append(_format_cell(cell))
                if len(line) == width:
                    handle.write(",".join(line) + "\r\n")
                    line.clear()
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def aggregate_rows(rows) -> list[dict]:
    """Per-(method, sweep value) means and the standard error of the mean."""
    groups = {}
    for row in rows:
        groups.setdefault((row.method, row.sweep_value), []).append(row)

    def mean(values):
        return math.fsum(values) / len(values)

    def std_error(values):
        n = len(values)
        if n == 1:
            return 0.0
        m = mean(values)
        return math.sqrt(math.fsum((x - m) ** 2 for x in values) / (n - 1)) / math.sqrt(n)

    out = []
    for key in sorted(groups):
        rs = groups[key]
        secrecy = [r.secrecy_rate for r in rs]
        record = {
            "method": key[0],
            "sweep_value": key[1],
            "trials": len(rs),
            "secrecy_mean": mean(secrecy),
            "secrecy_se": std_error(secrecy),
            "secrecy_clamped_mean": mean([r.secrecy_rate_clamped for r in rs]),
            "bob_rate_mean": mean([r.bob_rate for r in rs]),
            "eve_rate_mean": mean([r.eve_rate for r in rs]),
            "coalition_size_mean": mean([r.coalition_size for r in rs]),
            "iterations_mean": mean([r.iterations for r in rs]),
        }
        if isinstance(rs[0], ConvergenceRow):
            ratios = [r.optimum_ratio for r in rs if math.isfinite(r.optimum_ratio)]
            record["optimum_ratio_mean"] = mean(ratios) if ratios else float("nan")
            record["optimum_ratio_se"] = std_error(ratios) if ratios else float("nan")
            record["reference_method"] = rs[0].reference_method
        out.append(record)
    return out


def write_outputs(result: StudyResult, config: ExperimentConfig) -> dict:
    """Emit every output file for a finished study into config.out_dir."""
    if config.out_dir is None:
        raise ValueError("config.out_dir is not set")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "raw_rows": emit_csv(result.rows, out_dir / "raw_rows.csv"),
        "aggregate": emit_csv(aggregate_rows(result.rows), out_dir / "aggregate.csv"),
    }
    if result.trace_rows:
        paths["trace"] = emit_csv(result.trace_rows, out_dir / "trace.csv")
    if config.timing:
        timing_rows = [
            {"method": r.method, "sweep_value": r.sweep_value, "trial": r.trial,
             "wall_time_s": r.wall_time_s}
            for r in result.rows
        ]
        paths["timings"] = emit_csv(timing_rows, out_dir / "timings.csv")
    config_path = out_dir / "effective_config.ini"
    config_path.write_text(effective_config_ini(config), encoding="utf-8")
    paths["config"] = config_path
    return paths


# --- configuration files -------------------------------------------------

def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def effective_config_ini(config: ExperimentConfig) -> str:
    """Serialize the full configuration; parsing it back round-trips."""
    scenario = config.scenario
    lines = ["[scenario]"]
    for name in ("region_x", "region_y", "waveguide_height", "waveguide_length",
                 "carrier_frequency", "effective_refractive_index",
                 "noise_power_dbm", "feed_point_x", "one_sided_region"):
        lines.append(f"{name} = {_format_scalar(getattr(scenario, name))}")
    lines.append("")
    lines.append("[experiment]")
    lines.append("powers_dbm = " + ", ".join(_format_scalar(p) for p in config.power_dbm_axis))
    lines.append("antenna_counts = " + ", ".join(str(n) for n in config.antenna_axis))
    for name in ("n_antennas", "power_dbm", "convergence_power_dbm", "trials",
                 "master_seed", "max_cycles", "shapley_cap", "timing"):
        lines.append(f"{name} = {_format_scalar(getattr(config, name))}")
    # out_dir and workers are deliberately not echoed: they are execution
    # environment, not experiment definition, and the echo must compare
    # equal across output locations and pool sizes
    lines.append("methods = " + ", ".join(config.methods))
    lines.append("")
    lines.append("[annealing]")
    lines.append(f"steps = {config.sa_steps}")
    lines.append(f"initial_temperature = {_format_scalar(config.sa_initial_temperature)}")
    lines.append("")
    return "\n".join(lines)


def _parse_list(text: str, convert):
    items = [piece.strip() for piece in text.split(",")]
    return tuple(convert(piece) for piece in items if piece)


def config_from_ini(path) -> ExperimentConfig:
    """Load an ExperimentConfig from an INI file; absent keys keep defaults."""
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    scenario_kwargs = {}
    if parser.has_section("scenario"):
        section = parser["scenario"]
        for name in ("region_x", "region_y", "waveguide_height", "waveguide_length",
                     "carrier_frequency", "effective_refractive_index",
                     "noise_power_dbm", "feed_point_x"):
            if name in section:
                scenario_kwargs[name] = section.getfloat(name)
        if "one_sided_region" in section:
            scenario_kwargs["one_sided_region"] = section.getboolean("one_sided_region")

    kwargs = {"scenario": Scenario(**scenario_kwargs)}
    if parser.has_section("experiment"):
        section = parser["experiment"]
        if "powers_dbm" in section:
            kwargs["power_dbm_axis"] = _parse_list(section["powers_dbm"], float)
        if "antenna_counts" in section:
            kwargs["antenna_axis"] = _parse_list(section["antenna_counts"], int)
        for name, getter in (("n_antennas", section.getint),
                             ("trials", section.getint),
                             ("master_seed", section.getint),
                             ("workers", section.getint),
                             ("max_cycles", section.getint),
                             ("shapley_cap", section.getint),
                             ("power_dbm", section.getfloat),
                             ("convergence_power_dbm", section.getfloat),
                             ("timing", section.getboolean)):
            if name in section:
                kwargs[name] = getter(name)
        if "methods" in section:
            kwargs["methods"] = _parse_list(section["methods"], str)
        if "out_dir" in section:
            kwargs["out_dir"] = section["out_dir"]
    if parser.has_section("annealing"):
        section = parser["annealing"]
        if "steps" in section:
            kwargs["sa_steps"] = section.getint("steps")
        if "initial_temperature" in section:
            kwargs["sa_initial_temperature"] = section.getfloat("initial_temperature")
    return ExperimentConfig(**kwargs)


def apply_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Replace config fields with any non-None override values."""
    changes = {name: value for name, value in overrides.items() if value is not None}
    return replace(config, **changes) if changes else config
