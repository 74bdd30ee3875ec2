"""Monte Carlo experiment orchestration.

Runs the secrecy-rate studies behind the package: a transmit-power sweep,
an antenna-count sweep, and a convergence study that scores the activation
game against the exhaustive optimum.  Every method in a trial sees the
same user/eavesdropper drop, so method comparisons are paired, and every
method but the fixed array is scored through the trial's one coalition
value v(S), built when a method first reads it.  Seeds
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
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_origin

import numpy as np

from . import coalitions
from .baselines import (ANNEALING_MAX_ANTENNAS, AnnealingSchedule,
                        brute_force_secrecy_optimum,
                        coalition_value_activation, simulated_annealing,
                        ula_secrecy_rate)
from .channel import channel_vector
from .coalitions import ENUMERATION_CAP, CapacityError
from .game import DEFAULT_MAX_CYCLES, GameTrace, closest_antenna, run_activation
from .geometry import AntennaLayout, Drop, Scenario, sample_drop, uniform_layout
from .secrecy import LinkBudget, SecrecyEvaluator

DEFAULT_METHODS = ("initial-single-antenna", "shapley", "coalition-value", "fixed-ula")
CONVERGENCE_METHODS = ("shapley", "coalition-value")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a study run needs; unused axes are simply ignored.

    Fields sit in the order the configuration echo writes them.
    """

    scenario: Scenario = Scenario()
    power_dbm_axis: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    antenna_axis: tuple[int, ...] = (5, 10, 15, 20)
    n_antennas: int = 20
    power_dbm: float = 10.0              # fixed power for the antenna sweep
    convergence_power_dbm: float = 20.0
    trials: int = 500
    master_seed: int = 1
    max_cycles: int = DEFAULT_MAX_CYCLES
    timing: bool = False
    methods: tuple[str, ...] = DEFAULT_METHODS
    out_dir: str = None
    workers: int = 1
    sa_steps: int = 1_000_000
    sa_initial_temperature: float = 1.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.power_dbm_axis:
            raise ValueError("power axis must be nonempty")
        # every power a study can run must make a usable link budget
        for power in (*self.power_dbm_axis, self.power_dbm, self.convergence_power_dbm):
            LinkBudget(power, self.scenario.noise_power_dbm)
        AnnealingSchedule(self.sa_initial_temperature, self.sa_steps)
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
            raise ValueError(f"unknown methods {unknown}; choose from {', '.join(METHODS)}")
        for name in ("power_dbm_axis", "antenna_axis", "methods"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be at least 1")


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
    return np.random.SeedSequence([master_seed, sweep_idx, trial, METHODS[method].stream_id])


@dataclass(frozen=True)
class Trial:
    """One drop and what its methods share; evaluator is built on first read."""

    config: ExperimentConfig
    sweep_idx: int
    trial_idx: int
    seed: int                   # fingerprint of the drop stream
    drop: Drop
    layout: AntennaLayout
    budget: LinkBudget

    @cached_property
    def evaluator(self) -> SecrecyEvaluator:
        """v(S) over both channel vectors, through this module's names at call time."""
        scenario, layout, drop = self.config.scenario, self.layout, self.drop
        return SecrecyEvaluator(channel_vector(scenario, layout, drop.bob),
                                channel_vector(scenario, layout, drop.eve), self.budget)


def build_trial(config: ExperimentConfig, sweep_idx: int, trial_idx: int,
                n_antennas: int, power_dbm: float) -> Trial:
    """Draw a trial's drop; its coalition value waits for first use."""
    scenario = config.scenario
    seq = drop_seed(config.master_seed, sweep_idx, trial_idx)
    fingerprint = int(seq.generate_state(1, np.uint64)[0])
    drop = sample_drop(scenario, np.random.default_rng(seq))
    return Trial(config, sweep_idx, trial_idx, fingerprint, drop,
                 uniform_layout(scenario, n_antennas),
                 LinkBudget(power_dbm, scenario.noise_power_dbm))


class Outcome(NamedTuple):
    """What one method chose on one trial."""

    mask: int
    bob_rate: float
    eve_rate: float
    iterations: int
    trace: GameTrace = None     # the scan's trace, for the two games

    @property
    def secrecy_rate(self) -> float:
        return self.bob_rate - self.eve_rate


def _scored(trial: Trial, mask: int, iterations: int = 0, trace: GameTrace = None) -> Outcome:
    return Outcome(mask, *trial.evaluator.link_rates(mask), iterations, trace)


# The runners below call the baselines and the game through this module's
# names at call time, so replacing one of those names reaches every study.

def _initial_single_antenna(trial: Trial) -> Outcome:
    return _scored(trial, 1 << closest_antenna(trial.layout, trial.drop.bob))


def _shapley(trial: Trial) -> Outcome:
    mask, trace = run_activation(trial.evaluator, trial.layout, trial.drop.bob,
                                 max_cycles=trial.config.max_cycles)
    return _scored(trial, mask, trace.cycles_used * trace.n_antennas, trace)


def _coalition_value(trial: Trial) -> Outcome:
    mask, trace = coalition_value_activation(trial.evaluator, trial.layout, trial.drop.bob,
                                             max_cycles=trial.config.max_cycles)
    return _scored(trial, mask, trace.cycles_used * trace.n_antennas, trace)


def _brute_force(trial: Trial) -> Outcome:
    mask, _, bob_rate, eve_rate = brute_force_secrecy_optimum(trial.evaluator)
    return Outcome(mask, bob_rate, eve_rate, (1 << trial.layout.n_antennas) - 1)


def _annealing(trial: Trial) -> Outcome:
    config = trial.config
    mask, _ = simulated_annealing(
        trial.evaluator, trial.layout.n_antennas,
        AnnealingSchedule(config.sa_initial_temperature, config.sa_steps),
        seed=method_seed(config.master_seed, trial.sweep_idx, trial.trial_idx, "annealing"))
    return _scored(trial, mask, config.sa_steps)


def _fixed_ula(trial: Trial) -> Outcome:
    n = trial.layout.n_antennas
    bob_rate, eve_rate, _ = ula_secrecy_rate(trial.config.scenario, trial.drop, n, trial.budget)
    return Outcome(coalitions.full_mask(n), bob_rate, eve_rate, 0)


class Method(NamedTuple):
    stream_id: int              # fixed, so a new or renamed method never
                                # shifts the random draws of an existing one
    run: Callable[[Trial], Outcome]
    max_antennas: int = None    # the most antennas it supports; None for no limit


METHODS = {
    "initial-single-antenna": Method(1, _initial_single_antenna),
    "shapley": Method(2, _shapley),
    "coalition-value": Method(3, _coalition_value),
    "brute-force": Method(4, _brute_force, ENUMERATION_CAP),
    "annealing": Method(5, _annealing, ANNEALING_MAX_ANTENNAS),
    "fixed-ula": Method(6, _fixed_ula),
}


def _study_points(kind: str, config: ExperimentConfig) -> list[tuple]:
    """(sweep value for the rows, antenna count, transmit power dBm) per sweep point."""
    if kind == "power":
        return [(float(p), config.n_antennas, float(p)) for p in config.power_dbm_axis]
    if kind == "antenna":
        return [(float(n), int(n), config.power_dbm) for n in config.antenna_axis]
    if kind == "convergence":
        return [(float(config.convergence_power_dbm), config.n_antennas,
                 config.convergence_power_dbm)]
    raise ValueError(f"unknown study kind {kind!r}")


def _study_methods(kind: str, config: ExperimentConfig) -> tuple[str, ...]:
    """The methods each trial runs, in order.

    A convergence study runs its optimum reference last: exhaustive
    within its limit, annealing past it.
    """
    if kind != "convergence":
        return config.methods
    exact = config.n_antennas <= METHODS["brute-force"].max_antennas
    return CONVERGENCE_METHODS + ("brute-force" if exact else "annealing",)


def _result_row(method: str, sweep_value: float, trial: Trial, outcome: Outcome,
                elapsed: float) -> ResultRow:
    secrecy = outcome.secrecy_rate
    return ResultRow(
        method=method, sweep_value=sweep_value, trial=trial.trial_idx, seed=trial.seed,
        secrecy_rate=secrecy, secrecy_rate_clamped=max(secrecy, 0.0),
        bob_rate=outcome.bob_rate, eve_rate=outcome.eve_rate,
        coalition_mask=outcome.mask, coalition_size=outcome.mask.bit_count(),
        iterations=outcome.iterations, wall_time_s=elapsed)


def _evaluate_trial(args) -> tuple[list, list]:
    """Run the study's methods on one drop.  Top level so it pickles.

    A coalition past ENUMERATION_CAP members aborts the study with a
    CapacityError naming the method, sweep point, trial and drop seed.
    """
    kind, config, sweep_idx, trial_idx = args
    sweep_value, n, power = _study_points(kind, config)[sweep_idx]
    trial = build_trial(config, sweep_idx, trial_idx, n, power)
    rows = []
    traces = {}
    for method in _study_methods(kind, config):
        start = time.perf_counter()
        try:
            outcome = METHODS[method].run(trial)
        except CapacityError as exc:
            raise CapacityError(f"{method} at {kind} sweep point {sweep_value:g}, trial "
                                f"{trial_idx} (drop seed {trial.seed}): {exc}") from exc
        if outcome.trace is not None:
            traces[method] = outcome.trace
        rows.append(_result_row(method, sweep_value, trial, outcome,
                                time.perf_counter() - start))
    if kind != "convergence":
        return rows, []
    return _convergence_extras(rows, traces)


def _convergence_extras(rows, traces):
    """Score a trial's rows against its last, the optimum reference, and flatten its traces."""
    reference = rows[-1]
    ref_value = reference.secrecy_rate

    def ratio(value):
        if ref_value <= 0.0:
            return float("nan")
        return value / ref_value

    out = []
    for row in rows:
        if reference.method == "brute-force" and row.secrecy_rate > ref_value + 1e-9 * max(1.0, abs(ref_value)):
            raise RuntimeError(
                f"method {row.method} beat the exhaustive optimum on trial {row.trial}: "
                f"{row.secrecy_rate} > {ref_value}")
        out.append(ConvergenceRow(
            **{f.name: getattr(row, f.name) for f in fields(ResultRow)},
            optimum_value=ref_value, optimum_ratio=ratio(row.secrecy_rate),
            reference_method=reference.method))

    trace_rows = [{"method": method, "trial": reference.trial, **row}
                  for method, trace in traces.items() for row in trace.to_rows()]
    return out, trace_rows


def _run_study(kind: str, config: ExperimentConfig) -> StudyResult:
    if kind == "convergence" and config.methods != DEFAULT_METHODS:
        # the study runs CONVERGENCE_METHODS and its reference, whatever
        # methods says, so the echo must not name others
        raise ValueError(f"methods: a convergence study always runs "
                         f"{', '.join(CONVERGENCE_METHODS)} and its reference; "
                         f"leave methods at its default, not {', '.join(config.methods)}")
    points = _study_points(kind, config)
    methods = _study_methods(kind, config)
    most = max(n for _, n, _ in points)
    for method in methods:
        limit = METHODS[method].max_antennas
        if limit is not None and most > limit:
            raise CapacityError(f"{method} supports at most {limit} antennas; "
                                f"this study needs it at {most}")
    if kind == "convergence" and methods[-1] == "annealing":
        warnings.warn(f"{most} antennas exceeds the exhaustive limit "
                      f"({METHODS['brute-force'].max_antennas}); using simulated annealing "
                      "as the reference", RuntimeWarning, stacklevel=3)

    tasks = [(kind, config, j, t) for j in range(len(points)) for t in range(config.trials)]
    # a pool forks all its workers at once, so never more than there are tasks
    workers = min(config.workers, len(tasks))
    if workers == 1:
        outcomes = [_evaluate_trial(task) for task in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_evaluate_trial, tasks, chunksize=chunk))

    rows = [row for rows_, _ in outcomes for row in rows_]
    trace_rows = [tr for _, trs in outcomes for tr in trs]
    rows.sort(key=lambda r: (r.method, r.sweep_value, r.trial))
    trace_rows.sort(key=lambda r: (r["method"], r["trial"], r["step"]))
    return StudyResult(kind=kind, rows=rows, trace_rows=trace_rows,
                       reference_method=methods[-1] if kind == "convergence" else None)


def run_power_sweep(config: ExperimentConfig) -> StudyResult:
    """Secrecy rate versus transmit power at a fixed antenna count."""
    return _run_study("power", config)


def run_antenna_sweep(config: ExperimentConfig) -> StudyResult:
    """Secrecy rate versus antenna count at a fixed transmit power."""
    return _run_study("antenna", config)


def run_convergence_study(config: ExperimentConfig) -> StudyResult:
    """Game trajectories plus the per-trial optimum comparison.

    Each trial runs the two activation games, then the optimum reference
    (brute-force up to METHODS["brute-force"].max_antennas antennas,
    annealing beyond, with a warning), and scores every row against the
    reference's.
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

class _IniField(NamedTuple):
    section: str
    key: str
    name: str                   # the Scenario or ExperimentConfig field
    parse: Callable[[str], object]
    echoed: bool


# INI keys that differ from their field names
_INI_KEYS = {"power_dbm_axis": "powers_dbm", "antenna_axis": "antenna_counts",
             "sa_steps": "steps", "sa_initial_temperature": "initial_temperature"}
# read but never echoed: they are execution environment, not experiment
# definition, and the echo must compare equal across output locations and
# pool sizes
_NOT_ECHOED = ("out_dir", "workers")


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text}") from None


def _parser(kind) -> Callable[[str], object]:
    """Text to value for a field annotated as kind; tuples are comma lists."""
    if get_origin(kind) is tuple:
        item = _parser(get_args(kind)[0])

        def comma_list(text):
            return tuple(item(piece.strip()) for piece in text.split(",") if piece.strip())
        return comma_list
    return _parse_bool if kind is bool else kind


def _ini_fields() -> list[_IniField]:
    """Every configurable field, in echo order, from the two dataclasses."""
    table = [_IniField("scenario", f.name, f.name, _parser(f.type), True)
             for f in fields(Scenario)]
    for f in fields(ExperimentConfig):
        if f.name != "scenario":
            section = "annealing" if f.name.startswith("sa_") else "experiment"
            table.append(_IniField(section, _INI_KEYS.get(f.name, f.name), f.name,
                                   _parser(f.type), f.name not in _NOT_ECHOED))
    return table


_INI_FIELDS = _ini_fields()
_INI_SECTIONS = ("scenario", "experiment", "annealing")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(item) for item in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def effective_config_ini(config: ExperimentConfig) -> str:
    """Serialize the full configuration; parsing it back round-trips."""
    lines = []
    for section in _INI_SECTIONS:
        owner = config.scenario if section == "scenario" else config
        lines.append(f"[{section}]")
        lines += [f"{entry.key} = {_format_value(getattr(owner, entry.name))}"
                  for entry in _INI_FIELDS if entry.section == section and entry.echoed]
        lines.append("")
    return "\n".join(lines)


def config_from_ini(path) -> ExperimentConfig:
    """Load an ExperimentConfig from an INI file; absent keys keep defaults.

    A section or key the field table does not know is refused, so a typo
    cannot silently leave its field at the default.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        # a repeated key or section, or a key before any section header
        raise ValueError(f"{path}: malformed config file: {exc}") from exc
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    if parser.defaults():
        raise ValueError(f"{path}: unknown section [{parser.default_section}]")
    known = {(entry.section, entry.key): entry for entry in _INI_FIELDS}
    values = {section: {} for section in _INI_SECTIONS}
    for section in parser.sections():
        if section not in _INI_SECTIONS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, text in parser.items(section):
            entry = known.get((section, key))
            if entry is None:
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
            try:
                values[section][entry.name] = entry.parse(text)
            except ValueError as exc:
                raise ValueError(f"{path}: bad value for {key!r} in section [{section}]: "
                                 f"{exc}") from exc
    return ExperimentConfig(scenario=Scenario(**values["scenario"]),
                            **values["experiment"], **values["annealing"])


def apply_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Replace config fields with any non-None override values."""
    changes = {name: value for name, value in overrides.items() if value is not None}
    return replace(config, **changes) if changes else config
