"""The benchmark's workloads: one study configuration each, run in rounds.

A round is one study call with a fixed number of trials, followed by
``write_outputs``.  Every round of a run gets its own master seed, derived
from the run's ``--seed``, so a run covers fresh drops from round to round
and the same seed always gives the same inputs.
"""

from dataclasses import dataclass, replace
from typing import Callable

from pinchsec import ExperimentConfig, run_convergence_study, run_power_sweep

# rounds of one run never reach this many, so two (seed, round) pairs never
# share a master seed
ROUNDS_PER_SEED = 10_000

# set-up warms the code paths and caches with one small study on drops that
# no timed round uses; small, so that set-up leaves the peak memory of a
# process to the rounds
WARMUP_MASTER_SEED = 0
WARMUP_ANTENNAS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    study: Callable
    config: ExperimentConfig      # trials = trials per sweep point per round

    @property
    def kind(self) -> str:
        """The study kind: "power" or "convergence"."""
        return "power" if self.study is run_power_sweep else "convergence"

    @property
    def trials_per_round(self) -> int:
        points = len(self.config.power_dbm_axis) if self.kind == "power" else 1
        return points * self.config.trials

    def round_config(self, seed: int, round_idx: int, out_dir) -> ExperimentConfig:
        """Configuration of timed round ``round_idx`` (counted from 0)."""
        return replace(self.config, master_seed=seed * ROUNDS_PER_SEED + round_idx + 1,
                       out_dir=str(out_dir))

    def warmup_config(self, out_dir) -> ExperimentConfig:
        return replace(self.config, trials=1, n_antennas=WARMUP_ANTENNAS,
                       master_seed=WARMUP_MASTER_SEED, out_dir=str(out_dir))


# why each workload is there: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload(
        "power-sweep-n20",
        run_power_sweep,
        ExperimentConfig(n_antennas=20, trials=10, workers=1)),
    Workload(
        "convergence-n20",
        run_convergence_study,
        ExperimentConfig(n_antennas=20, convergence_power_dbm=20.0, trials=5, workers=1)),
    Workload(
        "convergence-n28",
        run_convergence_study,
        ExperimentConfig(n_antennas=28, convergence_power_dbm=20.0, trials=2,
                         sa_steps=100_000, workers=1)),
)}
