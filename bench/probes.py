"""Layer probes: fixed inputs, timed one layer at a time, for the traced run.

These are curves over problem size that no single workload traces out:
member payoffs at |S| = 8, 12, 16, activation scans at N = 10, 20, the
2^N table at N = 16, 20, 24, annealing steps per second, and the process
pool at 1 and 2 workers.  Their inputs come from fixed seeds, so every
traced run measures the same work.  Each figure is the median of a few
repeats; wall-clock time, since the pool figures need it and the others
run in one thread.
"""

import pickle
import statistics
import time
import tracemalloc
from dataclasses import replace

import numpy as np

from pinchsec import (AnnealingSchedule, ExperimentConfig, LinkBudget, Scenario,
                      SecrecyEvaluator, channel_vector, enumerate_secrecy_values,
                      run_activation, run_power_sweep, sample_drop, shapley_value,
                      simulated_annealing, uniform_layout)

SCENARIO = Scenario()
BUDGET = LinkBudget(20.0, SCENARIO.noise_power_dbm)


def _drop_channels(n: int, seed: int):
    layout = uniform_layout(SCENARIO, n)
    drop = sample_drop(SCENARIO, np.random.default_rng(seed))
    return layout, drop, channel_vector(SCENARIO, layout, drop.bob), channel_vector(SCENARIO, layout, drop.eve)


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def payoffs_ms(size: int, repeats: int) -> float:
    """Every member payoff of one |S| = size coalition, on a fresh evaluator."""
    _, _, hb, he = _drop_channels(20, 101)
    coalition = (1 << size) - 1

    def run():
        v = SecrecyEvaluator(hb, he, BUDGET)
        for member in range(size):
            shapley_value(v, coalition, member)
    return _median_s(run, repeats) * 1e3


def scan_ms(n: int, drops: int = 8, repeats: int = 3) -> float:
    """Mean payoff-driven activation scan over a fixed set of drops."""
    cases = [_drop_channels(n, 200 + i) for i in range(drops)]

    def run():
        for layout, drop, hb, he in cases:
            run_activation(SecrecyEvaluator(hb, he, BUDGET), layout, drop.bob)
    return _median_s(run, repeats) / drops * 1e3


def table_ms(n: int, repeats: int) -> float:
    _, _, hb, he = _drop_channels(n, 300)
    return _median_s(lambda: enumerate_secrecy_values(hb, he, BUDGET), repeats) * 1e3


def table_peak_mb(n: int) -> float:
    """Peak of numpy allocations while the 2^n table is built."""
    _, _, hb, he = _drop_channels(n, 300)
    tracemalloc.start()
    try:
        enumerate_secrecy_values(hb, he, BUDGET)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def anneal_steps_per_s(n: int = 28, steps: int = 100_000, repeats: int = 3) -> float:
    _, _, hb, he = _drop_channels(n, 400)
    schedule = AnnealingSchedule(1.0, steps)
    seconds = _median_s(lambda: simulated_annealing(SecrecyEvaluator(hb, he, BUDGET), n,
                                                    schedule, seed=7), repeats)
    return steps / seconds


POOL_CONFIG = ExperimentConfig(n_antennas=20, trials=10, master_seed=500)


def task_pickle_bytes() -> int:
    """Size of one power-sweep task as the pool sends it to a worker."""
    return len(pickle.dumps(("power", POOL_CONFIG, 0, 0)))


def pool_trials_per_s(repeats: int = 3) -> dict:
    """Wall-clock power-sweep throughput at 1 and 2 workers, alternating."""
    trials = POOL_CONFIG.trials * len(POOL_CONFIG.power_dbm_axis)
    times = {1: [], 2: []}
    for _ in range(repeats):
        for workers in (1, 2):
            config = replace(POOL_CONFIG, workers=workers)
            t0 = time.perf_counter()
            run_power_sweep(config)
            times[workers].append(time.perf_counter() - t0)
    return {w: trials / statistics.median(ts) for w, ts in times.items()}


def run_all() -> dict:
    """Every probe, named as its per-layer metric."""
    pool = pool_trials_per_s()
    return {
        "game.payoffs_ms.s8": payoffs_ms(8, 21),
        "game.payoffs_ms.s12": payoffs_ms(12, 5),
        "game.payoffs_ms.s16": payoffs_ms(16, 1),
        "game.scan_ms.n10": scan_ms(10),
        "game.scan_ms.n20": scan_ms(20),
        "baselines.table_ms.n16": table_ms(16, 11),
        "baselines.table_ms.n20": table_ms(20, 3),
        "baselines.table_ms.n24": table_ms(24, 1),
        "baselines.table_peak_mb.n20": table_peak_mb(20),
        "baselines.anneal_steps_per_s": anneal_steps_per_s(),
        "harness.task_pickle_bytes": task_pickle_bytes(),
        "harness.pool_trials_per_s.w1": pool[1],
        "harness.pool_trials_per_s.w2": pool[2],
    }
