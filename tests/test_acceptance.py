"""Acceptance gate: eleven end-to-end criteria, one verdict line each.

Each test prints "criterion NN: PASS/FAIL - detail" straight to the
terminal (bypassing capture) and then asserts, so a full run always shows
the complete scoreboard.  Statistical bands were sized against pilot runs
at different seeds; the thresholds have several standard errors of slack.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pinchsec import (
    AnnealingSchedule,
    CapacityError,
    ExperimentConfig,
    LinkBudget,
    Scenario,
    SecrecyEvaluator,
    brute_force_secrecy_optimum,
    channel_vector,
    run_activation,
    run_antenna_sweep,
    run_convergence_study,
    run_power_sweep,
    sample_drop,
    shapley_value,
    simulated_annealing,
    AntennaLayout,
    uniform_layout,
    wavelengths,
    write_outputs,
)
from pinchsec.harness import drop_seed, method_seed
from helpers import (
    ValueTable,
    channel_coefficient,
    from_members,
    is_nash_stable,
    mean_secrecy,
    paired_differences,
    permutation_payoff,
    random_value_table,
    rows_for,
    solve_alignment,
)


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _mean(values):
    values = list(values)
    return math.fsum(values) / len(values)


def test_criterion_01_payoff_oracle_equivalence(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(161803)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 7))
        members = tuple(sorted(int(m) for m in rng.choice(9, size=k, replace=False)))
        table = random_value_table(rng, members)
        coalition = from_members(members)
        payoffs = {m: shapley_value(ValueTable(table), coalition, m) for m in members}
        for m in members:
            worst = max(worst, abs(payoffs[m] - permutation_payoff(table, members, m)))
        efficiency_gap = abs(math.fsum(payoffs.values()) - (table[coalition] - table[0]))
        worst = max(worst, efficiency_gap)

    # interchangeable members earn identical payoffs
    symmetric = [shapley_value(ValueTable(lambda m: float(m.bit_count()) ** 1.5), 0b11111, i)
                 for i in range(5)]
    symmetry_gap = max(abs(p - symmetric[0]) for p in symmetric)
    # a member that never moves the value earns exactly nothing
    null_rng = np.random.default_rng(55)
    base = {mask: float(null_rng.normal()) for mask in range(8)}
    null_payoff = abs(shapley_value(ValueTable(lambda m: base[m & 0b0111]), 0b1111, 3))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and symmetry_gap <= 1e-12 and null_payoff <= 1e-12 and elapsed < 10.0
    _verdict(capsys, 1, ok,
             f"200 random games: max oracle gap {worst:.2e}, symmetry gap "
             f"{symmetry_gap:.2e}, null payoff {null_payoff:.2e}, {elapsed:.1f} s")


def test_criterion_02_activation_reaches_stability(capsys):
    start = time.perf_counter()
    s = Scenario()
    layout = uniform_layout(s, 20)
    budget = LinkBudget.from_scenario(s, transmit_power_dbm=20.0)
    exhausted = 0
    unstable = 0
    for trial in range(1000):
        drop = sample_drop(s, np.random.default_rng(drop_seed(101010, 0, trial)))
        v = SecrecyEvaluator(channel_vector(s, layout, drop.bob),
                             channel_vector(s, layout, drop.eve), budget)
        try:
            mask, trace = run_activation(v, layout, drop.bob)
        except CapacityError:
            exhausted += 1
            continue
        if not trace.converged:
            exhausted += 1
            continue
        if not is_nash_stable(v, mask, 20):
            unstable += 1
    elapsed = time.perf_counter() - start
    ok = exhausted == 0 and unstable == 0 and elapsed < 300.0
    _verdict(capsys, 2, ok,
             f"1000 drops at 20 antennas: {exhausted} cap exhaustions, "
             f"{unstable} unstable outcomes, {elapsed:.0f} s")


def test_criterion_03_optimum_ratio_band(capsys, convergence_result):
    rows = rows_for(convergence_result.rows, "shapley")
    cap_ceiling = 100 * 20   # max_cycles scans of every antenna
    converged = [r for r in rows if r.iterations < cap_ceiling]
    ratios = [r.optimum_ratio for r in converged if math.isfinite(r.optimum_ratio)]
    mean_ratio = _mean(ratios)
    ok = len(rows) == 200 and len(converged) == 200 and 0.4 <= mean_ratio <= 0.9
    _verdict(capsys, 3, ok,
             f"mean achieved/optimum ratio {mean_ratio:.3f} over {len(ratios)} "
             f"positive-optimum drops (band [0.4, 0.9])")


def test_criterion_04_optimum_starves_the_eavesdropper(capsys, convergence_result):
    rows = rows_for(convergence_result.rows, "brute-force")
    eve_mean = _mean(r.eve_rate for r in rows)
    ok = len(rows) == 200 and eve_mean < 1.0
    _verdict(capsys, 4, ok,
             f"mean eavesdropper rate at the exhaustive optimum "
             f"{eve_mean:.3f} bits/s/Hz (< 1 required)")


def test_criterion_05_method_ordering_with_margins(capsys, power_sweep_rows):
    shapley = mean_secrecy(power_sweep_rows, "shapley")
    value_driven = mean_secrecy(power_sweep_rows, "coalition-value")
    initial = mean_secrecy(power_sweep_rows, "initial-single-antenna")
    powers = sorted(shapley)
    ordering_ok = all(shapley[p] >= value_driven[p] >= initial[p] for p in powers)
    clear_margins = 0
    for p in powers:
        diffs = paired_differences(power_sweep_rows, "shapley", "coalition-value", p)
        margin = diffs.mean()
        se = diffs.std(ddof=1) / math.sqrt(diffs.size)
        if margin > 2.0 * se:
            clear_margins += 1
    ok = len(powers) == 7 and ordering_ok and clear_margins >= 4
    _verdict(capsys, 5, ok,
             f"payoff-driven >= value-driven >= single-antenna at all "
             f"{len(powers)} powers: {ordering_ok}; margin > 2 SE at "
             f"{clear_margins}/7 points (need >= 4)")


def test_criterion_06_fixed_array_near_zero(capsys, ula_sweep_rows):
    means = mean_secrecy(ula_sweep_rows, "fixed-ula")
    worst = max(abs(m) for m in means.values())
    ok = len(means) == 7 and worst < 0.2
    _verdict(capsys, 6, ok,
             f"fixed half-wavelength array: max |mean secrecy| {worst:.3f} "
             f"bits/s/Hz across 7 powers (< 0.2 required)")


def test_criterion_07_single_antenna_start_level(capsys, power_sweep_rows):
    means = mean_secrecy(power_sweep_rows, "initial-single-antenna")
    ok = all(0.5 <= means[p] <= 2.0 for p in (10.0, 20.0))
    _verdict(capsys, 7, ok,
             f"single-antenna start mean secrecy {means[10.0]:.3f} at 10 dBm, "
             f"{means[20.0]:.3f} at 20 dBm (band [0.5, 2.0])")


def test_criterion_08_power_and_antenna_trends(capsys, antenna_sweep_rows):
    # power trend, measured on one shared set of drops so the small gaps
    # between the top power levels are not drowned by drop-to-drop noise
    s = Scenario()
    layout = uniform_layout(s, 20)
    powers = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    budgets = [LinkBudget.from_scenario(s, p) for p in powers]
    sums = [0.0] * len(powers)
    trials = 500
    for trial in range(trials):
        drop = sample_drop(s, np.random.default_rng(drop_seed(5150, 0, trial)))
        bob = channel_vector(s, layout, drop.bob)
        eve = channel_vector(s, layout, drop.eve)
        for i, budget in enumerate(budgets):
            v = SecrecyEvaluator(bob, eve, budget)
            mask, _ = run_activation(v, layout, drop.bob)
            sums[i] += v(mask)
    power_means = [total / trials for total in sums]
    power_trend = all(b > a for a, b in zip(power_means, power_means[1:]))

    counts = sorted({int(r.sweep_value) for r in antenna_sweep_rows})
    by_count = mean_secrecy(antenna_sweep_rows, "shapley")
    antenna_trend = all(by_count[float(b)] >= by_count[float(a)]
                        for a, b in zip(counts, counts[1:]))

    few, many = float(counts[0]), float(counts[-1])
    shapley_rows = rows_for(antenna_sweep_rows, "shapley")
    eve_drop = (_mean(r.eve_rate for r in shapley_rows if r.sweep_value == few)
                - _mean(r.eve_rate for r in shapley_rows if r.sweep_value == many))
    bob_gain = (_mean(r.bob_rate for r in shapley_rows if r.sweep_value == many)
                - _mean(r.bob_rate for r in shapley_rows if r.sweep_value == few))
    eve_dominates = eve_drop > bob_gain

    ok = power_trend and antenna_trend and eve_dominates
    _verdict(capsys, 8, ok,
             f"paired power means {['%.3f' % m for m in power_means]} strictly "
             f"increasing: {power_trend}; antenna means nondecreasing over "
             f"{counts}: {antenna_trend}; eavesdropper-rate drop {eve_drop:.2f} "
             f"exceeds user-rate gain {bob_gain:.2f}: {eve_dominates}")


def test_criterion_09_annealing_matches_exhaustive(capsys):
    s = Scenario()
    layout = uniform_layout(s, 10)
    budget = LinkBudget.from_scenario(s, transmit_power_dbm=0.0)
    matches = 0
    monotone = True
    for trial in range(100):
        drop = sample_drop(s, np.random.default_rng(drop_seed(909090, 0, trial)))
        bob = channel_vector(s, layout, drop.bob)
        eve = channel_vector(s, layout, drop.eve)
        v = SecrecyEvaluator(bob, eve, budget)
        _, best, _, _ = brute_force_secrecy_optimum(v)
        trace = []
        _, found = simulated_annealing(
            v, 10, AnnealingSchedule(steps=100_000),
            seed=method_seed(909090, 0, trial, "annealing"), best_trace=trace)
        if abs(found - best) <= 1e-9 * max(1.0, abs(best)):
            matches += 1
        if any(b < a for a, b in zip(trace, trace[1:])):
            monotone = False
    ok = matches >= 95 and monotone
    _verdict(capsys, 9, ok,
             f"annealing found the exhaustive optimum on {matches}/100 drops "
             f"(need >= 95); best-so-far monotone: {monotone}")


def _digests(config, runner, out_dir):
    config = replace(config, out_dir=str(out_dir))
    write_outputs(runner(config), config)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def test_criterion_10_byte_identical_reruns(capsys, tmp_path):
    base = dict(trials=3, n_antennas=6, master_seed=77, sa_steps=150,
                power_dbm_axis=(0.0, 10.0), antenna_axis=(3, 5))
    studies = [
        ("power", run_power_sweep,
         ExperimentConfig(**base, methods=("initial-single-antenna", "shapley",
                                           "annealing"))),
        ("antenna", run_antenna_sweep,
         ExperimentConfig(**base, methods=("shapley", "fixed-ula"))),
        ("convergence", run_convergence_study, ExperimentConfig(**base)),
    ]
    mismatched = []
    files = 0
    for name, runner, config in studies:
        reference = _digests(replace(config, workers=1), runner, tmp_path / f"{name}-a")
        repeat = _digests(replace(config, workers=1), runner, tmp_path / f"{name}-b")
        pooled = _digests(replace(config, workers=8), runner, tmp_path / f"{name}-c")
        files += len(reference)
        if not (reference == repeat == pooled):
            mismatched.append(name)
    ok = not mismatched and files >= 9
    _verdict(capsys, 10, ok,
             f"3 studies x 3 runs (workers 1, 1, 8): all {files} emitted files "
             f"byte-identical" if ok else f"mismatched outputs in {mismatched}")


def test_criterion_11_physics_reference_values(capsys):
    s = Scenario()
    w = wavelengths(s)
    lam_ok = abs(w.free_space - 0.0107068735) <= 1e-9 * 0.0107068735
    guided_ok = abs(w.guided - 0.0076477667857142857) <= 1e-9 * w.guided
    eta_ok = abs(w.amplitude_factor - 0.00085202592129231112) <= 1e-9 * w.amplitude_factor

    layout = AntennaLayout((0.0, 1.0))
    x_add = solve_alignment(s, layout, y=0.5, target=0.0, x_lo=2.0, x_hi=8.0)
    r_add = (x_add, 0.5, 0.0)
    h0 = channel_coefficient(s, layout, r_add, 0)
    h1 = channel_coefficient(s, layout, r_add, 1)
    add_gap = abs(abs(h0 + h1) - (abs(h0) + abs(h1))) / (abs(h0) + abs(h1))

    x_cancel = solve_alignment(s, layout, y=0.5, target=math.pi, x_lo=2.0, x_hi=8.0)
    r_cancel = (x_cancel, 0.5, 0.0)
    g0 = channel_coefficient(s, layout, r_cancel, 0)
    g1 = channel_coefficient(s, layout, r_cancel, 1)
    cancel_gap = abs(abs(g0 + g1) - abs(abs(g0) - abs(g1))) / (abs(g0) + abs(g1))

    ok = lam_ok and guided_ok and eta_ok and add_gap <= 1e-9 and cancel_gap <= 1e-9
    _verdict(capsys, 11, ok,
             f"wavelengths and amplitude factor within 1e-9 of references: "
             f"{lam_ok and guided_ok and eta_ok}; alignment identities: "
             f"additive gap {add_gap:.1e}, cancelling gap {cancel_gap:.1e}")
