import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinchsec import (
    AnnealingSchedule,
    AntennaLayout,
    CapacityError,
    LinkBudget,
    Scenario,
    SecrecyEvaluator,
    brute_force_secrecy_optimum,
    channel_vector,
    coalition_value_activation,
    enumerate_secrecy_values,
    sample_drop,
    simulated_annealing,
    uniform_layout,
    wavelengths,
)
from pinchsec.baselines import _WALK_CHUNK, ula_secrecy_rate
from pinchsec.geometry import Drop
from pinchsec.secrecy import _BLOCK_BITS
from helpers import brute_force_optimum, loop_annealing, one_shot_table


def _drop_evaluator(seed=1, n=8, power_dbm=10.0):
    s = Scenario()
    layout = uniform_layout(s, n)
    budget = LinkBudget.from_scenario(s, transmit_power_dbm=power_dbm)
    drop = sample_drop(s, np.random.default_rng(seed))
    bob = channel_vector(s, layout, drop.bob)
    eve = channel_vector(s, layout, drop.eve)
    return s, layout, budget, drop, bob, eve, SecrecyEvaluator(bob, eve, budget)


def test_brute_force_matches_dict_maximum():
    rng = np.random.default_rng(12)
    for _ in range(10):
        table = {mask: float(rng.normal()) for mask in range(1, 64)}
        mask, value = brute_force_optimum(table.__getitem__, 6)
        assert value == max(table.values())
        assert table[mask] == value


def test_brute_force_tie_keeps_smallest_mask():
    mask, value = brute_force_optimum(lambda m: 0.0, 5)
    assert mask == 1
    assert value == 0.0


def test_brute_force_caps_and_input_checks():
    with pytest.raises(ValueError):
        brute_force_optimum(lambda m: 0.0, 0)
    with pytest.raises(CapacityError):
        brute_force_optimum(lambda m: 0.0, 25)


def test_enumeration_matches_per_mask_evaluation():
    _, _, budget, _, bob, eve, v = _drop_evaluator(seed=4, n=8)
    values = enumerate_secrecy_values(bob, eve, budget)
    assert values.shape == (256,)
    assert values[0] == -np.inf
    for mask in range(1, 256):
        assert values[mask] == pytest.approx(v(mask), rel=1e-12, abs=1e-12)


def test_enumeration_input_validation():
    budget = LinkBudget.from_scenario(Scenario(), 10.0)
    with pytest.raises(ValueError):
        enumerate_secrecy_values(np.ones(3, complex), np.ones(4, complex), budget)
    with pytest.raises(ValueError):
        enumerate_secrecy_values(np.ones(0, complex), np.ones(0, complex), budget)
    with pytest.raises(CapacityError):
        enumerate_secrecy_values(np.ones(25, complex), np.ones(25, complex), budget)


def test_both_exhaustive_routes_agree():
    _, _, budget, _, bob, eve, v = _drop_evaluator(seed=9, n=8)
    mask_a, value_a = brute_force_optimum(v, 8)
    mask_b, value_b, rb, re = brute_force_secrecy_optimum(bob, eve, budget)
    assert mask_a == mask_b
    assert value_a == pytest.approx(value_b, rel=1e-12)
    assert rb - re == pytest.approx(value_b, rel=1e-12)
    rb_direct, re_direct = v.link_rates(mask_b)
    assert rb == pytest.approx(rb_direct, rel=1e-12)
    assert re == pytest.approx(re_direct, rel=1e-12)


def _assert_search_matches_table(hb, he, budget, rng):
    n = len(hb)
    table = one_shot_table(hb, he, budget)
    np.testing.assert_array_equal(enumerate_secrecy_values(hb, he, budget), table)
    mask, value, rb, re = brute_force_secrecy_optimum(hb, he, budget)
    assert mask == int(np.argmax(table))
    assert value == rb - re
    # one kernel: the block values, the scalar lookups and the optimum's
    # score agree bit for bit
    assert value == table[mask]
    v = SecrecyEvaluator(hb, he, budget)
    for m in rng.integers(1, 1 << n, size=8).tolist() + [(1 << n) - 1]:
        assert v(m) == table[m]


# n runs below, at and above the antennas one block spans
@pytest.mark.parametrize("n", sorted({1, 2, 7, 13, 14, 15, 18,
                                      _BLOCK_BITS - 1, _BLOCK_BITS, _BLOCK_BITS + 1}))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), power_dbm=st.floats(-10.0, 40.0))
def test_streamed_search_matches_the_one_shot_table(n, seed, power_dbm):
    rng = np.random.default_rng(seed)
    hb, he = (rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) * 1e-4
    _assert_search_matches_table(hb, he, LinkBudget(power_dbm, -90.0), rng)


@pytest.mark.parametrize("seed", [0, 1])
def test_streamed_search_finishes_every_mask_when_all_ratios_tie(seed):
    # rho * |h|^2 stays below 2^-53 for every mask, so 1 + SNR rounds to 1
    # and every ratio the search ranks by is 1, while the log1p values
    # still differ: every mask is finished and the values decide
    n = 16
    rng = np.random.default_rng(seed)
    hb, he = (rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) * 1e-16
    budget = LinkBudget(20.0, -90.0)
    snr_bound = budget.transmit_power_w / budget.noise_power_w
    assert snr_bound * max(np.abs(hb).sum(), np.abs(he).sum()) ** 2 < 2.0 ** -53
    table = one_shot_table(hb, he, budget)
    assert np.unique(table[1:]).size > 1 << (n - 1)
    _assert_search_matches_table(hb, he, budget, rng)


def test_streamed_search_finishes_a_mask_whose_ratio_rounds_below_the_best():
    # with rho = 1e11: {0} has SNRs 1.2e-16 and 1e-16, so its ratio rounds
    # to 1 + 2^-52; {1} has SNRs 1e-16 and 0, so its ratio rounds to 1, yet
    # its value is the larger.  Only the margin below the best ratio gets
    # {1} finished.
    hb = np.array([math.sqrt(1.2e-27), 1j * math.sqrt(1e-27)])
    he = np.array([math.sqrt(1e-27), 0.0])
    budget = LinkBudget(20.0, -90.0)
    table = one_shot_table(hb, he, budget)
    assert int(np.argmax(table)) == 0b10
    assert (1.0 + 1.2e-16) / (1.0 + 1e-16) > 1.0
    mask, value, *_ = brute_force_secrecy_optimum(hb, he, budget)
    assert mask == 0b10
    assert value == table[0b10]


@pytest.mark.parametrize("twin", [3, 15])
def test_streamed_search_tie_keeps_smallest_mask(twin):
    # antenna 1 and its twin are identical, and antenna 5 cancels either's
    # eavesdropper channel, so {1, 5} and {5, twin} tie for the optimum;
    # the other antennas only feed the eavesdropper.  Twin 15 puts the
    # later maximum in a later block.
    n = 16
    hb = np.full(n, 1e-7 + 0j)
    he = np.full(n, 3e-4 + 0j)
    hb[[1, twin, 5]] = 1e-4
    he[[1, twin]] = 1e-4
    he[5] = -1e-4
    budget = LinkBudget(20.0, -90.0)
    table = one_shot_table(hb, he, budget)
    tied = np.flatnonzero(table == table.max())
    assert tied.tolist() == [0b100010, (1 << 5) | (1 << twin)]
    mask, *_ = brute_force_secrecy_optimum(hb, he, budget)
    assert mask == 0b100010


def test_tie_across_blocks_out_of_mask_order_keeps_smallest_mask():
    # as above with twin b, the first antenna past a block, and canceller
    # b + 1: the block of {b, b + 1} comes before the block of {1, b + 1}
    # in prefix order, so only the explicit tie rule keeps the smaller mask
    b = _BLOCK_BITS
    n = b + 3
    hb = np.full(n, 1e-7 + 0j)
    he = np.full(n, 3e-4 + 0j)
    hb[[1, b, b + 1]] = 1e-4
    he[[1, b]] = 1e-4
    he[b + 1] = -1e-4
    budget = LinkBudget(20.0, -90.0)
    table = one_shot_table(hb, he, budget)
    tied = np.flatnonzero(table == table.max())
    assert tied.tolist() == [(1 << 1) | (1 << (b + 1)), (1 << b) | (1 << (b + 1))]
    mask, *_ = brute_force_secrecy_optimum(hb, he, budget)
    assert mask == tied[0]


def test_identical_channels_tie_to_single_antenna():
    # bob and eve share every coefficient, so all coalitions score zero
    # and the tie rule must pick mask 1
    budget = LinkBudget.from_scenario(Scenario(), 10.0)
    h = (np.arange(1, 6) * (0.3 + 0.4j)) * 1e-4
    mask, value, rb, re = brute_force_secrecy_optimum(h, h, budget)
    assert mask == 1
    assert value == 0.0
    assert rb == re


def test_identical_channels_at_16_antennas_tie_to_single_antenna():
    # every ratio and every value ties across all eight blocks, so every
    # mask is finished and the tie rule alone picks mask 1
    budget = LinkBudget(20.0, -90.0)
    h = np.random.default_rng(4).normal(size=16) * 1e-4 + 0j
    mask, value, rb, re = brute_force_secrecy_optimum(h, h, budget)
    assert mask == 1
    assert value == 0.0


@pytest.mark.parametrize("n, bound_mib", [(20, 2.75), (24, 4.0)])
def test_exhaustive_search_memory_is_bounded(n, bound_mib):
    # the search holds a prefix stack of 4-plane sums (256 KiB a level, 7
    # levels at n = 20 and 11 at 24), one rho row (64 KiB) per count of
    # high antennas set and the square buffer (256 KiB): 2.5 and 3.75 MiB.
    # The bounds leave 256 KiB for the finished candidates and the rest.
    rng = np.random.default_rng(n)
    hb, he = (rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) * 1e-4
    budget = LinkBudget(20.0, -90.0)
    tracemalloc.start()
    try:
        brute_force_secrecy_optimum(hb, he, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2 ** 20


def test_schedule_default_cooling_reaches_three_decades():
    sched = AnnealingSchedule(initial_temperature=1.0, steps=1000)
    assert sched.cooling_factor ** 1000 == pytest.approx(1e-3, rel=1e-9)
    hot = AnnealingSchedule(initial_temperature=10.0, steps=500)
    assert hot.cooling_factor ** 500 == pytest.approx(1e-3 / 10.0, rel=1e-9)


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealingSchedule(initial_temperature=0.0)
    with pytest.raises(ValueError):
        AnnealingSchedule(steps=-1)
    with pytest.raises(ValueError):
        AnnealingSchedule(cooling_factor=1.0)
    with pytest.raises(ValueError):
        AnnealingSchedule(cooling_factor=0.0)
    # NaN would make every worse move a rejection; inf turns into NaN
    # after one cooling step (inf * factor, then inf / inf)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            AnnealingSchedule(bad, 100)
    AnnealingSchedule(steps=0)          # zero steps is a legal no-op run
    AnnealingSchedule(cooling_factor=0.5)


def test_annealing_zero_steps_returns_start():
    *_, v = _drop_evaluator(seed=2)
    sched = AnnealingSchedule(steps=0)
    mask, value = simulated_annealing(v, 8, sched, seed=123)
    assert 1 <= mask < 256
    assert value == pytest.approx(v(mask), rel=1e-12)


def test_annealing_is_deterministic_per_seed():
    *_, v = _drop_evaluator(seed=3)
    sched = AnnealingSchedule(steps=2000)
    first = simulated_annealing(v, 8, sched, seed=7)
    second = simulated_annealing(v, 8, sched, seed=7)
    assert first == second


def test_annealing_single_antenna():
    *_, v = _drop_evaluator(seed=5, n=1)
    mask, value = simulated_annealing(v, 1, AnnealingSchedule(steps=50), seed=0)
    assert mask == 1
    assert value == pytest.approx(v(1), rel=1e-12)


def test_annealing_rejects_empty_problem():
    with pytest.raises(ValueError):
        simulated_annealing(lambda m: 0.0, 0)


def test_annealing_runs_at_64_antennas():
    *_, v = _drop_evaluator(seed=8, n=64)
    mask, value = simulated_annealing(v, 64, AnnealingSchedule(1.0, 10), seed=1)
    assert 1 <= mask < 1 << 64
    assert value == v(mask)


def test_annealing_refuses_65_antennas_before_drawing():
    def v(mask):
        raise AssertionError("no coalition should be scored")

    with pytest.raises(ValueError, match="at most 64"):
        simulated_annealing(v, 65, AnnealingSchedule(1.0, 10), seed=1)


def test_annealing_best_trace_is_monotone():
    *_, v = _drop_evaluator(seed=6)
    trace = []
    sched = AnnealingSchedule(steps=3000)
    mask, value = simulated_annealing(v, 8, sched, seed=11, best_trace=trace)
    assert len(trace) == 3001   # start plus one entry per step
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert trace[-1] == pytest.approx(value, rel=1e-12)
    assert value == pytest.approx(v(mask), rel=1e-12)


def _hashed_values(scale):
    """A pure value function with many ties: small integers times scale."""

    def v(mask):
        return ((mask * 0x9E3779B97F4A7C15 >> 17) % 9 - 4) * scale

    return v


def _cools_to_zero(schedule):
    temperature = schedule.initial_temperature
    for _ in range(schedule.steps):
        temperature *= schedule.cooling_factor
    return temperature == 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64),
       steps=st.sampled_from([0, 1, 2, _WALK_CHUNK - 1, _WALK_CHUNK, _WALK_CHUNK + 1])
       | st.integers(0, 3 * _WALK_CHUNK),
       temperature=st.sampled_from([1e-300, 1e-3, 0.1, 1.0, 10.0]),
       cooling=st.none() | st.floats(0.99, 1.0, exclude_max=True),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_annealing_equals_the_loop_oracle(n, steps, temperature, cooling, scale, seed):
    schedule = AnnealingSchedule(temperature, steps, cooling)
    # the oracle divides by the temperature, so it cannot run a schedule
    # that cools to zero; test_annealing_at_zero_temperature covers those
    assume(not _cools_to_zero(schedule))
    # at 1e-300 every worse move's exponent is clamped to -745
    v = _hashed_values(scale)
    trace, oracle_trace = [], []
    result = simulated_annealing(v, n, schedule, seed=seed, best_trace=trace)
    assert result == loop_annealing(v, n, schedule, seed=seed, best_trace=oracle_trace)
    assert trace == oracle_trace


@pytest.mark.parametrize("n", [3, 10, 28])
def test_annealing_equals_the_loop_oracle_on_drops(n):
    *_, v = _drop_evaluator(seed=n, n=n, power_dbm=20.0)
    schedule = AnnealingSchedule(1.0, 3 * _WALK_CHUNK + 7)
    trace, oracle_trace = [], []
    result = simulated_annealing(v, n, schedule, seed=n, best_trace=trace)
    assert result == loop_annealing(v, n, schedule, seed=n, best_trace=oracle_trace)
    assert trace == oracle_trace


def test_annealing_calls_v_once_per_distinct_mask():
    values = _hashed_values(0.5)
    calls = {}

    def counting(mask):
        calls[mask] = calls.get(mask, 0) + 1
        return values(mask)

    visited = set()

    def recording(mask):
        visited.add(mask)
        return values(mask)

    schedule = AnnealingSchedule(1.0, 2 * _WALK_CHUNK + 3)
    assert (simulated_annealing(counting, 12, schedule, seed=4)
            == loop_annealing(recording, 12, schedule, seed=4))
    assert calls.keys() == visited
    assert set(calls.values()) == {1}


def test_annealing_at_zero_temperature():
    # 1e-200 squared underflows, so from the third step on T = 0
    *_, v = _drop_evaluator(seed=9, n=6)
    mask, value = simulated_annealing(v, 6, AnnealingSchedule(1.0, 100, cooling_factor=1e-200),
                                      seed=1)
    assert value == v(mask)
    # at T = 0 a worse move is rejected, the limit of exp(dv / T); the
    # oracle at the smallest positive T clamps every worse move's exponent
    # and so accepts one only on a uniform draw of exactly 0.0
    frozen = AnnealingSchedule(5e-324, 3000, cooling_factor=0.5)
    with pytest.raises(ZeroDivisionError):
        loop_annealing(v, 6, frozen, seed=2)
    trace, oracle_trace = [], []
    result = simulated_annealing(v, 6, frozen, seed=2, best_trace=trace)
    assert result == loop_annealing(v, 6, AnnealingSchedule(5e-324, 3000), seed=2,
                                    best_trace=oracle_trace)
    assert trace == oracle_trace


def test_annealing_never_beats_the_exhaustive_optimum():
    *_, v = _drop_evaluator(seed=14)
    _, best = brute_force_optimum(v, 8)
    for seed in range(5):
        _, value = simulated_annealing(v, 8, AnnealingSchedule(steps=4000), seed=seed)
        assert value <= best + 1e-12


def test_value_driven_activation_monotone_and_greedy():
    # strictly monotone table: every join raises v, so the greedy scan
    # activates everything
    layout = AntennaLayout((0.0, 1.0, 2.0, 3.0))
    v = lambda mask: float(mask.bit_count())
    mask, trace = coalition_value_activation(v, layout, (0.0, 0.0, 0.0))
    assert mask == 0b1111
    assert trace.converged
    # accepted moves never lower the running value
    values = [s.value for s in trace.steps]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def test_value_driven_activation_can_abandon_the_start():
    # joining looks good, then the start antenna itself becomes the drag
    table = {0b01: 1.0, 0b10: 3.0, 0b11: 1.5}
    layout = AntennaLayout((0.0, 1.0))
    mask, trace = coalition_value_activation(table.__getitem__, layout, (0.0, 0.0, 0.0))
    assert mask == 0b10
    assert [s.action for s in trace.steps] == ["none", "merge", "split", "none", "none", "none"]
    assert trace.cycles_used == 3
    assert trace.converged


def test_value_driven_activation_single_antenna():
    layout = AntennaLayout((5.0,))
    mask, trace = coalition_value_activation(lambda m: 1.0, layout, (1.0, 0.0, 0.0))
    assert mask == 1
    assert trace.converged
    assert trace.cycles_used == 1


def test_ula_colocated_receivers_have_zero_secrecy():
    s = Scenario()
    budget = LinkBudget.from_scenario(s, 10.0)
    drop = Drop(bob=(3.0, 1.0, 0.0), eve=(3.0, 1.0, 0.0))
    rb, re, rs = ula_secrecy_rate(s, drop, 8, budget)
    assert rs == 0.0
    assert rb == re


def test_ula_single_element_manual_computation():
    s = Scenario()
    budget = LinkBudget.from_scenario(s, 10.0)
    drop = Drop(bob=(2.0, 1.0, 0.0), eve=(7.0, -2.0, 0.0))
    rb, re, rs = ula_secrecy_rate(s, drop, 1, budget)
    eta = wavelengths(s).amplitude_factor
    # one element sits exactly at the region centre, waveguide height
    d_bob = math.dist(drop.bob, (5.0, 0.0, 3.0))
    d_eve = math.dist(drop.eve, (5.0, 0.0, 3.0))
    rho = budget.transmit_power_w / budget.noise_power_w
    assert rb == pytest.approx(math.log2(1.0 + rho * (eta / d_bob) ** 2), rel=1e-12)
    assert re == pytest.approx(math.log2(1.0 + rho * (eta / d_eve) ** 2), rel=1e-12)
    assert rs == pytest.approx(rb - re, rel=1e-12)


def test_ula_is_symmetric_across_the_array_axis():
    # the array lies along y = 0, so mirroring both users in y changes nothing
    s = Scenario()
    budget = LinkBudget.from_scenario(s, 20.0)
    drop = Drop(bob=(2.5, 1.5, 0.0), eve=(6.0, -2.25, 0.0))
    mirrored = Drop(bob=(2.5, -1.5, 0.0), eve=(6.0, 2.25, 0.0))
    assert ula_secrecy_rate(s, drop, 12, budget) == ula_secrecy_rate(s, mirrored, 12, budget)


def test_ula_element_count_validation():
    s = Scenario()
    budget = LinkBudget.from_scenario(s, 10.0)
    drop = Drop(bob=(2.0, 1.0, 0.0), eve=(7.0, -2.0, 0.0))
    with pytest.raises(ValueError):
        ula_secrecy_rate(s, drop, 0, budget)


def test_ula_elements_straddle_the_centre():
    # with many elements the array spans (n-1) * lambda / 2 about the centre;
    # pushing bob near one end must break the mirror symmetry in x
    s = Scenario()
    budget = LinkBudget.from_scenario(s, 10.0)
    a = ula_secrecy_rate(s, Drop(bob=(1.0, 1.0, 0.0), eve=(5.0, -2.0, 0.0)), 16, budget)
    b = ula_secrecy_rate(s, Drop(bob=(9.0, 1.0, 0.0), eve=(5.0, -2.0, 0.0)), 16, budget)
    assert a == pytest.approx(b, rel=1e-9)  # eve centred, bob mirrored: symmetric
