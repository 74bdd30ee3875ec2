import math
import tracemalloc
from collections import Counter
from typing import NamedTuple

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
    baselines,
    brute_force_secrecy_optimum,
    channel_vector,
    coalition_value_activation,
    enumerate_secrecy_values,
    sample_drop,
    simulated_annealing,
    uniform_layout,
    wavelengths,
)
from pinchsec.baselines import (
    _WALK_CHUNK,
    _frozen_steps,
    _surely_rejected,
    _temperatures,
    _ula_positions,
    ula_secrecy_rate,
)
from pinchsec.game import DEFAULT_MAX_CYCLES
from pinchsec.geometry import Drop
from pinchsec.secrecy import _BLOCK_BITS, secrecy_from_snr
from helpers import (ValueTable, brute_force_optimum, evaluator_ula_secrecy_rate, loop_annealing,
                     one_shot_table, step_rows, stepwise_scan, to_rows, value_rule)


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


@pytest.mark.parametrize("n, error", [(0, ValueError), (25, CapacityError)])
def test_brute_force_refuses_an_evaluator_outside_the_cap(n, error):
    v = SecrecyEvaluator(np.ones(n, complex), np.ones(n, complex),
                         LinkBudget.from_scenario(Scenario(), 10.0))
    with pytest.raises(error):
        brute_force_secrecy_optimum(v)
    with pytest.raises(error):
        v.snr_blocks()   # refused on the call, before any block is drawn


def test_both_exhaustive_routes_agree():
    _, _, budget, _, bob, eve, v = _drop_evaluator(seed=9, n=8)
    mask_a, value_a = brute_force_optimum(v, 8)
    mask_b, value_b, rb, re = brute_force_secrecy_optimum(v)
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
    v = SecrecyEvaluator(hb, he, budget)
    mask, value, rb, re = brute_force_secrecy_optimum(v)
    assert mask == int(np.argmax(table))
    assert value == rb - re
    # one kernel: the block values, the scalar lookups and the optimum's
    # score agree bit for bit
    assert value == table[mask]
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


# one block; one block of 13 antennas; a stack level and a block whose sums
# go straight to the square buffer; two stack levels
@pytest.mark.parametrize("n", [1, _BLOCK_BITS, _BLOCK_BITS + 1, 16])
def test_snr_blocks_leave_spare_to_the_caller(n):
    # a consumer that fills spare with NaN on every block, before and after
    # reading snr, still reads every block's values bit for bit: spare
    # shares no memory with snr or with the sums later blocks are built from
    rng = np.random.default_rng(n)
    hb, he = (rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) * 1e-4
    budget = LinkBudget(20.0, -90.0)
    table = one_shot_table(hb, he, budget)
    got = np.empty(1 << n)
    for first, snr, spare in SecrecyEvaluator(hb, he, budget).snr_blocks():
        assert spare.shape == snr.shape and not np.shares_memory(snr, spare)
        spare.fill(np.nan)
        secrecy_from_snr(snr, out=got[first:first + snr.shape[1]])
        spare.fill(np.nan)
    got[0] = -np.inf
    assert got.tobytes() == table.tobytes()
    mask, value, _, _ = brute_force_secrecy_optimum(SecrecyEvaluator(hb, he, budget))
    assert mask == int(np.argmax(table))
    assert value == table[mask]


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
    mask, value, *_ = brute_force_secrecy_optimum(SecrecyEvaluator(hb, he, budget))
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
    mask, *_ = brute_force_secrecy_optimum(SecrecyEvaluator(hb, he, budget))
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
    mask, *_ = brute_force_secrecy_optimum(SecrecyEvaluator(hb, he, budget))
    assert mask == tied[0]


def test_identical_channels_tie_to_single_antenna():
    # bob and eve share every coefficient, so all coalitions score zero
    # and the tie rule must pick mask 1
    budget = LinkBudget.from_scenario(Scenario(), 10.0)
    h = (np.arange(1, 6) * (0.3 + 0.4j)) * 1e-4
    mask, value, rb, re = brute_force_secrecy_optimum(SecrecyEvaluator(h, h, budget))
    assert mask == 1
    assert value == 0.0
    assert rb == re


def test_identical_channels_at_16_antennas_tie_to_single_antenna():
    # every ratio and every value ties across all eight blocks, so every
    # mask is finished and the tie rule alone picks mask 1
    budget = LinkBudget(20.0, -90.0)
    h = np.random.default_rng(4).normal(size=16) * 1e-4 + 0j
    mask, value, rb, re = brute_force_secrecy_optimum(SecrecyEvaluator(h, h, budget))
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
        brute_force_secrecy_optimum(SecrecyEvaluator(hb, he, budget))
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
    # NaN would make every worse move a rejection; inf turns into NaN
    # after one cooling step (inf * factor, then inf / inf)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            AnnealingSchedule(bad, 100)
    AnnealingSchedule(steps=0)          # zero steps is a legal no-op run
    for bad in (True, "1.0"):
        with pytest.raises(ValueError, match="initial_temperature must be a real number"):
            AnnealingSchedule(bad, 100)
    assert type(AnnealingSchedule(np.int64(2), 10).initial_temperature) is float
    # steps is a count: a float or a bool is refused where it enters, not
    # inside the walk's draws; numpy integers pass
    for bad in (1e5, 100.0, np.float64(10.0), True):
        with pytest.raises(ValueError, match="steps must be an integer"):
            AnnealingSchedule(1.0, bad)
    assert type(AnnealingSchedule(1.0, np.int64(10)).steps) is int


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


def test_annealing_takes_a_numpy_antenna_count_and_refuses_a_bool():
    # 1 << np.int64(64) overflows; the count is taken as an int first
    *_, v = _drop_evaluator(seed=8, n=64)
    assert (simulated_annealing(v, np.int64(64), AnnealingSchedule(1.0, 10), seed=1)
            == simulated_annealing(v, 64, AnnealingSchedule(1.0, 10), seed=1))
    with pytest.raises(ValueError, match="n_antennas must be an integer"):
        simulated_annealing(lambda mask: 1.0, True, AnnealingSchedule(1.0, 10), seed=1)


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


class _Schedule(NamedTuple):
    """A schedule with a chosen cooling factor, which AnnealingSchedule
    derives: the walk reads only these three attributes."""

    initial_temperature: float
    steps: int
    cooling_factor: float


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64),
       steps=st.sampled_from([0, 1, 2, _WALK_CHUNK - 1, _WALK_CHUNK, _WALK_CHUNK + 1])
       | st.integers(0, 3 * _WALK_CHUNK),
       temperature=st.sampled_from([1e-300, 1e-3, 0.1, 1.0, 10.0]),
       cooling=st.none() | st.floats(0.99, 1.0, exclude_max=True),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_annealing_equals_the_loop_oracle(n, steps, temperature, cooling, scale, seed):
    schedule = AnnealingSchedule(temperature, steps)
    if cooling is not None:
        schedule = _Schedule(temperature, steps, cooling)
    # the oracle divides by the temperature, so it cannot run a schedule
    # that cools to zero; test_annealing_at_zero_temperature covers those
    assume(not _cools_to_zero(schedule))
    # at 1e-300 every worse move's exponent is clamped to -745
    v = _hashed_values(scale)
    trace, oracle_trace = [], []
    result = simulated_annealing(v, n, schedule, seed=seed, best_trace=trace)
    assert result == loop_annealing(v, n, schedule, seed=seed, best_trace=oracle_trace)
    assert trace == oracle_trace


@pytest.mark.parametrize("n, power_dbm, steps", [
    pytest.param(3, 20.0, 3 * _WALK_CHUNK + 7, id="3"),
    pytest.param(10, 20.0, 3 * _WALK_CHUNK + 7, id="10"),
    pytest.param(28, 20.0, 3 * _WALK_CHUNK + 7, id="28"),
    # at 0 dBm and 48 or 64 antennas a state often goes quiet with unseen
    # neighbours left: 1 of the 48-antenna walk's 10 scans and 3 of the
    # 64-antenna walk's 34 stop at such a neighbour's flip
    pytest.param(48, 0.0, 10 * _WALK_CHUNK, id="48-0dBm"),
    pytest.param(64, 0.0, 6 * _WALK_CHUNK + 7, id="64-0dBm"),
])
def test_annealing_equals_the_loop_oracle_on_drops(n, power_dbm, steps):
    *_, v = _drop_evaluator(seed=n, n=n, power_dbm=power_dbm)
    schedule = AnnealingSchedule(1.0, steps)
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


def test_schedule_cooling_factor_is_derived():
    with pytest.raises(TypeError):
        AnnealingSchedule(1.0, 100, cooling_factor=0.5)
    with pytest.raises(AttributeError):
        AnnealingSchedule().cooling_factor = 0.5
    # below 1e-3 the rate would warm; it is clamped just below 1
    assert AnnealingSchedule(1e-4, 100).cooling_factor == 1.0 - 1e-15


def test_annealing_at_zero_temperature():
    # 1e-200 squared underflows, so from the third step on T = 0
    *_, v = _drop_evaluator(seed=9, n=6)
    mask, value = simulated_annealing(v, 6, _Schedule(1.0, 100, 1e-200), seed=1)
    assert value == v(mask)
    # at T = 0 a worse move is rejected, the limit of exp(dv / T); the
    # oracle at the smallest positive T clamps every worse move's exponent
    # and so accepts one only on a uniform draw of exactly 0.0
    frozen = _Schedule(5e-324, 3000, 0.5)
    with pytest.raises(ZeroDivisionError):
        loop_annealing(v, 6, frozen, seed=2)
    trace, oracle_trace = [], []
    result = simulated_annealing(v, 6, frozen, seed=2, best_trace=trace)
    assert result == loop_annealing(v, 6, AnnealingSchedule(5e-324, 3000), seed=2,
                                    best_trace=oracle_trace)
    assert trace == oracle_trace


def _scalar_rule_accepts(dv, temperature, u):
    """The walk's scalar acceptance rule for one nonempty proposal."""
    if dv >= 0.0:
        return True
    if temperature > 0.0:
        x = dv / temperature
        return u < math.exp(-745.0 if x < -745.0 else x)
    return False


_NUMPY_EXP = np.exp


def _low_exp(x, out=None):
    """np.exp read 4 ulps low, as another SIMD dispatch might round it."""
    low = _NUMPY_EXP(x)
    for _ in range(4):
        low = np.nextafter(low, 0.0)
    if out is None:
        return low
    out[...] = low
    return out


def _assert_filter_is_conservative(dv, temperature, u):
    dv, temperature, u = (np.asarray(a, dtype=np.float64) for a in (dv, temperature, u))
    for exp in (_NUMPY_EXP, _low_exp):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "exp", exp)
            rejected = _surely_rejected(dv, temperature, u)
        for d, t, draw, r in zip(dv.tolist(), temperature.tolist(), u.tolist(), rejected.tolist()):
            assert not (r and _scalar_rule_accepts(d, t, draw)), (d, t, draw, exp)


_SCALAR_ACCEPTS_AT_THE_EDGE = [
    # (dv, T, u): the scalar rule accepts, so the filter must not skip
    (-1.0, 1.0, 0.0),                                   # a draw of 0.0
    (-1e6, 1e-6, 0.0),                                  # exponent far below -745
    (-745.0, 1.0, 0.0),                                 # exponent at -745
    (-math.inf, 1.0, 0.0),
    (-1.0, 5e-324, 0.0),                                # T at the smallest double
    (-1.0, 1.0, math.nextafter(math.exp(-1.0), 0.0)),   # a draw just under exp
    (-700.0, 1.0, math.nextafter(math.exp(-700.0), 0.0)),
    (-0.5, 1e-3, math.nextafter(math.exp(-500.0), 0.0)),
    (0.0, 1.0, 1.0 - 2.0 ** -53),                       # dv = 0 always moves
    (-0.0, 1.0, 1.0 - 2.0 ** -53),
    (0.0, 0.0, 1.0 - 2.0 ** -53),                       # dv = 0 at T = 0
    (math.inf, 1.0, 0.5),
    (1.0, 0.0, 0.5),
]

_SCALAR_REJECTS = [
    # (dv, T, u): the scalar rule rejects, and the filter skips the step
    (-1.0, 1.0, 0.5),
    (-745.0, 1.0, 2.0 ** -53),                          # exponent at -745
    (-746.0, 1.0, 2.0 ** -53),                          # and below it
    (-1e6, 1e-6, 0.5),
    (-math.inf, 1.0, 2.0 ** -53),
    (-1.0, 0.0, 2.0 ** -53),                            # T = 0
    (-1.0, 0.0, 0.5),
    (-1.0, 5e-324, 2.0 ** -53),                         # T = 5e-324
    (-1e-300, 5e-324, 0.5),
]


def test_filter_skips_only_steps_the_scalar_rule_rejects():
    dv, temperature, u = zip(*_SCALAR_ACCEPTS_AT_THE_EDGE)
    assert all(map(_scalar_rule_accepts, dv, temperature, u))
    _assert_filter_is_conservative(dv, temperature, u)
    assert not _surely_rejected(np.array(dv), np.array(temperature), np.array(u)).any()

    dv, temperature, u = zip(*_SCALAR_REJECTS)
    assert not any(map(_scalar_rule_accepts, dv, temperature, u))
    assert _surely_rejected(np.array(dv), np.array(temperature), np.array(u)).all()


def test_filter_leaves_nan_to_the_scalar_rule():
    # a NaN exponent rejects in the scalar rule; the filter passes it on
    dv = np.full(3, math.nan)
    temperature = np.array([1.0, 0.0, 5e-324])
    u = np.full(3, 0.5)
    assert not _surely_rejected(dv, temperature, u).any()
    assert not any(map(_scalar_rule_accepts, dv.tolist(), temperature.tolist(), u.tolist()))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
    st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(-2000.0, 0.0) | st.sampled_from([0.0, -0.0, -745.0, -700.0]),
    st.floats(0.0, 10.0) | st.sampled_from([0.0, 5e-324, 1e-300, 1e-3]),
    st.floats(0.0, 1.0, exclude_max=True)
    | st.integers(0, 2 ** 53 - 1).map(lambda k: k * 2.0 ** -53)),
    min_size=1, max_size=40))
def test_filter_is_conservative_property(cases):
    dv, temperature, u = zip(*cases)
    _assert_filter_is_conservative(dv, temperature, u)
    # and the same draw set just under the scalar rule's bound
    edge = [math.nextafter(math.exp(max(d / t, -745.0)), 0.0) if d < 0.0 and t > 0.0 else 0.0
            for d, t in zip(dv, temperature)]
    _assert_filter_is_conservative(dv, temperature, edge)


def test_frozen_steps_skip_the_empty_flip_of_a_singleton():
    # from state 0b100 flipping antenna 2 empties the coalition; the walk's
    # dict holds the empty mask at -inf, so that flip is a worse move the
    # scan skips like any other
    dv = np.array([-5.0, -5.0, -math.inf])
    flips = np.array([2, 0, 2, 1, 2, 0])
    temperatures = np.full(6, 1e-3)
    uniforms = np.full(6, 0.5)
    assert _frozen_steps(dv, flips, temperatures, uniforms) == 6
    # from 0b101 the flip of antenna 2 is a move to a mask not yet scored:
    # NaN leaves it to the scalar rule
    assert _frozen_steps(np.array([-5.0, -5.0, math.nan]), flips, temperatures, uniforms) == 0
    # an unseen neighbour stops the scan at its first flip
    assert _frozen_steps(np.array([-5.0, math.nan, -math.inf]), flips, temperatures, uniforms) == 3
    uniforms[3] = 0.0          # a draw the scalar rule accepts
    assert _frozen_steps(dv, flips, temperatures, uniforms) == 3


def test_a_scan_hands_an_unseen_neighbour_to_the_scalar_rule():
    # at 64 antennas and 0 dBm a state often goes quiet with neighbours
    # not yet scored; a scan stops at the first flip to one of them, and
    # the scalar rule scores it, so v sees exactly the oracle's proposals
    *_, evaluator = _drop_evaluator(seed=64, n=64, power_dbm=0.0)
    schedule = AnnealingSchedule(1.0, 6 * _WALK_CHUNK + 7)
    calls, proposed, unseen_stops = [], set(), []

    def counting(mask):
        calls.append(mask)
        return evaluator(mask)

    def recording(mask):
        proposed.add(mask)
        return evaluator(mask)

    def scan(neighbour_dv, flips, temperatures, uniforms):
        skipped = _frozen_steps(neighbour_dv, flips, temperatures, uniforms)
        unseen_stops.append(skipped < len(flips) and math.isnan(neighbour_dv[flips[skipped]]))
        return skipped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "_frozen_steps", scan)
        result = simulated_annealing(counting, 64, schedule, seed=64)
    assert result == loop_annealing(recording, 64, schedule, seed=64)
    assert sum(unseen_stops) >= 1          # 3 of 34 scans on this drop
    assert len(calls) == len(proposed) and set(calls) == proposed


def test_annealing_from_a_lone_antenna_skips_empty_flips():
    # one antenna: every proposal empties the coalition
    trace, oracle_trace = [], []
    v = lambda mask: 1.0
    schedule = AnnealingSchedule(1.0, 2 * _WALK_CHUNK + 1)
    assert (simulated_annealing(v, 1, schedule, seed=3, best_trace=trace)
            == loop_annealing(v, 1, schedule, seed=3, best_trace=oracle_trace))
    assert trace == oracle_trace


def test_a_lone_antenna_walk_scans_past_its_empty_flips():
    # the empty mask sits in the walk's dict at -inf, so once quiet a lone
    # antenna's scans skip its empty flips: one scan a chunk, and only the
    # quiet run's _QUIET_RUN steps and the one that ends it go through the
    # scalar rule
    steps = 2 * _WALK_CHUNK + 1
    scanned = []

    def counting(*args):
        scanned.append(_frozen_steps(*args))
        return scanned[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "_frozen_steps", counting)
        simulated_annealing(lambda mask: 1.0, 1, AnnealingSchedule(1.0, steps), seed=3)
    assert len(scanned) == 3
    assert sum(scanned) == steps - baselines._QUIET_RUN - 1


def _repeated_product(temperature, factor, count):
    out = []
    for _ in range(count):
        out.append(temperature)
        temperature *= factor
    return out


@pytest.mark.parametrize("count", [_WALK_CHUNK - 1, _WALK_CHUNK, _WALK_CHUNK + 1])
@pytest.mark.parametrize("temperature, factor", [
    (1.0, AnnealingSchedule(1.0, 10 ** 6).cooling_factor),
    (1.0, AnnealingSchedule(1.0, 10 ** 5).cooling_factor),
    (3.7, 0.999),
    (1.0, 1e-200),            # underflows to 0 from the third entry
    (5e-324, 0.5),            # underflows to 0 from the second
])
def test_chunk_temperatures_equal_the_repeated_product(count, temperature, factor):
    expected = _repeated_product(temperature, factor, count)
    assert _temperatures(temperature, factor, count).tolist() == expected
    # chunk by chunk, each chunk starting from the last one's final
    # temperature times the factor, as the walk runs them
    chunked = []
    for first in range(0, count, _WALK_CHUNK):
        chunk = _temperatures(temperature, factor, min(_WALK_CHUNK, count - first))
        chunked.extend(chunk.tolist())
        temperature = float(chunk[-1]) * factor
    assert chunked == expected
    if factor < 1e-100:
        assert expected[-1] == 0.0


def _counted_walk(n, power_dbm, seed):
    """A 10^5-step walk on a fixed drop with its frozen scans counted:
    (scans, skipped steps), checked against the loop oracle's result and
    trace."""
    *_, v = _drop_evaluator(seed=seed, n=n, power_dbm=power_dbm)
    schedule = AnnealingSchedule(1.0, 100_000)
    scanned = []

    def counting(*args):
        scanned.append(_frozen_steps(*args))
        return scanned[-1]

    trace, oracle_trace = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "_frozen_steps", counting)
        result = simulated_annealing(v, n, schedule, seed=seed, best_trace=trace)
    assert result == loop_annealing(v, n, schedule, seed=seed, best_trace=oracle_trace)
    assert trace == oracle_trace
    return len(scanned), sum(scanned)


def test_annealing_on_a_frozen_drop_is_the_oracle_walk_and_mostly_scanned():
    # 28 antennas at 20 dBm freeze early: the numpy scan, not the scalar
    # loop, takes nearly every step (98.4k of 10^5 in 27 scans on this
    # drop), and a walk that never starts its scans takes none
    _, skipped = _counted_walk(28, 20.0, seed=1)
    assert skipped >= 95_000


def test_a_hot_walk_starts_its_scans_only_from_quiet_states():
    # 10 antennas at 0 dBm: moves come a few steps apart until late in the
    # walk.  A walk that scans from every state whose neighbours were all
    # seen makes 1848 scans on this drop (95.8k steps skipped); scanning
    # each state once it has gone quiet, with or without unseen neighbours,
    # makes 58 (84.1k skipped), none of them stopped by an unseen neighbour
    scans, skipped = _counted_walk(10, 0.0, seed=1)
    assert scans <= 300
    assert skipped >= 70_000


def test_annealing_buffers_are_bounded_by_the_chunk():
    # a walk that freezes at once: the only value change is -1 per active
    # antenna, so it settles on a lone antenna and scans every chunk.  The
    # flips take 1 B a step and the rest one chunk (under 512 KiB); anything
    # else of length steps would add at least 1 B a step more.
    steps = 200_000
    v = lambda mask: -float(mask.bit_count())
    tracemalloc.start()
    try:
        simulated_annealing(v, 16, AnnealingSchedule(1e-3, steps), seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < steps + 2 ** 19


def test_annealing_draws_one_byte_a_step():
    # 10^6 steps at 28 antennas: the flips take 0.95 MiB, and the chunk's
    # uniforms, lists and scan buffers and the walk's dict about 1.2 MiB;
    # drawing the flips and uniforms whole would take 16 B a step (16.5 MiB)
    *_, v = _drop_evaluator(seed=1, n=28, power_dbm=20.0)
    tracemalloc.start()
    try:
        simulated_annealing(v, 28, AnnealingSchedule(1.0, 10 ** 6), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


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
    values = [r["value"] for r in to_rows(trace)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


@pytest.mark.parametrize("n, seed", [(1, 0), (5, 1), (8, 2), (12, 3)])
def test_value_driven_rule_looks_up_the_scanned_mask_once(n, seed):
    # v is pure, so the rule and the scan's trace read it through one dict:
    # one call for the start, and one for each mask an examined antenna's
    # nonempty flip proposes, however often the scan meets it again
    table = np.random.default_rng(seed).normal(size=1 << n).tolist()
    calls = Counter()

    def value(mask):
        calls[mask] += 1
        return table[mask]

    layout = AntennaLayout(tuple(float(i) for i in range(n)))
    bob = (n / 2.0, 0.0, 0.0)
    _, trace = coalition_value_activation(ValueTable(value), layout, bob)
    rows = to_rows(trace)
    oracle = ValueTable(table)
    _, ref_steps, _, _ = stepwise_scan(oracle, layout, bob, value_rule(oracle), DEFAULT_MAX_CYCLES)
    assert rows == step_rows(ref_steps)
    expected = {trace.start}
    mask = trace.start
    for row in rows:
        if mask ^ 1 << row["antenna"]:
            expected.add(mask ^ 1 << row["antenna"])
        mask = row["coalition_mask"]
    assert calls == Counter(expected)


def test_value_driven_activation_can_abandon_the_start():
    # joining looks good, then the start antenna itself becomes the drag
    table = {0b01: 1.0, 0b10: 3.0, 0b11: 1.5}
    layout = AntennaLayout((0.0, 1.0))
    mask, trace = coalition_value_activation(table.__getitem__, layout, (0.0, 0.0, 0.0))
    assert mask == 0b10
    assert [r["action"] for r in to_rows(trace)] == ["none", "merge", "split", "none", "none", "none"]
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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1), st.floats(-10.0, 40.0), st.booleans())
def test_ula_rates_equal_the_evaluator_route_exactly(n, seed, power_dbm, one_sided):
    s = Scenario(one_sided_region=one_sided)
    drop = sample_drop(s, np.random.default_rng(seed))
    budget = LinkBudget.from_scenario(s, power_dbm)
    # repr tells -0.0 from 0.0
    assert repr(ula_secrecy_rate(s, drop, n, budget)) == \
        repr(evaluator_ula_secrecy_rate(s, drop, n, budget))


def test_ula_positions_are_built_once_per_scenario_and_count():
    s = Scenario(region_x=9.5)
    budget = LinkBudget.from_scenario(s, 10.0)
    drop = Drop(bob=(2.0, 1.0, 0.0), eve=(7.0, -2.0, 0.0))
    before = _ula_positions.cache_info()
    ula_secrecy_rate(s, drop, 7, budget)
    ula_secrecy_rate(Scenario(region_x=9.5), drop, 7, budget)
    after = _ula_positions.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    positions = _ula_positions(s, 7)
    assert _ula_positions(Scenario(region_x=9.5), 7) is positions
    assert _ula_positions(Scenario(region_x=8.0), 7) is not positions
    assert not positions.flags.writeable
    # centred on the region, half a wavelength apart, at the waveguide's height
    assert positions[:, 0].mean() == pytest.approx(4.75, rel=1e-12)
    assert np.diff(positions[:, 0]) == pytest.approx(wavelengths(s).free_space / 2.0, rel=1e-9)
    assert (positions[:, 2] == s.waveguide_height).all()


@pytest.mark.parametrize("receiver", [(math.nan, 1.0, 0.0), (5.0, 0.0, 3.0), (math.inf, 1.0, 0.0)])
@pytest.mark.parametrize("which", ["bob", "eve"])
def test_ula_non_finite_coefficients_raise(receiver, which):
    # a NaN position, a receiver on the lone element (zero distance) and one
    # infinitely far away all give non-finite coefficients, which both
    # routes refuse
    s = Scenario()
    budget = LinkBudget.from_scenario(s, 10.0)
    users = {"bob": (2.0, 1.0, 0.0), "eve": (7.0, -2.0, 0.0), which: receiver}
    drop = Drop(**users)
    with np.errstate(divide="ignore", invalid="ignore"):
        for route in (ula_secrecy_rate, evaluator_ula_secrecy_rate):
            with pytest.raises(ValueError, match="finite"):
                route(s, drop, 1, budget)
