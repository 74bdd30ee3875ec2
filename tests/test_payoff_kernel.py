"""Properties of the table-based exact payoffs and of the subset table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsec import (
    CapacityError,
    LinkBudget,
    Scenario,
    SecrecyEvaluator,
    channel_vector,
    coalitions,
    payoff_reports,
    run_activation,
    sample_drop,
    shapley_value,
    uniform_layout,
)
from pinchsec.game import (_coalition_payoffs, _scan, is_nash_stable, merge_candidate,
                           split_candidate)
from helpers import loop_payoff, permutation_payoff

SCENARIO = Scenario()


def _table(members, values):
    """Value table over every subset of members from a flat list of values."""
    full = coalitions.from_members(members)
    table = {}
    sub, i = full, 0
    while True:
        table[sub] = values[i]
        i += 1
        if not sub:
            break
        sub = (sub - 1) & full
    return table


@st.composite
def games(draw, max_members=8):
    members = draw(st.lists(st.integers(0, 15), min_size=1, max_size=max_members,
                            unique=True).map(sorted))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=1 << len(members),
                           max_size=1 << len(members)))
    table = _table(members, values)
    table[0] = 0.0
    return members, table


@given(games())
def test_payoffs_sum_to_the_coalition_value(game):
    members, table = game
    coalition = coalitions.from_members(members)
    payoffs = _coalition_payoffs(table.__getitem__, coalition)
    assert payoffs.shape == (len(members),)
    assert abs(payoffs.sum() - table[coalition]) <= 1e-12


@given(games(), st.data())
def test_payoffs_agree_with_the_scalar_oracles(game, data):
    members, table = game
    coalition = coalitions.from_members(members)
    member = data.draw(st.sampled_from(members))
    got = shapley_value(table.__getitem__, coalition, member)
    assert abs(got - loop_payoff(table.__getitem__, coalition, member)) <= 1e-12
    if len(members) <= 6:
        assert abs(got - permutation_payoff(table, members, member)) <= 1e-12


@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_symmetric_members_share_and_null_members_earn_nothing(n_sym, n_other, seed):
    # antennas 0..n_sym-1 are interchangeable; the top antenna changes nothing
    rng = np.random.default_rng(seed)
    by_count = rng.normal(size=n_sym + 1)
    other_bits = ((1 << n_other) - 1) << n_sym
    other = {sub: float(rng.normal()) for sub in range(1 << n_other)}
    null = 1 << (n_sym + n_other)
    sym_bits = (1 << n_sym) - 1

    def v(mask):
        if not mask & ~null:
            return 0.0
        return by_count[(mask & sym_bits).bit_count()] + other[(mask & other_bits) >> n_sym]

    coalition = sym_bits | other_bits | null
    payoffs = [shapley_value(v, coalition, m) for m in coalitions.members(coalition)]
    assert max(payoffs[:n_sym]) - min(payoffs[:n_sym]) <= 1e-12
    assert abs(payoffs[-1]) <= 1e-12


def _evaluator(n, seed, power_dbm):
    layout = uniform_layout(SCENARIO, n)
    drop = sample_drop(SCENARIO, np.random.default_rng(seed))
    v = SecrecyEvaluator(channel_vector(SCENARIO, layout, drop.bob),
                         channel_vector(SCENARIO, layout, drop.eve),
                         LinkBudget(power_dbm, SCENARIO.noise_power_dbm))
    return layout, drop, v


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.floats(-10.0, 40.0), st.data())
def test_subset_table_equals_the_evaluator_exactly(n, seed, power_dbm, data):
    _, _, v = _evaluator(n, seed, power_dbm)
    mask = data.draw(st.integers(1, (1 << n) - 1))
    members = coalitions.members(mask)
    table = v.subset_values(mask)
    assert table.shape == (1 << len(members),)
    fresh = _evaluator(n, seed, power_dbm)[2]
    for local in range(table.size):
        sub = coalitions.from_members(m for i, m in enumerate(members) if local >> i & 1)
        assert table[local] == v(sub) == fresh(sub)
    assert table[0] == 0.0


def test_subset_table_leaves_the_memo_alone():
    _, _, v = _evaluator(10, 5, 10.0)
    v.subset_values((1 << 10) - 1)
    assert v._memo == {0: 0.0}
    with pytest.raises(ValueError):
        v.subset_values(1 << 10)


@pytest.mark.parametrize("size", [11, 12, 13])
def test_large_coalitions_agree_with_the_loop(size):
    # 11 and below use the cached gather plan, larger sizes the member loop
    _, _, v = _evaluator(16, 21, 20.0)
    coalition = (1 << size) - 1
    reports = payoff_reports(v, coalition, 16)
    for m in range(size):
        assert abs(reports[m].payoff - loop_payoff(v, coalition, m)) <= 1e-12
    assert abs(sum(r.payoff for r in reports[:size]) - v(coalition)) <= 1e-12


def test_capacity_is_checked_before_any_table():
    def v(mask):
        raise AssertionError("v must not be called past the cap")

    with pytest.raises(CapacityError):
        shapley_value(v, (1 << 40) - 1, 0)
    with pytest.raises(CapacityError):
        payoff_reports(v, (1 << 30) - 1, 30)


def test_scan_matches_one_candidate_check_per_step():
    # run_activation keeps payoffs per coalition for the scan; the plain
    # candidate checks, one table each, must drive the same scan
    for seed in range(10):
        layout, drop, v = _evaluator(10, 300 + seed, 10.0)
        mask, trace = run_activation(v, layout, drop.bob)
        ref_mask, ref_trace = _scan(
            v, layout, drop.bob,
            lambda mask, n: (split_candidate if mask >> n & 1 else merge_candidate)(v, mask, n),
            100)
        assert mask == ref_mask
        assert trace.steps == ref_trace.steps
        assert is_nash_stable(v, mask, 10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 10.0, 20.0, 30.0]))
def test_converged_scans_are_nash_stable(n, seed, power_dbm):
    layout, drop, v = _evaluator(n, seed, power_dbm)
    mask, trace = run_activation(v, layout, drop.bob)
    if trace.converged:
        assert is_nash_stable(v, mask, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.floats(-10.0, 40.0), st.data())
def test_values_do_not_depend_on_antenna_labels(n, seed, power_dbm, data):
    layout, drop, v = _evaluator(n, seed, power_dbm)
    hb = channel_vector(SCENARIO, layout, drop.bob)
    he = channel_vector(SCENARIO, layout, drop.eve)
    # new antenna i is old antenna order[i]
    order = data.draw(st.permutations(range(n)))
    budget = LinkBudget(power_dbm, SCENARIO.noise_power_dbm)
    relabelled = SecrecyEvaluator(hb[order], he[order], budget)
    for _ in range(8):
        mask = data.draw(st.integers(1, (1 << n) - 1))
        moved = coalitions.from_members(i for i in range(n) if mask >> order[i] & 1)
        rb, re = v.link_rates(mask)
        moved_rb, moved_re = relabelled.link_rates(moved)
        assert moved_rb == pytest.approx(rb, rel=1e-12)
        assert moved_re == pytest.approx(re, rel=1e-12)
        # the secrecy rate is a difference, so its error scales with the rates
        assert abs(relabelled(moved) - v(mask)) <= 1e-12 * max(rb, re)
