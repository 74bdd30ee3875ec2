import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsec import (
    AntennaLayout,
    CapacityError,
    ExperimentConfig,
    LinkBudget,
    Scenario,
    SecrecyEvaluator,
    channel_vector,
    coalition_value_activation,
    payoff_reports,
    run_activation,
    sample_drop,
    shapley_value,
    uniform_layout,
)
from pinchsec import game
from pinchsec.game import _payoff_rule, closest_antenna
from pinchsec.harness import METHODS, TRACE_HEADER, build_trial
from helpers import (ValueTable, from_members, is_nash_stable, permutation_payoff,
                     random_value_table, scalar_rule, step_rows, stepwise_scan, to_rows,
                     value_rule)


def test_payoff_matches_permutation_enumeration():
    rng = np.random.default_rng(314)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        members = tuple(sorted(int(m) for m in rng.choice(10, size=k, replace=False)))
        table = random_value_table(rng, members)
        coalition = from_members(members)
        for member in members:
            got = shapley_value(ValueTable(table), coalition, member)
            want = permutation_payoff(table, members, member)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_payoffs_are_efficient():
    # member payoffs must add up to the whole surplus over the empty set
    rng = np.random.default_rng(2718)
    for _ in range(20):
        members = tuple(sorted(int(m) for m in rng.choice(8, size=5, replace=False)))
        table = random_value_table(rng, members)
        coalition = from_members(members)
        total = sum(shapley_value(ValueTable(table), coalition, m) for m in members)
        assert total == pytest.approx(table[coalition] - table[0], rel=1e-12, abs=1e-12)


def test_symmetric_members_earn_equal_payoffs():
    coalition = 0b1111
    v = ValueTable(lambda mask: float(mask.bit_count()) ** 2)
    payoffs = [shapley_value(v, coalition, m) for m in range(4)]
    for p in payoffs[1:]:
        assert p == pytest.approx(payoffs[0], rel=1e-12)


def test_member_without_influence_earns_nothing():
    rng = np.random.default_rng(99)
    base = {mask: float(rng.normal()) for mask in range(8)}
    # antenna 3's bit never changes the value
    v = ValueTable(lambda mask: base[mask & 0b0111])
    assert shapley_value(v, 0b1111, 3) == pytest.approx(0.0, abs=1e-12)


def test_payoff_requires_membership():
    with pytest.raises(ValueError):
        shapley_value(ValueTable(lambda m: 0.0), 0b101, 1)


def test_payoff_capacity_cap(monkeypatch):
    # the cap is read when payoffs are computed, so patching it reaches them
    monkeypatch.setattr(game, "ENUMERATION_CAP", 4)
    v = ValueTable(lambda m: float(m.bit_count()))
    assert shapley_value(v, 0b1111, 0) == pytest.approx(1.0)
    with pytest.raises(CapacityError, match="coalition size 5 exceeds enumeration cap 4"):
        shapley_value(v, 0b11111, 0)
    assert issubclass(CapacityError, ValueError)


def test_closest_antenna_prefers_smallest_on_ties():
    layout = AntennaLayout((0.0, 2.0, 5.0))
    assert closest_antenna(layout, (1.0, 3.0, 0.0)) == 0    # tie between 0 and 1
    assert closest_antenna(layout, (4.9, 0.0, 0.0)) == 2
    assert closest_antenna(layout, (0.0, -2.0, 0.0)) == 0


# two-antenna table where joining is mutually profitable
PAIR_TABLE = {0b00: 0.0, 0b01: 1.0, 0b10: 0.2, 0b11: 3.0}

# three-antenna table driving one merge too many: antenna 1 joins while
# the pair looks good, then leaves once the trio undercuts its payoff
TRIO_TABLE = {
    0b000: 0.0,
    0b001: 1.0,
    0b010: 0.0,
    0b011: 2.0,
    0b100: 0.5,
    0b101: 4.0,
    0b110: 0.1,
    0b111: 2.5,
}


def test_hand_computed_trio_payoffs():
    v = ValueTable(TRIO_TABLE)
    assert shapley_value(v, 0b111, 0) == pytest.approx(2.05, rel=1e-12)
    assert shapley_value(v, 0b111, 1) == pytest.approx(-0.4, rel=1e-12)
    assert shapley_value(v, 0b111, 2) == pytest.approx(0.85, rel=1e-12)


def test_activation_on_pair_table():
    layout = AntennaLayout((0.0, 1.0))
    mask, trace = run_activation(ValueTable(PAIR_TABLE), layout, (0.1, 0.0, 0.0))
    assert mask == 0b11
    assert trace.converged is True
    assert trace.cycles_used == 2
    rows = to_rows(trace)
    assert [r["action"] for r in rows] == ["none", "merge", "none", "none"]
    assert [r["cycle"] for r in rows] == [1, 1, 2, 2]
    assert [r["coalition_mask"] for r in rows] == [0b01, 0b11, 0b11, 0b11]
    assert [r["value"] for r in rows] == [1.0, 3.0, 3.0, 3.0]


def test_activation_merges_then_splits():
    layout = AntennaLayout((0.0, 1.0, 2.0))
    mask, trace = run_activation(ValueTable(TRIO_TABLE), layout, (0.0, 0.0, 0.0))
    assert mask == 0b101
    assert trace.converged is True
    assert trace.cycles_used == 3
    rows = to_rows(trace)
    assert [r["action"] for r in rows] == [
        "none", "merge", "merge",
        "none", "split", "none",
        "none", "none", "none",
    ]
    assert rows[-1]["coalition_mask"] == mask
    assert rows[-1]["value"] == TRIO_TABLE[mask]


def test_activation_respects_cycle_cap():
    layout = AntennaLayout((0.0, 1.0, 2.0))
    mask, trace = run_activation(ValueTable(TRIO_TABLE), layout, (0.0, 0.0, 0.0),
                                 max_cycles=1)
    assert trace.converged is False
    assert trace.cycles_used == 1
    assert len(to_rows(trace)) == 3
    assert mask == 0b111   # stopped before the split could happen


def test_stability_of_engineered_tables():
    v = ValueTable(TRIO_TABLE)
    assert is_nash_stable(v, 0b101, 3) is True
    assert is_nash_stable(v, 0b111, 3) is False   # antenna 1 wants out
    assert is_nash_stable(v, 0b001, 3) is False   # antenna 1 wants in
    with pytest.raises(ValueError):
        is_nash_stable(v, 0, 3)
    with pytest.raises(ValueError):
        is_nash_stable(v, 0b1000, 3)


def test_stability_agrees_with_candidate_checks():
    rng = np.random.default_rng(505)
    for _ in range(50):
        table = {mask: float(rng.normal()) for mask in range(16)}
        table[0] = 0.0
        v = ValueTable(table)
        coalition = int(rng.integers(1, 16))
        flips = scalar_rule(v)
        assert is_nash_stable(v, coalition, 4) == (not any(flips(coalition, n) for n in range(4)))


def test_activation_reaches_stability_on_physical_drops():
    s = Scenario()
    layout = uniform_layout(s, 8)
    budget = LinkBudget.from_scenario(s, transmit_power_dbm=10.0)
    rng = np.random.default_rng(77)
    for _ in range(15):
        drop = sample_drop(s, rng)
        v = SecrecyEvaluator(channel_vector(s, layout, drop.bob),
                             channel_vector(s, layout, drop.eve), budget)
        mask, trace = run_activation(v, layout, drop.bob)
        assert mask != 0
        assert trace.converged
        assert is_nash_stable(v, mask, 8)
        rows = to_rows(trace)
        assert rows[-1]["coalition_mask"] == mask
        # a converged run ends with one full quiet cycle
        last_cycle = [r for r in rows if r["cycle"] == trace.cycles_used]
        assert len(last_cycle) == 8
        assert all(r["action"] == "none" for r in last_cycle)


def test_activation_is_deterministic_without_scan_rng():
    s = Scenario()
    layout = uniform_layout(s, 8)
    budget = LinkBudget.from_scenario(s, transmit_power_dbm=10.0)
    drop = sample_drop(s, np.random.default_rng(3))
    v = SecrecyEvaluator(channel_vector(s, layout, drop.bob),
                         channel_vector(s, layout, drop.eve), budget)
    first = run_activation(v, layout, drop.bob)
    second = run_activation(v, layout, drop.bob)
    assert first[0] == second[0]
    assert to_rows(first[1]) == to_rows(second[1])


def test_payoff_reports_cover_every_antenna():
    v = ValueTable(TRIO_TABLE)
    reports = payoff_reports(v, 0b101, 3)
    assert [r.antenna for r in reports] == [0, 1, 2]
    assert [r.in_coalition for r in reports] == [True, False, True]
    assert [r.kind for r in reports] == ["shapley", "marginal", "shapley"]
    assert reports[0].payoff == pytest.approx(2.25, rel=1e-12)
    assert reports[1].payoff == pytest.approx(4.0 - 2.5, rel=1e-12)
    assert reports[2].payoff == pytest.approx(1.75, rel=1e-12)
    # scalar lookups, the table aside: the coalition once, then each outsider
    calls = []
    counting = ValueTable(lambda mask: calls.append(mask) or TRIO_TABLE[mask])
    counting.subset_values = v.subset_values
    for coalition, joined in [(0b101, [0b111]), (0b001, [0b011, 0b101])]:
        calls.clear()
        assert payoff_reports(counting, coalition, 3) == payoff_reports(v, coalition, 3)
        assert calls == [coalition, *joined]
    with pytest.raises(ValueError):
        payoff_reports(v, 0, 3)


def test_trace_rows_format():
    layout = AntennaLayout((0.0, 1.0))
    _, trace = run_activation(ValueTable(PAIR_TABLE), layout, (0.0, 0.0, 0.0))
    rows = to_rows(trace)
    assert [r["step"] for r in rows] == [1, 2, 3, 4]
    assert rows[1] == {
        "step": 2, "cycle": 1, "antenna": 1, "action": "merge",
        "coalition_mask": 0b11, "coalition_size": 2, "value": 3.0,
    }
    # the package's expansion: the same rows as tuples in column order
    assert TRACE_HEADER[2:] == tuple(rows[0])
    assert list(trace.steps()) == [tuple(r.values()) for r in rows]


# each activation method's scan, and a fresh instance of its move rule for the oracle
SCANS = {
    "shapley": (run_activation, _payoff_rule),
    "coalition-value": (coalition_value_activation, lambda v, n: value_rule(v)),
}


def _expands_to_stepwise_scan(method, v, layout, bob, max_cycles):
    """The flip trace of a scan expands to the steps and rows of the stepwise
    oracle; returns the oracle's steps."""
    scan, rule = SCANS[method]
    mask, trace = scan(v, layout, bob, max_cycles=max_cycles)
    ref_mask, ref_steps, converged, cycles = stepwise_scan(
        v, layout, bob, rule(v, layout.n_antennas), max_cycles)
    assert mask == ref_mask
    assert (trace.converged, trace.cycles_used) == (converged, cycles)
    # repr compares NaN values too, and tells -0.0 from 0.0
    want = repr(step_rows(ref_steps))
    assert repr(to_rows(trace)) == want
    assert repr([dict(zip(TRACE_HEADER[2:], step)) for step in trace.steps()]) == want
    assert len(ref_steps) == trace.cycles_used * layout.n_antennas
    return ref_steps


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SCANS)), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 30.0))
def test_trace_expands_to_the_stepwise_scan_on_drops(method, n, seed, power_dbm):
    trial = build_trial(ExperimentConfig(n_antennas=n, master_seed=seed), 0, 0, n, power_dbm)
    outcome = METHODS[method].run(trial)
    ref_steps = _expands_to_stepwise_scan(method, trial.evaluator, trial.layout, trial.drop.bob,
                                          trial.config.max_cycles)
    assert outcome.mask == ref_steps[-1].coalition
    # the iterations column counts every examined antenna
    assert outcome.iterations == len(ref_steps) == outcome.trace.cycles_used * n


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SCANS)), st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0, float("nan")]),
             min_size=1 << n, max_size=1 << n),
    st.integers(0, n - 1))))
def test_trace_expands_to_the_stepwise_scan_on_tied_tables(method, case):
    # few distinct values: ties, NaN values and scans that hit the cycle cap
    values, start = case
    n = len(values).bit_length() - 1
    layout = AntennaLayout(tuple(float(i) for i in range(n)))
    _expands_to_stepwise_scan(method, ValueTable(values), layout, (float(start), 0.0, 0.0), 20)


def test_scan_looks_up_v_only_at_the_start_and_after_each_flip():
    looked_up = []

    def v(mask):
        looked_up.append(mask)
        return TRIO_TABLE[mask]

    layout = AntennaLayout((0.0, 1.0, 2.0))
    mask, trace = game._scan(v, layout, (0.0, 0.0, 0.0), scalar_rule(ValueTable(TRIO_TABLE)), 100)
    assert [flip.coalition for flip in trace.flips] == [0b011, 0b111, 0b101]
    assert [flip.action for flip in trace.flips] == ["merge", "merge", "split"]
    assert looked_up == [0b001, 0b011, 0b111, 0b101]
    assert len(to_rows(trace)) == 9
