import numpy as np
import pytest

from pinchsec import (
    AntennaLayout,
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
from pinchsec import game
from pinchsec.game import (closest_antenna, is_nash_stable, merge_candidate, outside_payoff,
                           split_candidate)
from helpers import permutation_payoff, random_value_table


def test_payoff_matches_permutation_enumeration():
    rng = np.random.default_rng(314)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        members = tuple(sorted(int(m) for m in rng.choice(10, size=k, replace=False)))
        table = random_value_table(rng, members)
        coalition = coalitions.from_members(members)
        for member in members:
            got = shapley_value(table.__getitem__, coalition, member)
            want = permutation_payoff(table, members, member)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_payoffs_are_efficient():
    # member payoffs must add up to the whole surplus over the empty set
    rng = np.random.default_rng(2718)
    for _ in range(20):
        members = tuple(sorted(int(m) for m in rng.choice(8, size=5, replace=False)))
        table = random_value_table(rng, members)
        coalition = coalitions.from_members(members)
        total = sum(shapley_value(table.__getitem__, coalition, m) for m in members)
        assert total == pytest.approx(table[coalition] - table[0], rel=1e-12, abs=1e-12)


def test_symmetric_members_earn_equal_payoffs():
    coalition = 0b1111
    v = lambda mask: float(mask.bit_count()) ** 2
    payoffs = [shapley_value(v, coalition, m) for m in range(4)]
    for p in payoffs[1:]:
        assert p == pytest.approx(payoffs[0], rel=1e-12)


def test_member_without_influence_earns_nothing():
    rng = np.random.default_rng(99)
    base = {mask: float(rng.normal()) for mask in range(8)}
    # antenna 3's bit never changes the value
    v = lambda mask: base[mask & 0b0111]
    assert shapley_value(v, 0b1111, 3) == pytest.approx(0.0, abs=1e-12)


def test_payoff_requires_membership():
    with pytest.raises(ValueError):
        shapley_value(lambda m: 0.0, 0b101, 1)


def test_payoff_capacity_cap(monkeypatch):
    # the cap is read when payoffs are computed, so patching it reaches them
    monkeypatch.setattr(game, "ENUMERATION_CAP", 4)
    v = lambda m: float(m.bit_count())
    assert shapley_value(v, 0b1111, 0) == pytest.approx(1.0)
    with pytest.raises(CapacityError, match="coalition size 5 exceeds enumeration cap 4"):
        shapley_value(v, 0b11111, 0)
    assert issubclass(CapacityError, ValueError)


def test_outside_payoff_formulas():
    table = {0b01: 1.0, 0b11: 3.0, 0b10: 0.2}
    v = table.__getitem__
    # outsider: value kept by excluding it
    assert outside_payoff(v, 0b01, 1) == pytest.approx(1.0 - 3.0)
    # member of a pair: value change if it left
    assert outside_payoff(v, 0b11, 0) == pytest.approx(0.2 - 3.0)
    with pytest.raises(ValueError):
        outside_payoff(v, 0b01, 0)   # sole member cannot leave
    with pytest.raises(ValueError):
        outside_payoff(v, 0, 1)


def test_ties_produce_no_move():
    v = lambda mask: 0.0
    assert merge_candidate(v, 0b01, 1) is False
    assert split_candidate(v, 0b11, 0) is False
    assert split_candidate(v, 0b10, 1) is False  # singleton never splits


def test_candidate_membership_checks():
    v = lambda mask: 0.0
    with pytest.raises(ValueError):
        merge_candidate(v, 0b01, 0)
    with pytest.raises(ValueError):
        split_candidate(v, 0b01, 1)


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
    v = TRIO_TABLE.__getitem__
    assert shapley_value(v, 0b111, 0) == pytest.approx(2.05, rel=1e-12)
    assert shapley_value(v, 0b111, 1) == pytest.approx(-0.4, rel=1e-12)
    assert shapley_value(v, 0b111, 2) == pytest.approx(0.85, rel=1e-12)


def test_activation_on_pair_table():
    layout = AntennaLayout((0.0, 1.0))
    mask, trace = run_activation(PAIR_TABLE.__getitem__, layout, (0.1, 0.0, 0.0))
    assert mask == 0b11
    assert trace.converged is True
    assert trace.cycles_used == 2
    assert [s.action for s in trace.steps] == ["none", "merge", "none", "none"]
    assert [s.cycle for s in trace.steps] == [1, 1, 2, 2]
    assert [s.coalition for s in trace.steps] == [0b01, 0b11, 0b11, 0b11]
    assert [s.value for s in trace.steps] == [1.0, 3.0, 3.0, 3.0]


def test_activation_merges_then_splits():
    layout = AntennaLayout((0.0, 1.0, 2.0))
    mask, trace = run_activation(TRIO_TABLE.__getitem__, layout, (0.0, 0.0, 0.0))
    assert mask == 0b101
    assert trace.converged is True
    assert trace.cycles_used == 3
    assert [s.action for s in trace.steps] == [
        "none", "merge", "merge",
        "none", "split", "none",
        "none", "none", "none",
    ]
    assert trace.steps[-1].coalition == mask
    assert trace.steps[-1].value == TRIO_TABLE[mask]


def test_activation_respects_cycle_cap():
    layout = AntennaLayout((0.0, 1.0, 2.0))
    mask, trace = run_activation(TRIO_TABLE.__getitem__, layout, (0.0, 0.0, 0.0),
                                 max_cycles=1)
    assert trace.converged is False
    assert trace.cycles_used == 1
    assert len(trace.steps) == 3
    assert mask == 0b111   # stopped before the split could happen


def test_stability_of_engineered_tables():
    v = TRIO_TABLE.__getitem__
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
        v = table.__getitem__
        coalition = int(rng.integers(1, 16))
        moves = []
        for n in range(4):
            if coalition & (1 << n):
                if coalition != (1 << n):
                    moves.append(split_candidate(v, coalition, n))
            else:
                moves.append(merge_candidate(v, coalition, n))
        assert is_nash_stable(v, coalition, 4) == (not any(moves))


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
        assert trace.steps[-1].coalition == mask
        # a converged run ends with one full quiet cycle
        last_cycle = [st for st in trace.steps if st.cycle == trace.cycles_used]
        assert len(last_cycle) == 8
        assert all(st.action == "none" for st in last_cycle)


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
    assert first[1].steps == second[1].steps


def test_payoff_reports_cover_every_antenna():
    v = TRIO_TABLE.__getitem__
    reports = payoff_reports(v, 0b101, 3)
    assert [r.antenna for r in reports] == [0, 1, 2]
    assert [r.in_coalition for r in reports] == [True, False, True]
    assert [r.kind for r in reports] == ["shapley", "marginal", "shapley"]
    assert reports[0].payoff == pytest.approx(2.25, rel=1e-12)
    assert reports[1].payoff == pytest.approx(4.0 - 2.5, rel=1e-12)
    assert reports[2].payoff == pytest.approx(1.75, rel=1e-12)
    with pytest.raises(ValueError):
        payoff_reports(v, 0, 3)


def test_trace_rows_format():
    layout = AntennaLayout((0.0, 1.0))
    _, trace = run_activation(PAIR_TABLE.__getitem__, layout, (0.0, 0.0, 0.0))
    rows = trace.to_rows()
    assert [r["step"] for r in rows] == [1, 2, 3, 4]
    assert rows[1] == {
        "step": 2, "cycle": 1, "antenna": 1, "action": "merge",
        "coalition_mask": 0b11, "coalition_size": 2, "value": 3.0,
    }
