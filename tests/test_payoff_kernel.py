"""Properties of the table-based exact payoffs, the move rule that reads
them, and the subset table."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
from pinchsec.coalitions import ENUMERATION_CAP
from pinchsec.game import (_chunk_rows, _coalition_scores, _member_payoffs, _outsider_scores,
                           _payoff_rule, _scan, _with_member, _without_member)
from helpers import (ValueTable, from_members, full_weighted_sums, full_weights_member_payoffs,
                     is_nash_stable, loop_payoff, one_shot_table, permutation_payoff, scalar_rule)

SCENARIO = Scenario()


def _table(members, values):
    """Value table over every subset of members from a flat list of values."""
    full = from_members(members)
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
    coalition = from_members(members)
    payoffs = np.array(_coalition_scores(ValueTable(table), coalition)[0])
    assert payoffs.shape == (len(members),)
    assert abs(payoffs.sum() - table[coalition]) <= 1e-12


@given(games(), st.data())
def test_payoffs_agree_with_the_scalar_oracles(game, data):
    members, table = game
    coalition = from_members(members)
    member = data.draw(st.sampled_from(members))
    got = shapley_value(ValueTable(table), coalition, member)
    assert abs(got - loop_payoff(ValueTable(table), coalition, member)) <= 1e-12
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
    payoffs = [shapley_value(ValueTable(v), coalition, m) for m in coalitions.members(coalition)]
    assert max(payoffs[:n_sym]) - min(payoffs[:n_sym]) <= 1e-12
    assert abs(payoffs[-1]) <= 1e-12


def _evaluator(n, seed, power_dbm):
    layout = uniform_layout(SCENARIO, n)
    drop = sample_drop(SCENARIO, np.random.default_rng(seed))
    v = SecrecyEvaluator(channel_vector(SCENARIO, layout, drop.bob),
                         channel_vector(SCENARIO, layout, drop.eve),
                         LinkBudget(power_dbm, SCENARIO.noise_power_dbm))
    return layout, drop, v


@st.composite
def table_cases(draw):
    """(antennas, ascending members, joined antenna or None, 32 table indices)"""
    size = draw(st.integers(1, 12) | st.integers(13, 18))
    joins = draw(st.booleans())
    n = draw(st.integers(size + joins, max(size + joins, 12 if size <= 12 else 24)))
    order = draw(st.permutations(range(n)))
    sample = draw(st.lists(st.integers(0, (1 << size) - 1), min_size=32, max_size=32))
    return n, sorted(order[:size]), order[size] if joins else None, sample


# up to 12 members a table is one block; 13-18 members, dense or spread
# over up to 24 antennas, take 1-32 blocks of the block walk.  A joined
# antenna's row takes one pass of the doubling up to 13 members, and the
# walk past that.  The examples are rows of 14-20 members with the joined
# antenna below the members past the block (into the block's own
# doubling, and after it), among them, and above them all
@settings(max_examples=50, deadline=None)
@given(table_cases(), st.integers(0, 2 ** 32 - 1), st.floats(-10.0, 40.0))
@example((40, [*range(0, 26, 2), 27], 5, []), 7, 10.0)                          # 14, below
@example((40, [*range(13), 20, 22], 16, []), 7, 10.0)                           # 15, below
@example((40, [*range(13), 15, 18, 20], 16, []), 7, 10.0)                       # 16, among
@example((40, [*range(0, 26, 2), 27, 29, 31, 33], 35, []), 7, 10.0)             # 17, above
@example((40, [*range(13), *range(14, 24, 2)], 13, []), 7, 10.0)                # 18, below
@example((40, [*range(0, 26, 2), 26, 27, 29, 30, 32, 33], 28, []), 7, 10.0)     # 19, among
@example((40, [*range(13), *range(16, 23)], 23, []), 7, 10.0)                   # 20, above
def test_subset_table_equals_the_evaluator_exactly(case, seed, power_dbm):
    n, members, joined, sample = case
    layout, drop, v = _evaluator(n, seed, power_dbm)
    mask = from_members(members)
    if joined is None:
        table, over, extra = v.subset_values(mask), members, 0
    else:
        table, over, extra = v.subset_values(mask, [joined])[0], sorted([*members, joined]), 1 << joined
    assert table.shape == (1 << len(members),)
    hb = channel_vector(SCENARIO, layout, drop.bob)[over]
    he = channel_vector(SCENARIO, layout, drop.eve)[over]
    oracle = one_shot_table(hb, he, LinkBudget(power_dbm, SCENARIO.noise_power_dbm))
    if joined is None:
        assert table[0] == 0.0
        assert table[1:].tobytes() == oracle[1:].tobytes()
    else:
        # the oracle's entries that hold the joined antenna, in table order
        place = over.index(joined)
        assert table.tobytes() == oracle.reshape(-1, 2, 1 << place)[:, 1].tobytes()
    # every entry of a small table, and past that the block edges and a
    # sample, against scalar lookups, also on an evaluator that built no table
    if table.size <= 1 << 12:
        spots = range(table.size)
    else:
        edges = [k << 13 for k in range(table.size >> 13)]
        spots = edges + [e - 1 for e in edges[1:]] + [table.size - 1] + sample
    fresh = _evaluator(n, seed, power_dbm)[2]
    for local in spots:
        sub = from_members(m for i, m in enumerate(members) if local >> i & 1) | extra
        assert table[local] == v(sub) == fresh(sub)


def test_plain_table_past_one_block_holds_at_most_20_bytes_per_entry():
    # 18 members spread over 24 antennas: 32 blocks.  The table (8 B an
    # entry), 5 stack levels and the square buffer (256 KiB each) and 6
    # rho rows (64 KiB each) come to about 16 B an entry; doubling the
    # whole table at once held about 41
    _, _, v = _evaluator(24, 3, 10.0)
    mask = from_members(range(0, 24, 4)) | from_members(range(1, 24, 2))
    assert mask.bit_count() == 18
    tracemalloc.start()
    try:
        v.subset_values(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2 ** 18


def test_outsider_score_past_one_block_holds_at_most_20_bytes_per_entry():
    # the same 18 members, and an outsider among the members past the
    # block.  Its row (8 B an entry) and the gains weighted in place (8 B)
    # come to about 16 B an entry; full-size weights and a weighted copy
    # would add 16 more
    _, _, v = _evaluator(24, 3, 10.0)
    mask = from_members(range(0, 24, 4)) | from_members(range(1, 24, 2))
    table = v.subset_values(mask)
    tracemalloc.start()
    try:
        _outsider_scores(v, mask, table, [18])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2 ** 18


def test_member_payoffs_past_one_block_hold_at_most_6_bytes_per_table_entry():
    # 18 members, caches warm as in a scan: one member's gains at a time
    # (4 B per table entry), weighted in place by block rows; full-size
    # weights and a weighted copy would add 4 more
    table = np.random.default_rng(3).normal(size=1 << 18)
    _member_payoffs(table)
    tracemalloc.start()
    try:
        _member_payoffs(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 18


@pytest.mark.parametrize("size", range(12, 21))
def test_member_payoffs_equal_the_full_weights_oracle(size):
    # the member loop: each member's gains span one block up to 14
    # members and 2-64 blocks at 15-20
    rng = np.random.default_rng(size)
    table = rng.normal(size=1 << size) * 10.0 ** rng.uniform(-3, 3, size=1 << size)
    assert _member_payoffs(table).tobytes() == full_weights_member_payoffs(table).tobytes()


# 13 low members 0, 2, ..., 24, then 1-6 past the block from 27 on; the
# outsider sits below them (25), among them (28) or above them all
@pytest.mark.parametrize("size, where", [(size, where) for size in range(14, 20)
                                         for where in ("below", "among", "above")
                                         if size > 14 or where != "among"])
def test_outsider_payoffs_equal_the_full_weights_oracle(size, where):
    high = list(range(27, 27 + 2 * (size - 13), 2))
    outsider = {"below": 25, "among": 28, "above": high[-1] + 1}[where]
    _, _, v = _evaluator(40, size, 10.0)
    mask = from_members([*range(0, 26, 2), *high])
    table = v.subset_values(mask)
    payoffs, _, joined = _outsider_scores(v, mask, table, [outsider])
    assert payoffs.tobytes() == full_weighted_sums(joined - table).tobytes()


def test_subset_table_leaves_the_memo_alone():
    _, _, v = _evaluator(10, 5, 10.0)
    v.subset_values((1 << 10) - 1)
    assert v._memo == {0: 0.0}
    with pytest.raises(ValueError):
        v.subset_values(1 << 10)


# on 4 antennas and the mask {0, 1}: a member, a negative index, an
# unsorted list, a repeat, an index past the antennas
@pytest.mark.parametrize("joining", [[1], [-1], [3, 2], [2, 2], [9]])
def test_subset_table_refuses_bad_joining_antennas(joining):
    _, _, v = _evaluator(4, 5, 10.0)
    with pytest.raises(ValueError, match="joining"):
        v.subset_values(0b11, joining)
    assert v.subset_values(0b11, [2, 3]).shape == (2, 4)


def test_subset_table_past_the_cap_is_refused_before_any_buffer():
    _, _, v = _evaluator(26, 5, 10.0)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            v.subset_values((1 << ENUMERATION_CAP + 1) - 1)
        with pytest.raises(CapacityError):
            v.subset_values((1 << ENUMERATION_CAP) - 1, [ENUMERATION_CAP])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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
        shapley_value(ValueTable(v), (1 << 40) - 1, 0)
    with pytest.raises(CapacityError):
        payoff_reports(ValueTable(v), (1 << 30) - 1, 30)


def _assert_outsiders_match_their_coalitions(v, mask, n_antennas):
    """Every outsider's batched (payoff, leave score) and row v(T + n) equal
    those of its own coalition's table, bit for bit (repr: NaN and -0.0)."""
    table = v.subset_values(mask)
    outsiders = [n for n in range(n_antennas) if not mask >> n & 1]
    rows = _chunk_rows(mask.bit_count())
    for start in range(0, len(outsiders), rows):
        chunk = outsiders[start:start + rows]
        payoffs, leave, joined = _outsider_scores(v, mask, table, chunk)
        assert joined.shape == (len(chunk), table.size)
        for j, n in enumerate(chunk):
            coalition = mask | 1 << n
            i = (mask & ((1 << n) - 1)).bit_count()
            want_payoffs, want_leave = _coalition_scores(v, coalition)
            assert repr((payoffs.item(j), leave.item(j))) == repr((want_payoffs[i], want_leave[i]))
            full = v.subset_values(coalition)
            assert repr(joined[j].tolist()) == repr(full.reshape(-1, 2, 1 << i)[:, 1].ravel().tolist())
            # the tables a flip hands on: coalition + n, and back to mask
            assert repr(_with_member(table, joined[j], i).tolist()) == repr(full.tolist())
            assert repr(_without_member(full, i).tolist()) == repr(table.tolist())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 17), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 30.0),
       st.integers(1, 2 ** 17 - 1))
@example(n=17, seed=3, power_dbm=0.0, bits=0b1_1111_1110_1111_1101)     # |S| = 14
@example(n=16, seed=8, power_dbm=30.0, bits=0b0111_1111_1111_1101)      # |S| = 13
@example(n=15, seed=2, power_dbm=20.0, bits=0b010_1111_1111_1111)       # |S| = 12, 2 rows
def test_outsider_scores_equal_their_coalitions_on_drops(n, seed, power_dbm, bits):
    mask = bits & ((1 << n) - 1)
    assume(mask and mask != (1 << n) - 1)
    _assert_outsiders_match_their_coalitions(_evaluator(n, seed, power_dbm)[2], mask, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0, float("nan")]),
             min_size=1 << n, max_size=1 << n),
    st.integers(1, (1 << n) - 1))))
def test_outsider_scores_equal_their_coalitions_on_tied_tables(case):
    # the oracle table looks values up one at a time; ties and NaN must carry over
    values, mask = case
    n = len(values).bit_length() - 1
    assume(mask != (1 << n) - 1)
    _assert_outsiders_match_their_coalitions(ValueTable(values), mask, n)


class _Untouchable:
    """A value function that fails if any value or table is asked for."""

    def __call__(self, mask):
        raise AssertionError("v must not be called past the cap")

    def subset_values(self, mask, joining=None):
        raise AssertionError("no table may be built past the cap")


def test_an_outsider_past_the_cap_is_refused_before_any_table():
    # the coalition itself is within the cap; joining it would not be
    full = (1 << ENUMERATION_CAP) - 1
    with pytest.raises(CapacityError):
        _payoff_rule(_Untouchable(), ENUMERATION_CAP + 2)(full, ENUMERATION_CAP + 1)


@pytest.mark.parametrize("seed", [0, 4])
def test_table_rule_matches_the_scalar_oracle_past_one_chunk(seed):
    # at N = 40 and 0 dBm these drops grow coalitions of 15, where each
    # outsider is scored in a chunk of its own
    layout, drop, v = _evaluator(40, seed, 0.0)
    mask, trace = run_activation(v, layout, drop.bob)
    assert max(r["coalition_size"] for r in trace.to_rows()) > 13
    _same_scan(v, layout, drop.bob, 100)


def test_scan_matches_one_candidate_check_per_step():
    # run_activation keeps the current mask's scores; the scalar oracle,
    # one table and two v lookups per check, must drive the same scan
    for seed in range(10):
        layout, drop, v = _evaluator(10, 300 + seed, 10.0)
        mask, trace = run_activation(v, layout, drop.bob)
        ref_mask, ref_trace = _scan(v, layout, drop.bob, scalar_rule(v), 100)
        assert mask == ref_mask
        assert trace.to_rows() == ref_trace.to_rows()
        assert is_nash_stable(v, mask, 10)


def _same_scan(v, layout, bob, max_cycles):
    """The table-read rule and the scalar oracle give one mask and one trace."""
    mask, trace = run_activation(v, layout, bob, max_cycles)
    ref_mask, ref_trace = _scan(v, layout, bob, scalar_rule(v), max_cycles)
    assert mask == ref_mask
    # repr compares NaN values too, and tells -0.0 from 0.0
    assert repr(trace.to_rows()) == repr(ref_trace.to_rows())
    assert (trace.converged, trace.cycles_used) == (ref_trace.converged, ref_trace.cycles_used)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 30.0))
def test_table_rule_matches_the_scalar_oracle_on_drops(n, seed, power_dbm):
    layout, drop, v = _evaluator(n, seed, power_dbm)
    _same_scan(v, layout, drop.bob, 100)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0, float("nan")]),
             min_size=1 << n, max_size=1 << n),
    st.integers(0, n - 1))))
def test_table_rule_matches_the_scalar_oracle_on_tied_tables(case):
    # few distinct values, so payoffs often tie their stay-out or leave scores
    values, start = case
    n = len(values).bit_length() - 1
    layout = AntennaLayout(tuple(float(i) for i in range(n)))
    _same_scan(ValueTable(values), layout, (float(start), 0.0, 0.0), 20)


def _answers_in_any_order(v, n, data):
    """One instance of the table-read rule, asked about (mask, n) in an order
    no scan takes, answers as the scalar oracle does: after each answer the
    next mask is the one the move leads to, the same mask (right after a
    flip, the old one), a mask asked about before, or any mask at all,
    near-full ones included, whose outsiders fill more than one chunk."""
    full = (1 << n) - 1
    any_mask = st.integers(1, full) | st.sets(st.integers(0, n - 1), max_size=4).map(
        lambda out: full & ~from_members(out)).filter(bool)
    flips, oracle = _payoff_rule(v, n), scalar_rule(v)
    mask = data.draw(any_mask)
    seen = [mask]
    for _ in range(20):
        antenna = data.draw(st.integers(0, n - 1))
        flipped = flips(mask, antenna)
        assert flipped == oracle(mask, antenna), (seen, antenna)
        kind = data.draw(st.sampled_from(("next", "same", "seen", "any")))
        if kind == "next":
            mask ^= flipped << antenna
        elif kind == "seen":
            mask = data.draw(st.sampled_from(seen))
        elif kind == "any":
            mask = data.draw(any_mask)
        seen.append(mask)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 30.0), st.data())
def test_table_rule_answers_in_any_order_on_drops(n, seed, power_dbm, data):
    _answers_in_any_order(_evaluator(n, seed, power_dbm)[2], n, data)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, float("nan")]), min_size=1 << n, max_size=1 << n)),
    st.data())
def test_table_rule_answers_in_any_order_on_tied_tables(values, data):
    _answers_in_any_order(ValueTable(values), len(values).bit_length() - 1, data)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_join_scored_in_an_earlier_chunk_starts_its_mask_right(seed):
    # at 12 members of 16 two outsiders share a chunk: the first of each
    # pair scores both, so after the second pair an outsider of the first
    # no longer has its row at hand when it joins
    n = 16
    v = _evaluator(n, seed, 0.0)[2]
    oracle = scalar_rule(v)
    rng = np.random.default_rng(seed)
    cases = 0
    for _ in range(40):
        out = sorted(int(k) for k in rng.choice(n, 4, replace=False))
        mask = ((1 << n) - 1) & ~from_members(out)
        if [oracle(mask, k) for k in out[:3]] != [False, True, False]:
            continue
        flips = _payoff_rule(v, n)
        assert not flips(mask, out[0]) and not flips(mask, out[2])
        assert flips(mask, out[1])
        after = mask | 1 << out[1]
        assert [flips(after, m) for m in range(n)] == [oracle(after, m) for m in range(n)]
        cases += 1
    assert cases >= 2


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.floats(-10.0, 40.0), st.data())
def test_leave_scores_equal_scalar_lookups_exactly(n, seed, power_dbm, data):
    _, _, v = _evaluator(n, seed, power_dbm)
    coalition = data.draw(st.integers(1, (1 << n) - 1))
    fresh = _evaluator(n, seed, power_dbm)[2]
    want = [fresh(coalition ^ (1 << m)) - fresh(coalition) for m in coalitions.members(coalition)]
    assert _coalition_scores(v, coalition)[1] == want


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
        moved = from_members(i for i in range(n) if mask >> order[i] & 1)
        rb, re = v.link_rates(mask)
        moved_rb, moved_re = relabelled.link_rates(moved)
        assert moved_rb == pytest.approx(rb, rel=1e-12)
        assert moved_re == pytest.approx(re, rel=1e-12)
        # the secrecy rate is a difference, so its error scales with the rates
        assert abs(relabelled(moved) - v(mask)) <= 1e-12 * max(rb, re)
