import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchsec import (
    AntennaLayout,
    LinkBudget,
    Scenario,
    SecrecyEvaluator,
    channel_vector,
    uniform_layout,
)
from pinchsec.secrecy import dbm_to_watts
from helpers import effective_channel, kernel_link_rates, rate, secrecy_rate

# frozen reference link rates for the default scenario with five evenly
# spaced antennas and only the first one active, receiver at (2, 1, 0),
# eavesdropper at (7, -2, 0), 10 dBm transmit power; computed with
# 50-digit arithmetic
GOLDEN_MASK = 0b00001
GOLDEN_BOB_RATE = 9.0210754883584668
GOLDEN_EVE_RATE = 6.8837236218164678
GOLDEN_SECRECY_RATE = 2.1373518665419989

GOLDEN_BOB = (2.0, 1.0, 0.0)
GOLDEN_EVE = (7.0, -2.0, 0.0)


def _golden_setup():
    s = Scenario()
    layout = uniform_layout(s, 5)
    budget = LinkBudget.from_scenario(s, transmit_power_dbm=10.0)
    return s, layout, budget


def test_dbm_to_watts():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watts(10.0) == pytest.approx(1e-2, rel=1e-15)
    assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-15)


def test_link_budget_from_scenario():
    budget = LinkBudget.from_scenario(Scenario(), transmit_power_dbm=17.0)
    assert budget.transmit_power_dbm == 17.0
    assert budget.noise_power_dbm == -90.0
    assert budget.transmit_power_w == pytest.approx(dbm_to_watts(17.0), rel=1e-15)
    assert budget.noise_power_w == pytest.approx(1e-12, rel=1e-15)


@pytest.mark.parametrize("powers", [(float("nan"), -90.0), (10.0, float("nan")),
                                    (float("inf"), -90.0), (10.0, float("-inf"))])
def test_link_budget_rejects_non_finite_powers(powers):
    with pytest.raises(ValueError, match="finite"):
        LinkBudget(*powers)


@pytest.mark.parametrize("powers", [
    (4000.0, -90.0),     # transmit power overflows a float in watts
    (10.0, 4000.0),      # so does the noise power
    (10.0, -4000.0),     # noise underflows to 0 W
    (2000.0, -2000.0),   # both fit, their ratio does not
], ids=["transmit-overflow", "noise-overflow", "noise-underflow", "ratio-overflow"])
def test_link_budget_rejects_powers_out_of_range(powers):
    with pytest.raises(ValueError, match="out of range"):
        LinkBudget(*powers)


def test_link_budget_keeps_a_silent_transmitter():
    # 0 W of transmit power still makes finite rates, all of them 0
    assert LinkBudget(-4000.0, -90.0).transmit_power_w == 0.0


def test_nan_power_is_refused_before_any_game():
    # a NaN budget used to make every v(S) NaN, so no strict comparison in
    # the scan held and the game reported convergence on its start antenna
    with pytest.raises(ValueError, match="finite"):
        LinkBudget.from_scenario(Scenario(), transmit_power_dbm=float("nan"))


def test_rate_matches_manual_formula():
    s, layout, budget = _golden_setup()
    vec = channel_vector(s, layout, GOLDEN_BOB)
    mask = 0b01011
    h = effective_channel(vec, mask)
    rho = budget.transmit_power_w / (3 * budget.noise_power_w)
    expected = math.log2(1.0 + rho * abs(h) ** 2)
    assert rate(vec, mask, budget) == pytest.approx(expected, rel=1e-12)


def test_power_splits_equally_across_active_antennas():
    # doubling the active set halves per-antenna power: check via the SNR
    # scale rather than end rates, which also depend on the channel sums
    s, layout, budget = _golden_setup()
    vec = channel_vector(s, layout, GOLDEN_BOB)
    h1 = effective_channel(vec, 0b00001)
    r1 = rate(vec, 0b00001, budget)
    rho_full = budget.transmit_power_w / budget.noise_power_w
    assert r1 == pytest.approx(math.log2(1.0 + rho_full * abs(h1) ** 2), rel=1e-12)
    h2 = effective_channel(vec, 0b00011)
    r2 = rate(vec, 0b00011, budget)
    assert r2 == pytest.approx(math.log2(1.0 + 0.5 * rho_full * abs(h2) ** 2), rel=1e-12)


def test_rate_rejects_empty_mask():
    s, layout, budget = _golden_setup()
    vec = channel_vector(s, layout, GOLDEN_BOB)
    with pytest.raises(ValueError):
        rate(vec, 0, budget)


def test_golden_drop_matches_frozen_reference():
    s, layout, budget = _golden_setup()
    bob = channel_vector(s, layout, GOLDEN_BOB)
    eve = channel_vector(s, layout, GOLDEN_EVE)
    assert rate(bob, GOLDEN_MASK, budget) == pytest.approx(GOLDEN_BOB_RATE, rel=1e-12)
    assert rate(eve, GOLDEN_MASK, budget) == pytest.approx(GOLDEN_EVE_RATE, rel=1e-12)
    assert secrecy_rate(bob, eve, GOLDEN_MASK, budget) == pytest.approx(GOLDEN_SECRECY_RATE, rel=1e-12)


def test_golden_drop_against_live_high_precision_oracle():
    # recompute the frozen constants from scratch at 50 digits so the
    # literals above stay anchored to the physics, not to the package
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    lam = mp.mpf(299792458) / mp.mpf("28e9")
    eta = lam / (4 * mp.pi)

    def single_channel(receiver):
        # the active antenna sits at x = 0, which is also the feed point,
        # so the guided-phase term vanishes
        d = mp.sqrt(mp.mpf(receiver[0]) ** 2 + mp.mpf(receiver[1]) ** 2 + mp.mpf(3) ** 2)
        return eta / d * mp.exp(-1j * (2 * mp.pi * d / lam))

    rho = mp.mpf("1e-2") / mp.mpf("1e-12")
    rb = mp.log(1 + rho * abs(single_channel(GOLDEN_BOB)) ** 2, 2)
    re = mp.log(1 + rho * abs(single_channel(GOLDEN_EVE)) ** 2, 2)
    assert float(rb) == pytest.approx(GOLDEN_BOB_RATE, rel=1e-13)
    assert float(re) == pytest.approx(GOLDEN_EVE_RATE, rel=1e-13)
    assert float(rb - re) == pytest.approx(GOLDEN_SECRECY_RATE, rel=1e-12)


def test_secrecy_rate_negates_under_swap():
    s, layout, budget = _golden_setup()
    bob = channel_vector(s, layout, GOLDEN_BOB)
    eve = channel_vector(s, layout, GOLDEN_EVE)
    for mask in (0b00001, 0b10101, 0b11111):
        forward = secrecy_rate(bob, eve, mask, budget)
        backward = secrecy_rate(eve, bob, mask, budget)
        assert forward == -backward


def test_evaluator_agrees_with_module_functions():
    s, layout, budget = _golden_setup()
    bob = channel_vector(s, layout, GOLDEN_BOB)
    eve = channel_vector(s, layout, GOLDEN_EVE)
    v = SecrecyEvaluator(bob, eve, budget)
    assert v.n_antennas == 5
    rng = np.random.default_rng(42)
    masks = set(int(rng.integers(1, 32)) for _ in range(40)) | {1, 31}
    for mask in masks:
        assert v(mask) == pytest.approx(secrecy_rate(bob, eve, mask, budget), rel=1e-12)
        rb, re = v.link_rates(mask)
        assert rb == pytest.approx(rate(bob, mask, budget), rel=1e-12)
        assert re == pytest.approx(rate(eve, mask, budget), rel=1e-12)


def test_evaluator_empty_coalition_is_worth_zero():
    s, layout, budget = _golden_setup()
    v = SecrecyEvaluator(channel_vector(s, layout, GOLDEN_BOB),
                         channel_vector(s, layout, GOLDEN_EVE), budget)
    assert v(0) == 0.0
    with pytest.raises(ValueError):
        v.link_rates(0)


def test_evaluator_is_pure():
    s, layout, budget = _golden_setup()
    v = SecrecyEvaluator(channel_vector(s, layout, GOLDEN_BOB),
                         channel_vector(s, layout, GOLDEN_EVE), budget)
    first = v(0b10110)
    assert v(0b10110) == first


def test_evaluator_rejects_out_of_range_masks():
    s, layout, budget = _golden_setup()
    v = SecrecyEvaluator(channel_vector(s, layout, GOLDEN_BOB),
                         channel_vector(s, layout, GOLDEN_EVE), budget)
    for mask in (1 << 5, -2):
        with pytest.raises(ValueError, match="out of range"):
            v(mask)
        with pytest.raises(ValueError, match="out of range"):
            v.link_rates(mask)


def test_evaluator_rejects_mismatched_vectors():
    s, _, budget = _golden_setup()
    bob = channel_vector(s, uniform_layout(s, 5), GOLDEN_BOB)
    eve = channel_vector(s, uniform_layout(s, 4), GOLDEN_EVE)
    with pytest.raises(ValueError):
        SecrecyEvaluator(bob, eve, budget)
    # arrays that are not 1-D are refused where they enter, not at a lookup
    for shape in [(3, 2), ()]:
        bad = np.full(shape, 1e-4 + 0j)
        with pytest.raises(ValueError, match="1-D"):
            SecrecyEvaluator(bad, bad, budget)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
def test_evaluator_rejects_non_finite_coefficients(bad):
    _, _, budget = _golden_setup()
    good = np.full(3, 1e-4 + 0j)
    broken = good.copy()
    broken[1] = bad
    with pytest.raises(ValueError, match="finite"):
        SecrecyEvaluator(broken, good, budget)
    with pytest.raises(ValueError, match="finite"):
        SecrecyEvaluator(good, broken, budget)


@st.composite
def _byte_masks(draw):
    """(n, mask, seed): a nonempty mask on n = 1..64 antennas, one byte
    drawn for each byte from a lowest one up, so that masks have members
    in every byte, or only in the high ones."""
    n = draw(st.integers(1, 64))
    lowest = draw(st.integers(0, (n - 1) // 8))
    mask = 0
    for byte in range(lowest, (n + 7) // 8):
        mask |= draw(st.integers(0, 255)) << 8 * byte
    mask &= (1 << n) - 1
    return n, mask or 1 << (n - 1), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=_byte_masks(), power_dbm=st.sampled_from([-20.0, 10.0, 40.0]))
@example(case=(64, (1 << 64) - 1, 1), power_dbm=10.0)
@example(case=(64, 1 << 63, 2), power_dbm=10.0)
@example(case=(9, 1 << 8, 3), power_dbm=10.0)
@example(case=(64, 0xFF << 56, 4), power_dbm=40.0)
def test_scalar_path_equals_the_kernel_oracle_in_every_byte(case, power_dbm):
    n, mask, seed = case
    rng = np.random.default_rng(seed)
    bob, eve = (1e-3 * (rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(2))
    budget = LinkBudget(power_dbm, -90.0)
    v = SecrecyEvaluator(bob, eve, budget)
    rb, re = kernel_link_rates(bob, eve, mask, budget)
    assert v.link_rates(mask) == (rb, re)
    assert v(mask) == rb - re
    # the refusals stand: the empty mask is worth 0, and a mask outside
    # 0 .. 2^n - 1 is refused by both routes
    assert v(0) == 0.0
    for bad in (-1, -mask, 1 << n, mask | 1 << n):
        with pytest.raises(ValueError, match="out of range"):
            v(bad)
        with pytest.raises(ValueError, match="out of range"):
            v.link_rates(bad)
