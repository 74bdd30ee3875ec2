import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsec import AntennaLayout, Scenario, channel_vector, uniform_layout, wavelengths
from helpers import (channel_coefficient, effective_channel, phase_gap, solve_alignment,
                     total_phase)

# high-precision reference values for the default 28 GHz scenario,
# computed once with 50-digit arithmetic and frozen here
FREE_SPACE_WAVELENGTH = 0.0107068735
GUIDED_WAVELENGTH = 0.0076477667857142857
AMPLITUDE_FACTOR = 0.00085202592129231112


def test_wavelengths_match_frozen_reference():
    w = wavelengths(Scenario())
    assert w.free_space == pytest.approx(FREE_SPACE_WAVELENGTH, rel=1e-12)
    assert w.guided == pytest.approx(GUIDED_WAVELENGTH, rel=1e-12)
    assert w.amplitude_factor == pytest.approx(AMPLITUDE_FACTOR, rel=1e-12)


def test_wavelengths_scale_with_scenario():
    w = wavelengths(Scenario(carrier_frequency=14.0e9, effective_refractive_index=2.0))
    assert w.free_space == pytest.approx(2.0 * FREE_SPACE_WAVELENGTH, rel=1e-12)
    assert w.guided == pytest.approx(w.free_space / 2.0, rel=1e-12)
    assert w.amplitude_factor == pytest.approx(w.free_space / (4.0 * math.pi), rel=1e-12)


def test_amplitude_follows_inverse_distance():
    s = Scenario()
    layout = AntennaLayout((0.0, 4.0, 10.0))
    for receiver in [(2.0, 1.0, 0.0), (7.0, -2.5, 0.0), (0.0, 3.0, 0.0)]:
        for n, x in enumerate(layout.positions_x):
            d = math.dist(receiver, (x, 0.0, s.waveguide_height))
            h = channel_coefficient(s, layout, receiver, n)
            assert abs(h) == pytest.approx(AMPLITUDE_FACTOR / d, rel=1e-12)


def test_total_phase_formula():
    s = Scenario(feed_point_x=2.0)
    layout = AntennaLayout((1.0, 6.0))
    w = wavelengths(s)
    receiver = (3.0, -1.0, 0.0)
    for n, x in enumerate(layout.positions_x):
        d = math.dist(receiver, (x, 0.0, s.waveguide_height))
        expected = 2.0 * math.pi * d / w.free_space \
            + 2.0 * math.pi * abs(s.feed_point_x - x) / w.guided
        assert total_phase(s, layout, receiver, n) == pytest.approx(expected, rel=1e-12)


def test_total_phase_is_unwrapped():
    # distances of metres against a centimetre wavelength mean thousands of
    # radians; the raw phase must not come back reduced mod 2 pi
    s = Scenario()
    layout = AntennaLayout((0.0,))
    assert total_phase(s, layout, (5.0, 0.0, 0.0), 0) > 1000.0


def test_total_phase_rejects_bad_antenna_index():
    s = Scenario()
    layout = AntennaLayout((0.0, 5.0))
    with pytest.raises(IndexError):
        total_phase(s, layout, (1.0, 0.0, 0.0), 2)


def test_coefficient_phase_against_high_precision_oracle():
    # recompute one coefficient's wrapped phase with 50-digit arithmetic;
    # the float path may only drift by rounding in the mod-2pi reduction
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    s = Scenario()
    layout = AntennaLayout((2.5,))
    receiver = (7.0, -2.0, 0.0)

    c = mp.mpf(299792458)
    lam = c / mp.mpf(s.carrier_frequency)
    lam_g = lam / mp.mpf(s.effective_refractive_index)
    d = mp.sqrt(mp.mpf(receiver[0] - 2.5) ** 2 + mp.mpf(receiver[1]) ** 2
                + mp.mpf(s.waveguide_height) ** 2)
    phase = 2 * mp.pi * d / lam + 2 * mp.pi * mp.mpf(2.5) / lam_g
    expected = float(mp.fmod(phase, 2 * mp.pi))

    got = cmath.phase(channel_coefficient(s, layout, receiver, 0))
    diff = (got - (-expected)) % (2.0 * math.pi)
    assert min(diff, 2.0 * math.pi - diff) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.floats(0.0, 10.0), st.floats(-3.0, 3.0))
def test_every_coefficient_phase_against_high_precision_oracle(n, x, y):
    # each coefficient's wrapped phase lies in [0, 2pi) and matches a 50-digit
    # reduction of the unwrapped phase up to rounding of that phase
    mp = pytest.importorskip("mpmath")
    s = Scenario()
    layout = uniform_layout(s, n)
    receiver = (x, y, 0.0)
    two_pi = 2.0 * math.pi
    with mp.workdps(50):
        for i, h in enumerate(channel_vector(s, layout, receiver)):
            wrapped = math.fmod(two_pi - cmath.phase(complex(h)), two_pi)
            assert 0.0 <= wrapped < two_pi
            total = total_phase(s, layout, receiver, i)
            expected = float(mp.fmod(mp.mpf(total), 2 * mp.pi))
            gap = abs(wrapped - expected)
            assert min(gap, two_pi - gap) <= 16 * math.ulp(total)


def test_channel_vector_matches_scalar_coefficients():
    s = Scenario(feed_point_x=1.0)
    layout = AntennaLayout((0.0, 2.0, 5.0, 9.0))
    receiver = (4.0, 2.0, 0.0)
    vec = channel_vector(s, layout, receiver)
    assert isinstance(vec, np.ndarray)
    assert vec.dtype == np.complex128 and vec.shape == (4,)
    for n in range(4):
        h = channel_coefficient(s, layout, receiver, n)
        assert vec[n] == pytest.approx(h, rel=1e-14)


def test_channel_vector_rejects_antennas_off_the_waveguide():
    s = Scenario()
    with pytest.raises(ValueError, match="waveguide"):
        channel_vector(s, AntennaLayout((1.0, 50.0)), (5.0, 1.0, 0.0))
    # a layout built for a longer waveguide does not fit a shorter one
    with pytest.raises(ValueError, match="waveguide"):
        channel_vector(Scenario(waveguide_length=5.0), uniform_layout(s, 3), (2.0, 1.0, 0.0))
    # both ends of the waveguide are legal positions
    vec = channel_vector(s, AntennaLayout((0.0, s.waveguide_length)), (5.0, 1.0, 0.0))
    assert np.all(np.isfinite(vec))


def test_effective_channel_sums_selected_antennas():
    s = Scenario()
    layout = AntennaLayout((0.0, 3.0, 8.0))
    h = channel_vector(s, layout, (5.0, 1.0, 0.0))
    assert effective_channel(h, 0b001) == h[0]
    assert effective_channel(h, 0b101) == pytest.approx(h[0] + h[2], rel=1e-14)
    assert effective_channel(h, 0b111) == pytest.approx(h.sum(), rel=1e-14)


def test_effective_channel_rejects_empty_and_out_of_range():
    s = Scenario()
    vec = channel_vector(s, AntennaLayout((0.0, 3.0)), (5.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        effective_channel(vec, 0)
    with pytest.raises(ValueError):
        effective_channel(vec, 0b100)
    with pytest.raises(ValueError):
        effective_channel(vec, -1)


def test_phase_gap_properties():
    s = Scenario()
    layout = AntennaLayout((0.0, 1.0, 7.0))
    receiver = (4.0, 2.0, 0.0)
    two_pi = 2.0 * math.pi
    for n, m in [(0, 1), (1, 2), (0, 2)]:
        gap = phase_gap(s, layout, receiver, n, m)
        assert 0.0 <= gap < two_pi
        raw = total_phase(s, layout, receiver, n) - total_phase(s, layout, receiver, m)
        assert gap == pytest.approx(raw % two_pi, abs=1e-9)
        flipped = phase_gap(s, layout, receiver, m, n)
        assert (gap + flipped) % two_pi == pytest.approx(0.0, abs=1e-9) \
            or (gap + flipped) % two_pi == pytest.approx(two_pi, abs=1e-9)
    with pytest.raises(ValueError):
        phase_gap(s, layout, receiver, 1, 1)


def test_constructive_alignment_adds_magnitudes():
    s = Scenario()
    layout = AntennaLayout((0.0, 1.0))
    x = solve_alignment(s, layout, y=0.5, target=0.0, x_lo=2.0, x_hi=8.0)
    receiver = (x, 0.5, 0.0)
    h0 = channel_coefficient(s, layout, receiver, 0)
    h1 = channel_coefficient(s, layout, receiver, 1)
    assert abs(h0 + h1) == pytest.approx(abs(h0) + abs(h1), rel=1e-9)


def test_destructive_alignment_cancels_magnitudes():
    s = Scenario()
    layout = AntennaLayout((0.0, 1.0))
    x = solve_alignment(s, layout, y=0.5, target=math.pi, x_lo=2.0, x_hi=8.0)
    receiver = (x, 0.5, 0.0)
    h0 = channel_coefficient(s, layout, receiver, 0)
    h1 = channel_coefficient(s, layout, receiver, 1)
    assert abs(h0 + h1) == pytest.approx(abs(abs(h0) - abs(h1)),
                                         abs=1e-9 * (abs(h0) + abs(h1)))
