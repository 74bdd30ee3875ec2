"""Complex channel coefficients for a waveguide-fed antenna row.

The coefficient from antenna n to a receiver at r is

    h_n = (eta / |r - p_n|) * exp(-j * phi_n)
    phi_n = 2*pi/lambda * |r - p_n|  +  2*pi/lambda_g * |feed - p_n|

i.e. an inverse-distance amplitude with two phase legs: the radiated
free-space path and the guided path from the feed point to the antenna.
eta = c / (4*pi*f_c) is the free-space amplitude scale, lambda_g the
in-waveguide wavelength.  Waveguide propagation loss is not modeled.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import AntennaLayout, Scenario

SPEED_OF_LIGHT = 299_792_458.0

TWO_PI = 2.0 * math.pi


class Wavelengths(NamedTuple):
    free_space: float       # lambda = c / f_c
    guided: float           # lambda_g = lambda / n_eff
    amplitude_factor: float  # eta = lambda / (4*pi), meters


def wavelengths(scenario: Scenario) -> Wavelengths:
    lam = SPEED_OF_LIGHT / scenario.carrier_frequency
    return Wavelengths(
        free_space=lam,
        guided=lam / scenario.effective_refractive_index,
        amplitude_factor=lam / (4.0 * math.pi),
    )


@dataclass(frozen=True)
class ChannelVector:
    """Per-antenna coefficients for one receiver position."""

    coefficients: np.ndarray
    wavelength: float
    guided_wavelength: float

    @property
    def n_antennas(self) -> int:
        return len(self.coefficients)


def channel_vector(scenario: Scenario, layout: AntennaLayout, receiver) -> ChannelVector:
    """Coefficients for every antenna in the layout at one receiver.

    Every antenna must lie on the waveguide, in [0, waveguide_length].
    """
    if layout.positions_x[-1] > scenario.waveguide_length:
        raise ValueError(f"antenna at x = {layout.positions_x[-1]} lies past the end of "
                         f"the {scenario.waveguide_length} m waveguide")
    lam, lam_g, eta = wavelengths(scenario)
    pos = np.asarray(layout.positions_x)
    r = np.asarray(receiver, dtype=float)
    free = np.sqrt((r[0] - pos) ** 2 + r[1] ** 2 + (r[2] - scenario.waveguide_height) ** 2)
    feed = np.abs(scenario.feed_point_x - pos)
    phase = np.fmod(TWO_PI * (free / lam + feed / lam_g), TWO_PI)
    coeffs = (eta / free) * np.exp(-1j * phase)
    return ChannelVector(coefficients=coeffs, wavelength=lam, guided_wavelength=lam_g)
