"""Physical scenario, antenna placement, and user drops.

Coordinate convention: the waveguide runs along the line y = 0 at height
z = waveguide_height, for x in [0, waveguide_length].  Users live on the
ground plane z = 0 inside a rectangle x in [0, region_x].  By default the
rectangle straddles the waveguide (y in [-region_y/2, region_y/2]); an
optional one-sided mode uses y in [0, region_y] instead.
"""

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

Point = tuple[float, float, float]


def _boolean(name: str, value) -> bool:
    """A Python or numpy bool as a bool; ValueError naming the field for anything else."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} must be a bool, got {value!r}")


def _real(name: str, value) -> float:
    """A Python or numpy real number as a float; ValueError naming the field for
    anything else, a bool or a string included."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """Immutable physical configuration.

    Lengths in meters, frequency in Hz, noise power in dBm.  Defaults match
    the standard benchmark setup: 10 m x 6 m region, 3 m waveguide height,
    28 GHz carrier, refractive index 1.4, -90 dBm noise, feed at x = 0.
    """

    region_x: float = 10.0
    region_y: float = 6.0
    waveguide_height: float = 3.0
    waveguide_length: float = 10.0
    carrier_frequency: float = 28e9
    effective_refractive_index: float = 1.4
    noise_power_dbm: float = -90.0
    feed_point_x: float = 0.0
    one_sided_region: bool = False

    def __post_init__(self):
        object.__setattr__(self, "one_sided_region",
                           _boolean("one_sided_region", self.one_sided_region))
        for f in fields(self):
            if f.type is float:
                value = _real(f.name, getattr(self, f.name))
                if not math.isfinite(value):
                    raise ValueError(f"{f.name} must be finite, got {value}")
                object.__setattr__(self, f.name, value)
        if self.region_x <= 0 or self.region_y <= 0:
            raise ValueError("region dimensions must be positive")
        if self.waveguide_height <= 0:
            raise ValueError("waveguide height must be positive")
        if self.waveguide_length <= 0:
            raise ValueError("waveguide length must be positive")
        if self.carrier_frequency <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.effective_refractive_index < 1.0:
            raise ValueError("effective refractive index must be >= 1")
        if not 0.0 <= self.feed_point_x <= self.waveguide_length:
            raise ValueError("feed point must lie on the waveguide")

    def y_bounds(self) -> tuple[float, float]:
        """Ground-region y extent; depends on the one_sided_region switch."""
        if self.one_sided_region:
            return 0.0, self.region_y
        half = self.region_y / 2.0
        return -half, half


@dataclass(frozen=True)
class AntennaLayout:
    """Ordered x-positions of the pre-installed antennas on the waveguide."""

    positions_x: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions_x", tuple(float(x) for x in self.positions_x))
        if len(self.positions_x) < 1:
            raise ValueError("layout needs at least one antenna")
        if not all(math.isfinite(x) for x in self.positions_x):
            raise ValueError(f"antenna positions must be finite, got {self.positions_x}")
        if any(b <= a for a, b in zip(self.positions_x, self.positions_x[1:])):
            raise ValueError("antenna positions must be strictly increasing")
        if self.positions_x[0] < 0.0:
            raise ValueError("antenna positions must be nonnegative")

    @property
    def n_antennas(self) -> int:
        return len(self.positions_x)


@dataclass(frozen=True)
class Drop:
    """One placement of the legitimate user (bob) and eavesdropper (eve)."""

    bob: Point
    eve: Point


@lru_cache(maxsize=None)
def uniform_layout(scenario: Scenario, n: int) -> AntennaLayout:
    """Equally spaced layout over the full waveguide, endpoints included.

    A single antenna goes at the waveguide midpoint.  Cached per (scenario, n).
    """
    if n < 1:
        raise ValueError("antenna count must be >= 1")
    if n == 1:
        return AntennaLayout((scenario.waveguide_length / 2.0,))
    return AntennaLayout(tuple(np.linspace(0.0, scenario.waveguide_length, n)))


def sample_drop(scenario: Scenario, rng: np.random.Generator) -> Drop:
    """Draw bob and eve independently uniform over the ground region."""
    y_lo, y_hi = scenario.y_bounds()
    bob = (rng.uniform(0.0, scenario.region_x), rng.uniform(y_lo, y_hi), 0.0)
    eve = (rng.uniform(0.0, scenario.region_x), rng.uniform(y_lo, y_hi), 0.0)
    return Drop(bob=bob, eve=eve)
