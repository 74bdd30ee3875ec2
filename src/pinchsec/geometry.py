"""Physical scenario, antenna placement, and user drops.

Coordinate convention: the waveguide runs along the line y = 0 at height
z = waveguide_height, for x in [0, waveguide_length].  Users live on the
ground plane z = 0 inside a rectangle x in [0, region_x].  By default the
rectangle straddles the waveguide (y in [-region_y/2, region_y/2]); an
optional one-sided mode uses y in [0, region_y] instead.
"""

import math
import numbers
import operator
from collections.abc import Iterable
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from typing import get_args, get_origin

import numpy as np

Point = tuple[float, float, float]


def _boolean(name: str, value) -> bool:
    """A Python or numpy bool as a bool; ValueError naming the field for anything else."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} must be a bool, got {value!r}")


def _integer(name: str, value) -> int:
    """A Python or numpy integer as an int; ValueError naming the field for anything else."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """A finite Python or numpy real number as a float; ValueError naming the
    field for anything else: a bool, a string, NaN or an infinity."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        value = float(value)
        if math.isfinite(value):
            return value
        raise ValueError(f"{name} must be finite, got {value}")
    raise ValueError(f"{name} must be a real number, got {value!r}")


_CHECKS = {bool: _boolean, int: _integer, float: _real}


def _typed(record) -> None:
    """Type and check every field of a frozen dataclass by its annotation.

    A bool, int or float field goes through its check above; a tuple[X, ...]
    field takes any iterable but a str or bytes, and becomes a nonempty
    tuple of distinct items, each through X's check if X has one; a
    dataclass field must hold an instance of it.  Every refusal is a
    ValueError naming the field.
    """
    for f in fields(record):
        name, kind, value = f.name, f.type, getattr(record, f.name)
        check = _CHECKS.get(kind)
        if check is not None:
            value = check(name, value)
        elif get_origin(kind) is tuple:
            # a str or bytes would split into its characters or byte values
            if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
                raise ValueError(f"{name} must be a list, got {value!r}")
            check = _CHECKS.get(get_args(kind)[0])
            value = tuple(value if check is None else (check(name, item) for item in value))
            if not value:
                raise ValueError(f"{name} must be nonempty")
            if len(set(value)) != len(value):
                raise ValueError(f"{name} repeats a value: {value}")
        elif is_dataclass(kind) and not isinstance(value, kind):
            raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        object.__setattr__(record, name, value)


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
        _typed(self)
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
        _typed(self)
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
