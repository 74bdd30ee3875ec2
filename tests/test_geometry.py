import math
from dataclasses import fields

import numpy as np
import pytest

from pinchsec import AntennaLayout, Scenario, sample_drop, uniform_layout
from pinchsec.geometry import Drop
from helpers import in_region


def test_default_scenario_values():
    s = Scenario()
    assert s.region_x == 10.0
    assert s.region_y == 6.0
    assert s.waveguide_height == 3.0
    assert s.waveguide_length == 10.0
    assert s.carrier_frequency == 28.0e9
    assert s.effective_refractive_index == 1.4
    assert s.noise_power_dbm == -90.0
    assert s.feed_point_x == 0.0
    assert s.one_sided_region is False


@pytest.mark.parametrize("kwargs", [
    {"region_x": 0.0},
    {"region_x": -1.0},
    {"region_y": 0.0},
    {"waveguide_height": 0.0},
    {"waveguide_length": -2.0},
    {"carrier_frequency": 0.0},
    {"effective_refractive_index": 0.99},
    {"feed_point_x": -0.1},
    {"feed_point_x": 10.5},
    # a truthy string is not a switch that is on
    {"one_sided_region": "no"},
    {"one_sided_region": 1},
    # nor is a bool or a string a length
    {"region_x": True},
    {"waveguide_height": "3"},
    {"noise_power_dbm": None},
])
def test_scenario_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        Scenario(**kwargs)


@pytest.mark.parametrize("name", [f.name for f in fields(Scenario) if f.type is float])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scenario_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match="finite"):
        Scenario(**{name: value})


def test_scenario_names_the_switch_that_is_no_bool_and_takes_numpy_bools():
    with pytest.raises(ValueError, match="one_sided_region must be a bool, got 'no'"):
        Scenario(one_sided_region="no")
    scenario = Scenario(one_sided_region=np.True_)
    assert scenario.one_sided_region is True and scenario == Scenario(one_sided_region=True)


def test_y_bounds_straddles_waveguide_by_default():
    assert Scenario().y_bounds() == (-3.0, 3.0)


def test_y_bounds_one_sided():
    assert Scenario(one_sided_region=True).y_bounds() == (0.0, 6.0)


def test_contains_interior_boundary_exterior():
    s = Scenario()
    assert in_region(s, (5.0, 0.0, 0.0))
    assert in_region(s, (0.0, -3.0, 0.0))
    assert in_region(s, (10.0, 3.0, 0.0))
    assert not in_region(s, (10.001, 0.0, 0.0))
    assert not in_region(s, (-0.001, 0.0, 0.0))
    assert not in_region(s, (5.0, 3.001, 0.0))
    assert not in_region(s, (5.0, 0.0, 1.0))   # users live at ground level
    one_sided = Scenario(one_sided_region=True)
    assert in_region(one_sided, (5.0, 6.0, 0.0))
    assert not in_region(one_sided, (5.0, -0.001, 0.0))


def test_layout_coerces_and_validates():
    layout = AntennaLayout(positions_x=[0, 1, 2])
    assert layout.positions_x == (0.0, 1.0, 2.0)
    assert all(isinstance(x, float) for x in layout.positions_x)
    with pytest.raises(ValueError):
        AntennaLayout(positions_x=())
    with pytest.raises(ValueError):
        AntennaLayout(positions_x=(1.0, 1.0))
    with pytest.raises(ValueError):
        AntennaLayout(positions_x=(2.0, 1.0))
    with pytest.raises(ValueError):
        AntennaLayout(positions_x=(-0.5, 1.0))


@pytest.mark.parametrize("positions", [(1.0, math.nan), (1.0, math.inf), (math.nan,)])
def test_layout_rejects_non_finite_positions(positions):
    with pytest.raises(ValueError, match="finite"):
        AntennaLayout(positions)


def test_uniform_layout_spacing():
    s = Scenario()
    assert uniform_layout(s, 1).positions_x == (5.0,)
    assert uniform_layout(s, 2).positions_x == (0.0, 10.0)
    assert uniform_layout(s, 5).positions_x == (0.0, 2.5, 5.0, 7.5, 10.0)
    with pytest.raises(ValueError):
        uniform_layout(s, 0)


def test_uniform_layout_is_built_once_per_scenario_and_count():
    layout = uniform_layout(Scenario(), 7)
    assert uniform_layout(Scenario(), 7) is layout
    assert uniform_layout(Scenario(waveguide_length=8.0), 7) is not layout
    assert uniform_layout(Scenario(waveguide_length=8.0), 7).positions_x[-1] == 8.0


def test_sample_drop_stays_in_region():
    s = Scenario()
    rng = np.random.default_rng(7)
    for _ in range(200):
        drop = sample_drop(s, rng)
        assert in_region(s, drop.bob)
        assert in_region(s, drop.eve)
        assert drop.bob[2] == 0.0 and drop.eve[2] == 0.0


def test_sample_drop_one_sided_region():
    s = Scenario(one_sided_region=True)
    rng = np.random.default_rng(11)
    for _ in range(200):
        drop = sample_drop(s, rng)
        assert drop.bob[1] >= 0.0 and drop.eve[1] >= 0.0


def test_sample_drop_draw_order_is_pinned():
    # downstream seeds rely on the exact uniform-draw order staying put
    s = Scenario()
    drop = sample_drop(s, np.random.default_rng(123))
    rng = np.random.default_rng(123)
    lo, hi = s.y_bounds()
    expected = Drop(
        bob=(rng.uniform(0.0, s.region_x), rng.uniform(lo, hi), 0.0),
        eve=(rng.uniform(0.0, s.region_x), rng.uniform(lo, hi), 0.0),
    )
    assert drop == expected


def test_sample_drop_is_deterministic_per_seed():
    s = Scenario()
    assert sample_drop(s, np.random.default_rng(5)) == sample_drop(s, np.random.default_rng(5))
    assert sample_drop(s, np.random.default_rng(5)) != sample_drop(s, np.random.default_rng(6))

