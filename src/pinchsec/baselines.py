"""Reference strategies the activation game is measured against.

* exhaustive search over every nonempty antenna subset (exact optimum),
  both a generic callable-based version and a vectorized one specialised
  to secrecy rates;
* simulated annealing over subsets (scales past the exhaustive limit);
* a value-only variant of the activation scan that moves on raw coalition
  value changes instead of payoff comparisons;
* a conventional half-wavelength array at the region centre, all elements
  always active.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelVector, channel_vector, wavelengths
from .game import (DEFAULT_MAX_CYCLES, CapacityError, GameTrace,
                   ValueFunction, _merge_split_scan, closest_antenna)
from .geometry import AntennaLayout, Drop, Scenario
from .secrecy import LinkBudget, _rate_from_mag2

BRUTE_FORCE_CAP = 24

# annealing draws its start as one unsigned 64-bit mask
ANNEALING_MAX_ANTENNAS = 64


def brute_force_optimum(v: ValueFunction, n_antennas: int) -> tuple[int, float]:
    """Best nonempty coalition by direct enumeration of all 2^N - 1 masks.

    Ties keep the smallest mask.  Guarded at 24 antennas; beyond that use
    the vectorized secrecy enumeration or annealing.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    if n_antennas > BRUTE_FORCE_CAP:
        raise CapacityError(
            f"{n_antennas} antennas means {2 ** n_antennas - 1} coalitions; cap is {BRUTE_FORCE_CAP}")
    best_mask = 1
    best_value = v(1)
    for mask in range(2, 1 << n_antennas):
        value = v(mask)
        if value > best_value:
            best_mask, best_value = mask, value
    return best_mask, best_value


def enumerate_secrecy_values(bob_coeffs, eve_coeffs, budget: LinkBudget) -> np.ndarray:
    """Secrecy rate of every coalition, indexed by mask.

    Builds the 2^N tables by doubling: masks [2^k, 2^(k+1)) are the masks
    below 2^k plus antenna k, so each block is the previous block shifted
    by one channel coefficient.  Entry 0 (empty mask) is -inf so argmax
    never picks it.
    """
    hb = np.asarray(bob_coeffs.coefficients if isinstance(bob_coeffs, ChannelVector) else bob_coeffs,
                    dtype=np.complex128)
    he = np.asarray(eve_coeffs.coefficients if isinstance(eve_coeffs, ChannelVector) else eve_coeffs,
                    dtype=np.complex128)
    if hb.shape != he.shape or hb.ndim != 1:
        raise ValueError("need matching 1-d channel vectors")
    n = hb.size
    if n < 1:
        raise ValueError("need at least one antenna")
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"2^{n} coalition table exceeds the enumeration cap")
    total = 1 << n
    sum_b = np.zeros(total, dtype=np.complex128)
    sum_e = np.zeros(total, dtype=np.complex128)
    sizes = np.zeros(total, dtype=np.uint8)
    for k in range(n):
        half = 1 << k
        sum_b[half:2 * half] = sum_b[:half] + hb[k]
        sum_e[half:2 * half] = sum_e[:half] + he[k]
        sizes[half:2 * half] = sizes[:half] + 1
    sizes[0] = 1  # dummy, avoids dividing by zero on the discarded entry
    ratio = budget.transmit_power_w / (sizes.astype(np.float64) * budget.noise_power_w)
    gain_b = sum_b.real ** 2 + sum_b.imag ** 2
    gain_e = sum_e.real ** 2 + sum_e.imag ** 2
    values = np.log2(1.0 + ratio * gain_b) - np.log2(1.0 + ratio * gain_e)
    values[0] = -np.inf
    return values


def brute_force_secrecy_optimum(bob_coeffs, eve_coeffs,
                                budget: LinkBudget) -> tuple[int, float, float, float]:
    """Exact best coalition for the secrecy objective.

    Returns (mask, secrecy rate, user rate, eavesdropper rate).  np.argmax
    returns the first maximum, which under the doubling construction is
    the smallest mask, matching brute_force_optimum's tie rule.
    """
    values = enumerate_secrecy_values(bob_coeffs, eve_coeffs, budget)
    mask = int(np.argmax(values))
    hb = np.asarray(bob_coeffs.coefficients if isinstance(bob_coeffs, ChannelVector) else bob_coeffs,
                    dtype=np.complex128)
    he = np.asarray(eve_coeffs.coefficients if isinstance(eve_coeffs, ChannelVector) else eve_coeffs,
                    dtype=np.complex128)
    members = [i for i in range(hb.size) if mask >> i & 1]
    k = len(members)
    rb = _rate_from_mag2(abs(hb[members].sum()) ** 2, k, budget)
    re = _rate_from_mag2(abs(he[members].sum()) ** 2, k, budget)
    return mask, float(values[mask]), rb, re


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling schedule.

    cooling_factor defaults to the rate that takes the temperature down
    three decades across the run; an explicit factor must sit in (0, 1).
    """

    initial_temperature: float = 1.0
    steps: int = 1_000_000
    cooling_factor: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.initial_temperature <= 0:
            raise ValueError("initial temperature must be positive")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.cooling_factor is None:
            steps = max(self.steps, 1)
            factor = (1e-3 / self.initial_temperature) ** (1.0 / steps)
            object.__setattr__(self, "cooling_factor", min(factor, 1.0 - 1e-15))
        elif not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling factor must be in (0, 1)")


def simulated_annealing(v: ValueFunction, n_antennas: int,
                        schedule: AnnealingSchedule = None,
                        seed=None, best_trace: list = None) -> tuple[int, float]:
    """Single-bit-flip annealing over nonempty coalitions.

    A flip that would empty the coalition is rejected but still consumes a
    step (and a cooling tick).  Worse moves are accepted with probability
    exp(dv / T).  Returns the best coalition ever visited, which is at
    least as good as the start, so zero steps returns the start itself.
    Passing a list as best_trace records the best-so-far value at the
    start and after every step.  At most 64 antennas.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    if n_antennas > ANNEALING_MAX_ANTENNAS:
        raise ValueError(f"annealing supports at most {ANNEALING_MAX_ANTENNAS} antennas, "
                         f"got {n_antennas}")
    if schedule is None:
        schedule = AnnealingSchedule()
    rng = np.random.default_rng(seed)
    # high endpoint included: the full coalition is a legal start
    state = int(rng.integers(1, (1 << n_antennas) - 1, endpoint=True, dtype=np.uint64))
    value = v(state)
    best_state, best_value = state, value
    if best_trace is not None:
        best_trace.append(best_value)
    steps = schedule.steps
    if steps == 0:
        return best_state, best_value
    flips = rng.integers(0, n_antennas, size=steps)
    uniforms = rng.random(size=steps)
    temperature = schedule.initial_temperature
    factor = schedule.cooling_factor
    for i in range(steps):
        bit = 1 << int(flips[i])
        proposal = state ^ bit
        if proposal:
            new_value = v(proposal)
            dv = new_value - value
            # exp underflows silently below ~-745; clamp instead of trusting
            # the temperature to stay representable
            if dv >= 0.0 or uniforms[i] < math.exp(max(dv / temperature, -745.0)):
                state, value = proposal, new_value
                if value > best_value:
                    best_state, best_value = state, value
        temperature *= factor
        if best_trace is not None:
            best_trace.append(best_value)
    return best_state, best_value


def coalition_value_activation(v: ValueFunction, layout: AntennaLayout, bob_position,
                               max_cycles: int = DEFAULT_MAX_CYCLES) -> tuple[int, GameTrace]:
    """Activation scan driven by raw value changes, not member payoffs.

    Same starting point and scan order as the payoff-driven game: an
    outsider joins when v strictly rises, a member leaves when v strictly
    rises, singletons never empty.  Greedy on the group objective, so it
    ignores how the gain splits across members.
    """

    def want_merge(vf, mask, n):
        return vf(mask | (1 << n)) > vf(mask)

    def want_split(vf, mask, n):
        bit = 1 << n
        if mask == bit:
            return False
        return vf(mask ^ bit) > vf(mask)

    start = 1 << closest_antenna(layout, bob_position)
    return _merge_split_scan(v, layout.n_antennas, start, want_merge, want_split,
                             max_cycles, None)


def ula_secrecy_rate(scenario: Scenario, drop: Drop, n_antennas: int,
                     budget: LinkBudget) -> tuple[float, float, float]:
    """Conventional fixed array: N elements at half-wavelength spacing.

    The array sits at the centre of the service region at the same height
    as the waveguide, radiating all elements with equal power split and no
    feed-line phase accumulation.  Returns (user rate, eavesdropper rate,
    secrecy rate).
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    wl = wavelengths(scenario)
    centre = scenario.region_x / 2.0
    span = (n_antennas - 1) * wl.free_space / 2.0
    xs = centre - span / 2.0 + np.arange(n_antennas) * (wl.free_space / 2.0)
    pos = np.column_stack([xs, np.zeros(n_antennas), np.full(n_antennas, scenario.waveguide_height)])

    def coeffs(receiver):
        r = np.asarray(receiver, dtype=np.float64)
        d = np.linalg.norm(pos - r, axis=1)
        phase = np.mod(2.0 * np.pi * d / wl.free_space, 2.0 * np.pi)
        return (wl.amplitude_factor / d) * np.exp(-1j * phase)

    hb = coeffs(drop.bob)
    he = coeffs(drop.eve)
    rb = _rate_from_mag2(abs(hb.sum()) ** 2, n_antennas, budget)
    re = _rate_from_mag2(abs(he.sum()) ** 2, n_antennas, budget)
    return rb, re, rb - re
