"""Reference strategies the activation game is measured against.

* exhaustive search over every nonempty antenna subset (exact optimum),
  streamed through the evaluator in blocks of 2^13 masks, one add per
  block, and ranked by a log-free ratio so that only masks near the best
  get log1p.  Buffers take 1.25 MiB at 16 antennas, 2.5 at 20 and 3.75 at
  24; a search takes 0.9 ms, 7 ms and 105-116 ms (process CPU time on a
  2-core host), under half of the ascending block walk it replaced, with
  the same choices;
* simulated annealing over subsets (scales past the exhaustive limit);
* the activation game's scan with a value-only move rule: an antenna
  flips when the flip strictly raises the coalition value, instead of on
  payoff comparisons;
* a conventional half-wavelength array at the region centre, all elements
  always active.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import wavelengths
from .coalitions import ENUMERATION_CAP, full_mask
from .game import DEFAULT_MAX_CYCLES, CapacityError, GameTrace, ValueFunction, _scan
from .geometry import AntennaLayout, Drop, Scenario
from .secrecy import LinkBudget, SecrecyEvaluator, secrecy_from_snr

# annealing draws its start as one unsigned 64-bit mask
ANNEALING_MAX_ANTENNAS = 64


def _exhaustive_evaluator(bob_coeffs, eve_coeffs, budget: LinkBudget) -> SecrecyEvaluator:
    """The drop's evaluator, after checking its antenna count is 1 to the cap."""
    evaluator = SecrecyEvaluator(bob_coeffs, eve_coeffs, budget)
    n = evaluator.n_antennas
    if n < 1:
        raise ValueError("need at least one antenna")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"exhaustive search over 2^{n} masks exceeds the enumeration cap")
    return evaluator


def enumerate_secrecy_values(bob_coeffs, eve_coeffs, budget: LinkBudget) -> np.ndarray:
    """Secrecy rate of every coalition, indexed by mask.

    Channels are complex coefficient arrays of equal length, as
    channel_vector returns them.  Entry 0 (empty mask) is -inf so argmax
    never picks it.
    """
    evaluator = _exhaustive_evaluator(bob_coeffs, eve_coeffs, budget)
    table = np.empty(1 << evaluator.n_antennas)
    for first, snr, _ in evaluator.snr_blocks():
        secrecy_from_snr(snr, out=table[first:first + snr.shape[1]])
    table[0] = -np.inf
    return table


# A mask is finished (log1p and all) only if its ratio (1 + bob SNR) /
# (1 + eve SNR) is at least this factor times the best ratio so far.  log2
# of the float ratio and the float value differ by about 1e-13 bits at most
# (three roundings of 1.6e-16 bits in the ratio, a few ulps of each rate in
# the value), and the factor sits 1.4e-9 bits below the best ratio.  So a
# skipped mask is strictly worse than the mask with the best ratio, which
# is finished: the true maximum and every tie with it are always finished.
_NEAR_BEST = 1.0 - 1e-9


def brute_force_secrecy_optimum(bob_coeffs, eve_coeffs,
                                budget: LinkBudget) -> tuple[int, float, float, float]:
    """Exact best coalition for the secrecy objective.

    Returns (mask, secrecy rate, user rate, eavesdropper rate).  Each block
    of SecrecyEvaluator.snr_blocks is ranked by the log-free ratio
    (1 + bob SNR) / (1 + eve SNR); only the masks near the best ratio so
    far (_NEAR_BEST) get the finish stage, whose values equal the
    evaluator's own.  Blocks do not arrive in mask order, so a tie in
    value goes to the smaller mask explicitly.
    """
    evaluator = _exhaustive_evaluator(bob_coeffs, eve_coeffs, budget)
    mask, best, top = 0, -np.inf, -np.inf
    for first, snr, spare in evaluator.snr_blocks():
        ones_plus = np.add(snr, 1.0, out=spare)
        ratio = np.divide(ones_plus[0], ones_plus[1], out=ones_plus[0])
        if not first:
            ratio[0] = -np.inf   # the empty mask is no coalition
        peak = ratio.max()
        if peak < top * _NEAR_BEST:
            continue
        top = max(top, peak)
        near = np.flatnonzero(ratio >= top * _NEAR_BEST)
        values = secrecy_from_snr(snr[:, near])
        at = int(values.argmax())
        value, candidate = values[at], first + int(near[at])
        if value > best or (value == best and candidate < mask):
            mask, best = candidate, value
    rb, re = evaluator.link_rates(mask)
    return mask, rb - re, rb, re


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling schedule.

    The initial temperature must be positive and finite.  cooling_factor
    defaults to the rate that takes the temperature down three decades
    across the run; an explicit factor must sit in (0, 1).
    """

    initial_temperature: float = 1.0
    steps: int = 1_000_000
    cooling_factor: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not 0.0 < self.initial_temperature < math.inf:
            raise ValueError(f"initial temperature must be positive and finite, "
                             f"got {self.initial_temperature}")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.cooling_factor is None:
            steps = max(self.steps, 1)
            factor = (1e-3 / self.initial_temperature) ** (1.0 / steps)
            object.__setattr__(self, "cooling_factor", min(factor, 1.0 - 1e-15))
        elif not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling factor must be in (0, 1)")


# steps whose draws are turned into Python lists at a time (about 160 KiB)
_WALK_CHUNK = 4096


def simulated_annealing(v: ValueFunction, n_antennas: int,
                        schedule: AnnealingSchedule = None,
                        seed=None, best_trace: list = None) -> tuple[int, float]:
    """Single-bit-flip annealing over nonempty coalitions.

    A flip that would empty the coalition is rejected but still consumes a
    step (and a cooling tick).  Worse moves are accepted with probability
    exp(dv / T), and never once T has underflowed to zero.  Returns the
    best coalition ever visited, which is at least as good as the start,
    so zero steps returns the start itself.  Passing a list as best_trace
    records the best-so-far value at the start and after every step.  At
    most 64 antennas.

    v must be pure: the walk keeps every value it has seen in a local
    dict and calls v once per distinct mask, since a walk mostly revisits
    the masks one flip from its path.  That dict grows with the distinct
    masks, as a memoizing v does.
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
    bits = [1 << k for k in range(n_antennas)]
    seen = {state: value}
    exp = math.exp
    for first in range(0, steps, _WALK_CHUNK):
        last = first + _WALK_CHUNK
        for k, u in zip(flips[first:last].tolist(), uniforms[first:last].tolist()):
            proposal = state ^ bits[k]
            if proposal:
                try:
                    new_value = seen[proposal]
                except KeyError:
                    new_value = seen[proposal] = v(proposal)
                dv = new_value - value
                if dv >= 0.0:
                    state, value = proposal, new_value
                    if value > best_value:
                        best_state, best_value = state, value
                elif temperature > 0.0:
                    # exp underflows silently below ~-745, so the exponent is
                    # clamped there; a NaN exponent passes, as max() lets it,
                    # and rejects
                    x = dv / temperature
                    if u < exp(-745.0 if x < -745.0 else x):
                        # a worse move cannot raise the best
                        state, value = proposal, new_value
            temperature *= factor
            if best_trace is not None:
                best_trace.append(best_value)
    return best_state, best_value


def coalition_value_activation(v: ValueFunction, layout: AntennaLayout, bob_position,
                               max_cycles: int = DEFAULT_MAX_CYCLES) -> tuple[int, GameTrace]:
    """Activation scan driven by raw value changes, not member payoffs.

    Same starting point and scan order as the payoff-driven game: an
    antenna joins or leaves when that strictly raises v, and singletons
    never empty.  Greedy on the group objective, so it ignores how the gain
    splits across members.
    """

    def flips(mask, n):
        proposal = mask ^ (1 << n)
        return proposal != 0 and v(proposal) > v(mask)

    return _scan(v, layout, bob_position, flips, max_cycles)


def ula_secrecy_rate(scenario: Scenario, drop: Drop, n_antennas: int,
                     budget: LinkBudget) -> tuple[float, float, float]:
    """Conventional fixed array: N elements at half-wavelength spacing.

    The array sits at the centre of the service region at the same height
    as the waveguide, radiating all elements with equal power split and no
    feed-line phase accumulation.  Its rates come from a SecrecyEvaluator
    over the array's coefficients, all elements active.  Returns (user
    rate, eavesdropper rate, secrecy rate).
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

    evaluator = SecrecyEvaluator(coeffs(drop.bob), coeffs(drop.eve), budget)
    rb, re = evaluator.link_rates(full_mask(n_antennas))
    return rb, re, rb - re
