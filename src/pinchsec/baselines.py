"""Reference strategies the activation game is measured against.

* exhaustive search over every nonempty antenna subset (exact optimum)
  of the evaluator it is given, which also scores the choice: the
  evaluator's block walk (snr_blocks), ranked by a log-free ratio so that
  only masks near the best get log1p.  A search peaks at 1.26 MiB at 16
  antennas, 2.52 at 20 and 3.77 at 24 (tracemalloc) and takes 0.67-0.98,
  6.1-9.2 and 96-138 ms (process CPU time per drop on a 2-core shared
  host, whose speed drifted that much between runs);
* simulated annealing over subsets (scales past the exhaustive limit),
  which skips in numpy what its dict of scores shows a quiet state surely
  rejects: on 28 antennas a walk takes 7-8 ms at 20 dBm and 55-61 at 0
  dBm for 10^5 steps, 54-62 and 561-643 for 10^6 (process CPU, 2-core host);
* the activation game's scan with a value-only move rule: an antenna
  flips when the flip strictly raises the coalition value, instead of on
  payoff comparisons;
* a conventional half-wavelength array at the region centre, all elements
  always active.  Its element positions are cached per (scenario, N), and
  its one rate per link comes straight from the coefficient sum through
  the kernel's arithmetic, with no evaluator: 51 -> 33 us per drop
  at 20 elements (best of 5 timed passes over 200 drops on a 2-core host).
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import wavelengths
from .coalitions import full_mask
from .game import DEFAULT_MAX_CYCLES, GameTrace, ValueFunction, _scan
from .geometry import AntennaLayout, Drop, Scenario, _real
from .secrecy import LinkBudget, SecrecyEvaluator, _link_rates, secrecy_from_snr

# annealing draws its start as one unsigned 64-bit mask
ANNEALING_MAX_ANTENNAS = 64


def enumerate_secrecy_values(bob_coeffs, eve_coeffs, budget: LinkBudget) -> np.ndarray:
    """Secrecy rate of every coalition, indexed by mask: the full mask's
    subset table, with entry 0 (empty mask) -inf so argmax never picks it.

    Channels are complex coefficient arrays of equal length, as
    channel_vector returns them.
    """
    evaluator = SecrecyEvaluator(bob_coeffs, eve_coeffs, budget)
    evaluator.snr_blocks()   # refuses n < 1 and n past the cap on the call
    table = evaluator.subset_values(full_mask(evaluator.n_antennas))
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


def brute_force_secrecy_optimum(evaluator: SecrecyEvaluator) -> tuple[int, float, float, float]:
    """Exact best coalition of the evaluator's drop, scored by the evaluator.

    Returns (mask, secrecy rate, user rate, eavesdropper rate).  Each block
    of evaluator.snr_blocks is ranked by the log-free ratio
    (1 + bob SNR) / (1 + eve SNR); only the masks near the best ratio so
    far (_NEAR_BEST) get the finish stage, whose values equal the
    evaluator's own.  Blocks do not arrive in mask order, so a tie in
    value goes to the smaller mask explicitly.
    """
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


def _integer(name: str, value) -> int:
    """A Python or numpy integer as an int; ValueError naming the field for anything else."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling schedule.

    The initial temperature must be positive and finite.  The cooling
    factor is derived: the rate that takes the temperature to 1e-3 across
    the run (three decades from the default 1.0), clamped below 1.
    """

    initial_temperature: float = 1.0
    steps: int = 1_000_000

    def __post_init__(self):
        object.__setattr__(self, "initial_temperature",
                           _real("initial_temperature", self.initial_temperature))
        if not 0.0 < self.initial_temperature < math.inf:
            raise ValueError(f"initial temperature must be positive and finite, "
                             f"got {self.initial_temperature}")
        object.__setattr__(self, "steps", _integer("steps", self.steps))
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")

    @property
    def cooling_factor(self) -> float:
        return min((1e-3 / self.initial_temperature) ** (1.0 / max(self.steps, 1)), 1.0 - 1e-15)


# steps whose draws are turned into Python lists at a time (about 160 KiB)
_WALK_CHUNK = 4096

# a state is scanned once its last _QUIET_RUN + 1 proposals found no new mask
# and made no move; walks of 10 to 28 antennas ran fastest at runs of 40 to 128
_QUIET_RUN = 64

# A quiet step's worse move is surely rejected when its uniform draw is at
# least np.exp(max(dv / T, _EXP_CLAMP)) * (1 + _EXP_MARGIN).  Above the
# clamp, np.exp's results are normal doubles within a few ulps (1e-15
# relative) of math.exp's, far inside the margin.  At the clamp the bound
# is about 1e-304: at least math.exp of any exponent at or below -700 (the
# scalar rule clamps at -745), and below every nonzero draw (2^-53 at
# least).  So a draw of 0.0 is left to the scalar rule, and np.exp never
# returns a subnormal, which costs it 100x more.
_EXP_CLAMP = -700.0
_EXP_MARGIN = 1e-9


def _temperatures(temperature: float, factor: float, count: int) -> np.ndarray:
    """The running temperature at each of count steps: temperature, then
    temperature * factor, and so on.  multiply.accumulate multiplies in
    sequence, so entry j equals j repeated products bit for bit."""
    out = np.full(count, factor)
    out[0] = temperature
    return np.multiply.accumulate(out, out=out)


def _surely_rejected(dv, temperatures, uniforms) -> np.ndarray:
    """True where the walk's scalar rule rejects a move for certain: dv < 0
    and the draw is at least np.exp(max(dv / T, _EXP_CLAMP)) times
    1 + _EXP_MARGIN.  A NaN, a draw of 0.0 and a draw within the margin
    stay False.  At T = 0 a worse move's exponent is -inf, so every other
    draw is marked, as the scalar rule rejects every worse move there.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = np.divide(dv, temperatures)
        np.maximum(bound, _EXP_CLAMP, out=bound)
        np.exp(bound, out=bound)
        bound *= 1.0 + _EXP_MARGIN
    return (dv < 0.0) & (uniforms >= bound)


def _frozen_steps(neighbour_dv, flips, temperatures, uniforms) -> int:
    """How many leading steps from a state the scalar rule surely rejects:
    steps _surely_rejected marks, with neighbour_dv[k] the change in value
    of flipping k (NaN for a neighbour not yet scored, which stops the
    scan)."""
    rejected = _surely_rejected(neighbour_dv.take(flips), temperatures, uniforms)
    return len(rejected) if rejected.all() else int(rejected.argmin())


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
    masks and is their only copy: a SecrecyEvaluator keeps none.

    Late in a walk the state freezes: every neighbour's value is in the
    dict, and almost every step rejects.  Once a state has gone quiet (its
    last _QUIET_RUN + 1 proposals found no new mask and made no move), the
    rest of the chunk is scanned in numpy (_frozen_steps) for the first
    step that is not surely rejected, and the steps before it are skipped.
    A neighbour not in the dict has a NaN change in value, so the scan
    stops at the first step that would call v; the dict holds the empty
    mask at -inf, as entry 0 of enumerate_secrecy_values, so its flip is a
    worse move like any other.  Each scan slices its chunk's
    temperatures, built once (_temperatures: the loop's chain of
    products).  Every other step goes through the scalar rule.  The scan
    is conservative: it skips a worse move only if the draw is at least
    np.exp's acceptance bound times 1 + 1e-9, a million times any gap
    between np.exp and math.exp, and it leaves draws of 0.0 and NaNs to
    the scalar rule.  So math.exp still decides every move that could be
    accepted, and the draws, the v calls, the temperatures and the result
    are those of a plain loop.

    Every flip is drawn before the first uniform, chunk by chunk into one
    byte a step, and each chunk's uniforms as the walk reaches it: the
    stream of one draw of each, held at 1 B a step and one chunk (2.2 MiB
    at 10^6 steps and 28 antennas, tracemalloc).
    """
    n_antennas = _integer("n_antennas", n_antennas)
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
    flips = np.empty(steps, dtype=np.uint8)
    for first in range(0, steps, _WALK_CHUNK):
        flips[first:first + _WALK_CHUNK] = rng.integers(0, n_antennas, min(_WALK_CHUNK, steps - first))
    temperature = schedule.initial_temperature
    factor = schedule.cooling_factor
    bits = [1 << k for k in range(n_antennas)]
    seen = {0: -math.inf, state: value}
    exp = math.exp
    quiet_at = _QUIET_RUN       # the chunk step from which the state is quiet
    for first in range(0, steps, _WALK_CHUNK):
        count = min(_WALK_CHUNK, steps - first)
        uniforms = rng.random(count)
        i, start, temperatures, ks = 0, temperature, None, None
        while i < count:
            if i >= quiet_at:
                # quiet: skip to the first step that may move or call v
                if temperatures is None:
                    temperatures = _temperatures(start, factor, count)
                neighbour_dv = np.array([seen.get(state ^ b, math.nan) for b in bits]) - value
                skipped = _frozen_steps(neighbour_dv, flips[first + i:first + count],
                                        temperatures[i:], uniforms[i:])
                if best_trace is not None:
                    best_trace.extend([best_value] * skipped)
                i += skipped
                if i == count:
                    temperature = float(temperatures[-1]) * factor
                    break
                temperature = float(temperatures[i])
            if ks is None:
                ks = flips[first:first + count].tolist()
                us = uniforms.tolist()
            for i in range(i, count):
                proposal = state ^ bits[ks[i]]
                if proposal:
                    new_value = seen.get(proposal)
                    if new_value is None:
                        new_value = seen[proposal] = v(proposal)
                        quiet_at = i + 1 + _QUIET_RUN
                    dv = new_value - value
                    if dv >= 0.0:
                        state, value = proposal, new_value
                        quiet_at = i + 1 + _QUIET_RUN
                        if value > best_value:
                            best_state, best_value = state, value
                    elif temperature > 0.0:
                        # exp underflows silently below ~-745, so the exponent is
                        # clamped there; a NaN exponent passes, as max() lets it,
                        # and rejects
                        x = dv / temperature
                        if us[i] < exp(-745.0 if x < -745.0 else x):
                            # a worse move cannot raise the best
                            state, value = proposal, new_value
                            quiet_at = i + 1 + _QUIET_RUN
                temperature *= factor
                if best_trace is not None:
                    best_trace.append(best_value)
                if i >= quiet_at:
                    i += 1
                    break
            else:
                i = count
        quiet_at -= count
    return best_state, best_value


def coalition_value_activation(v: ValueFunction, layout: AntennaLayout, bob_position,
                               max_cycles: int = DEFAULT_MAX_CYCLES) -> tuple[int, GameTrace]:
    """Activation scan driven by raw value changes, not member payoffs.

    Same starting point and scan order as the payoff-driven game: an
    antenna joins or leaves when that strictly raises v, and singletons
    never empty.  Greedy on the group objective, so it ignores how the gain
    splits across members.  v must be pure: the rule and the scan's trace
    read it through one dict, so v is called once per distinct mask, and
    the rule finds the mask it scans from there, put by the trace.
    """
    seen = {}

    def value(mask):
        if mask not in seen:
            seen[mask] = v(mask)
        return seen[mask]

    def flips(mask, n):
        proposal = mask ^ (1 << n)
        return proposal != 0 and value(proposal) > seen[mask]

    return _scan(value, layout, bob_position, flips, max_cycles)


@lru_cache(maxsize=None)
def _ula_positions(scenario: Scenario, n_antennas: int) -> np.ndarray:
    """(x, y, z) of each element of the fixed array, one row per element.

    Cached per (scenario, n), as geometry.uniform_layout is.
    """
    wl = wavelengths(scenario)
    centre = scenario.region_x / 2.0
    span = (n_antennas - 1) * wl.free_space / 2.0
    xs = centre - span / 2.0 + np.arange(n_antennas) * (wl.free_space / 2.0)
    pos = np.column_stack([xs, np.zeros(n_antennas),
                           np.full(n_antennas, scenario.waveguide_height)])
    pos.flags.writeable = False
    return pos


def ula_secrecy_rate(scenario: Scenario, drop: Drop, n_antennas: int,
                     budget: LinkBudget) -> tuple[float, float, float]:
    """Conventional fixed array: N elements at half-wavelength spacing.

    The array sits at the centre of the service region at the same height
    as the waveguide, radiating all elements with equal power split and no
    feed-line phase accumulation.  Each link's rate is the kernel's
    arithmetic on the full mask, as SecrecyEvaluator.link_rates gives it:
    the coefficients added in index order, then both links finished by
    secrecy._link_rates at rho = P_t / (N * sigma^2).  Non-finite
    coefficients raise ValueError, as the evaluator's do.  Returns (user
    rate, eavesdropper rate, secrecy rate).
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    pos = _ula_positions(scenario, n_antennas)
    wl = wavelengths(scenario)
    rho = budget.transmit_power_w / (n_antennas * budget.noise_power_w)
    sums = []
    for receiver in (drop.bob, drop.eve):
        d = np.linalg.norm(pos - np.asarray(receiver, dtype=np.float64), axis=1)
        phase = np.mod(2.0 * np.pi * d / wl.free_space, 2.0 * np.pi)
        coeffs = (wl.amplitude_factor / d) * np.exp(-1j * phase)
        if not np.isfinite(coeffs).all():
            raise ValueError("channel coefficients must be finite")
        h = 0j
        for c in coeffs.tolist():
            h += c
        sums.append(h)
    rb, re = _link_rates(*sums, rho)
    return rb, re, rb - re
