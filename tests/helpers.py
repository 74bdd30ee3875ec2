"""Shared test utilities: scalar oracles, alignment search, row grouping.

The scalar channel, rate, exhaustive-search and move-rule paths here are
references for the package's vectorized ones: one antenna, one mask or
one coalition at a time, in plain Python arithmetic.  ValueTable gives a
plain table or function the two calls the payoff game reads values
through, with one scalar lookup per subset.  The stepwise scan and the
evaluator-built fixed array are the routes the package's scan trace and
fixed array replaced; the mask check and the Nash stability check serve
only the tests.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from pinchsec import SecrecyEvaluator, coalitions, wavelengths
from pinchsec.coalitions import ENUMERATION_CAP
from pinchsec.game import (CapacityError, _payoff_rule, _subset_weights, closest_antenna,
                           shapley_value)

TWO_PI = 2.0 * math.pi


class ValueTable:
    """A value table read the way the payoff game reads a SecrecyEvaluator (oracle).

    values is a dict or list indexed by mask, or a function of the mask.
    v(mask) looks one value up; subset_values(mask, joining) looks up every
    subset of mask one at a time, in table order (bit i of an index is the
    mask's i-th lowest member), or with joining antennas (ascending,
    outside the mask) one row of v(sub + n) per joining antenna n.
    """

    def __init__(self, values):
        self._value = values if callable(values) else values.__getitem__

    def __call__(self, mask):
        return self._value(mask)

    def subset_values(self, mask, joining=None):
        subsets = [0]
        for n in coalitions.members(mask):
            bit = 1 << n
            subsets += [sub | bit for sub in subsets]
        if joining is None:
            return np.array([self(sub) for sub in subsets], dtype=np.float64)
        return np.array([[self(sub | 1 << n) for sub in subsets] for n in joining], dtype=np.float64)


def validate(mask: int, n_antennas: int) -> None:
    """Reject masks referencing antennas outside 0..n_antennas-1."""
    if mask < 0 or mask >= (1 << n_antennas):
        raise ValueError(f"coalition mask {mask} out of range for {n_antennas} antennas")


def from_members(members) -> int:
    """Bit mask with the given antenna indices set."""
    mask = 0
    for n in members:
        if n < 0:
            raise ValueError("antenna index must be nonnegative")
        mask |= 1 << n
    return mask


def in_region(scenario, point) -> bool:
    """True if a ground-level point lies inside the scenario's user region."""
    x, y, z = point
    lo, hi = scenario.y_bounds()
    return z == 0.0 and 0.0 <= x <= scenario.region_x and lo <= y <= hi


def _legs(scenario, layout, receiver, n: int) -> tuple[float, float]:
    """Free-space and guided path lengths from antenna n to the receiver."""
    if not 0 <= n < layout.n_antennas:
        raise IndexError(f"antenna index {n} out of range")
    x_n = layout.positions_x[n]
    free = math.dist(receiver, (x_n, 0.0, scenario.waveguide_height))
    return free, abs(scenario.feed_point_x - x_n)


def total_phase(scenario, layout, receiver, n: int) -> float:
    """Unwrapped total phase (radians, >= 0) accrued on both legs."""
    lam, lam_g, _ = wavelengths(scenario)
    free, feed = _legs(scenario, layout, receiver, n)
    return TWO_PI * (free / lam + feed / lam_g)


def channel_coefficient(scenario, layout, receiver, n: int) -> complex:
    """Complex coefficient between antenna n and the receiver."""
    lam, lam_g, eta = wavelengths(scenario)
    free, feed = _legs(scenario, layout, receiver, n)
    phase = math.fmod(TWO_PI * (free / lam + feed / lam_g), TWO_PI)
    return (eta / free) * cmath.exp(-1j * phase)


def phase_gap(scenario, layout, receiver, n: int, n_other: int) -> float:
    """Pairwise total-phase difference reduced to [0, 2*pi)."""
    if n == n_other:
        raise ValueError("phase gap needs two distinct antennas")
    gap = total_phase(scenario, layout, receiver, n) - total_phase(scenario, layout, receiver, n_other)
    return gap % TWO_PI


def effective_channel(channels, coalition: int) -> complex:
    """Coherent sum of the active antennas' coefficients, one at a time."""
    if coalition == 0:
        raise ValueError("at least one antenna must be active")
    if coalition < 0 or coalition >= (1 << len(channels)):
        raise ValueError("coalition mask out of range")
    return sum((complex(channels[n]) for n in coalitions.members(coalition)), 0j)


def rate(channels, coalition: int, budget) -> float:
    """Link rate in bits/s/Hz for one activation mask."""
    h = effective_channel(channels, coalition)
    rho = budget.transmit_power_w / (coalition.bit_count() * budget.noise_power_w)
    return math.log1p(rho * abs(h) ** 2) / math.log(2.0)


def kernel_link_rates(bob_channels, eve_channels, coalition: int, budget) -> tuple[float, float]:
    """(bob rate, eve rate) of a nonempty mask in the kernel's arithmetic,
    one antenna at a time (oracle for the evaluator's scalar path).

    Each link's coefficients are added from 0j, lowest antenna first; then
    (re^2 + im^2) * rho at rho = P_t / (|S| * sigma^2); then numpy's log1p
    and the 1/ln 2 scale.
    """
    rho = budget.transmit_power_w / (coalition.bit_count() * budget.noise_power_w)
    rates = []
    for channels in (bob_channels, eve_channels):
        h = 0j
        for n in range(len(channels)):
            if coalition >> n & 1:
                h += complex(channels[n])
        rates.append(float(np.log1p((h.real * h.real + h.imag * h.imag) * rho)) * (1.0 / math.log(2.0)))
    return rates[0], rates[1]


def secrecy_rate(bob_channels, eve_channels, coalition: int, budget) -> float:
    """Bob's rate minus Eve's rate for one activation mask (may be negative)."""
    return rate(bob_channels, coalition, budget) - rate(eve_channels, coalition, budget)


def brute_force_optimum(v, n_antennas: int) -> tuple[int, float]:
    """Best nonempty coalition by calling v on all 2^N - 1 masks.

    Ties keep the smallest mask; refused past the enumeration cap.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    if n_antennas > ENUMERATION_CAP:
        raise CapacityError(f"{n_antennas} antennas exceeds the cap of {ENUMERATION_CAP}")
    best_mask, best_value = 1, v(1)
    for mask in range(2, 1 << n_antennas):
        value = v(mask)
        if value > best_value:
            best_mask, best_value = mask, value
    return best_mask, best_value


def one_shot_table(bob_coeffs, eve_coeffs, budget) -> np.ndarray:
    """Secrecy rate of every mask from one 2^N table (oracle).

    The exhaustive search as a single array: rows of (bob re, bob im, eve
    re, eve im) sums, doubled one antenna at a time in index order, then
    rho by popcount (counted alongside) and numpy's log1p.  Entry 0 is
    -inf.  Holds about 64 bytes per mask at its peak.
    """
    n = len(bob_coeffs)
    coeffs = np.array([(complex(b).real, complex(b).imag, complex(e).real, complex(e).imag)
                       for b, e in zip(bob_coeffs, eve_coeffs)])
    power_w, noise_w = budget.transmit_power_w, budget.noise_power_w
    rho = np.array([0.0] + [power_w / (k * noise_w) for k in range(1, n + 1)])
    sums = np.zeros((1 << n, 4))
    sizes = np.zeros(1 << n, dtype=np.intp)
    for k in range(n):
        np.add(sums[:1 << k], coeffs[k], out=sums[1 << k:2 << k])
        np.add(sizes[:1 << k], 1, out=sizes[1 << k:2 << k])
    sums *= sums
    rates = sums[:, 0::2] + sums[:, 1::2]
    rates *= rho[sizes][:, None]
    np.log1p(rates, out=rates)
    rates *= 1.0 / math.log(2.0)
    values = rates[:, 0] - rates[:, 1]
    values[0] = -np.inf
    return values


def loop_annealing(v, n_antennas: int, schedule, seed=None,
                   best_trace: list = None) -> tuple[int, float]:
    """Single-bit-flip annealing, one numpy draw and one v call per step (oracle).

    Reference for the package's walk: the same draws (start, then every
    flip, then every uniform), the same clamped acceptance test and the
    same cooling recurrence, with no cache of its own.  Divides by the
    temperature, so a schedule that cools to zero raises
    ZeroDivisionError.
    """
    rng = np.random.default_rng(seed)
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
            if dv >= 0.0 or uniforms[i] < math.exp(max(dv / temperature, -745.0)):
                state, value = proposal, new_value
                if value > best_value:
                    best_state, best_value = state, value
        temperature *= factor
        if best_trace is not None:
            best_trace.append(best_value)
    return best_state, best_value


def loop_payoff(v, coalition, member):
    """Exact payoff by walking every subset of the coalition without member.

    Scalar reference for the table-based payoff: two v lookups per subset,
    summed in descending-subset order.
    """
    bit = 1 << member
    assert coalition & bit, "member must be in the coalition"
    weights = _subset_weights(coalition.bit_count())
    rest = coalition ^ bit
    total = 0.0
    sub = rest
    while True:
        total += weights[sub.bit_count()] * (v(sub | bit) - v(sub))
        if not sub:
            break
        sub = (sub - 1) & rest
    return total


def full_weighted_sums(gains):
    """Each row's payoff from its gains over a coalition's subsets (oracle).

    Reference for the package's block-wise weighting: every gain times the
    weight _subset_weights gives its own subset's bit count, over the whole
    row at once, then one sum over the row.
    """
    size = gains.shape[1].bit_length() - 1
    counts = np.zeros(1 << size, dtype=np.intp)
    for k in range(size):
        np.add(counts[:1 << k], 1, out=counts[1 << k:2 << k])
    return (gains * np.array(_subset_weights(size + 1))[counts]).sum(axis=1)


def full_weights_member_payoffs(table):
    """Every member's payoff from a subset table through full_weighted_sums (oracle)."""
    size = table.size.bit_length() - 1
    halves = [table.reshape(-1, 2, 1 << i) for i in range(size)]
    return np.concatenate([full_weighted_sums((h[:, 1] - h[:, 0]).reshape(1, -1)) for h in halves])


def scalar_rule(v):
    """The payoff game's move rule with scalar stay-out and leave scores (oracle).

    Reference for the table-read rule: the payoff from shapley_value, one
    table per call, against v(S) - v(S + n) for an outsider or
    v(S - n) - v(S) for a member, each from two v lookups.  Strict
    comparisons; the sole member never leaves.
    """
    def flips(mask, n):
        bit = 1 << n
        if mask & bit:
            return mask != bit and v(mask ^ bit) - v(mask) > shapley_value(v, mask, n)
        return shapley_value(v, mask | bit, n) > v(mask) - v(mask | bit)
    return flips


def value_rule(v):
    """The value-driven scan's move rule: flip n when the flip strictly
    raises v and leaves the coalition nonempty (oracle)."""
    def flips(mask, n):
        proposal = mask ^ (1 << n)
        return proposal != 0 and v(proposal) > v(mask)
    return flips


@dataclass(frozen=True)
class TraceStep:
    """One antenna examined by stepwise_scan."""

    cycle: int
    antenna: int
    action: str           # "merge", "split", or "none"
    coalition: int        # mask after the action
    value: float          # v(coalition) after the action


def stepwise_scan(v, layout, bob_position, flips, max_cycles):
    """The activation scan with one step and one v lookup per examined antenna (oracle).

    Reference for the package's scan, which keeps only the flips: starts
    from the antenna closest to the user and flips antenna n whenever
    flips(mask, n), in index order, until a cycle with no flip or the cycle
    cap.  Returns (final mask, steps, converged, cycles used).
    """
    mask = 1 << closest_antenna(layout, bob_position)
    steps = []
    converged = False
    cycles = 0
    for cycle in range(1, max_cycles + 1):
        cycles = cycle
        changed = False
        for n in range(layout.n_antennas):
            action = "none"
            if flips(mask, n):
                mask ^= 1 << n
                action = "merge" if mask >> n & 1 else "split"
                changed = True
            steps.append(TraceStep(cycle, n, action, mask, v(mask)))
        if not changed:
            converged = True
            break
    return mask, steps, converged, cycles


def step_rows(steps) -> list[dict]:
    """trace.csv rows of stepwise_scan's steps, one per examined antenna (oracle)."""
    return [
        {
            "cycle": s.cycle,
            "step": i + 1,
            "antenna": s.antenna,
            "action": s.action,
            "coalition_mask": s.coalition,
            "coalition_size": s.coalition.bit_count(),
            "value": s.value,
        }
        for i, s in enumerate(steps)
    ]


def is_nash_stable(v, coalition: int, n_antennas: int) -> bool:
    """True if no single antenna gains by unilaterally joining or leaving.

    Outsiders must not prefer joining; members must not prefer leaving.
    The sole member of a singleton has no legal leave move, so the member
    condition is vacuous there.
    """
    if coalition == 0:
        raise ValueError("coalition must be nonempty")
    validate(coalition, n_antennas)
    flips = _payoff_rule(v, n_antennas)
    return not any(flips(coalition, n) for n in range(n_antennas))


def evaluator_ula_secrecy_rate(scenario, drop, n_antennas: int, budget) -> tuple[float, float, float]:
    """The fixed array's rates through a SecrecyEvaluator over its coefficients (oracle).

    Reference for the package's direct route: builds the element positions
    afresh, scores the full mask with the evaluator's link_rates and
    inherits its checks.  Returns (user rate, eavesdropper rate, secrecy
    rate).
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
    rb, re = evaluator.link_rates(coalitions.full_mask(n_antennas))
    return rb, re, rb - re


def permutation_payoff(table, members, member):
    """Average marginal contribution over all join orders (oracle).

    Brute-force reference for the subset-enumeration payoff: O(|S|!)
    permutations, usable up to six or seven members.
    """
    total = 0.0
    count = 0
    for perm in itertools.permutations(members):
        mask = 0
        for m in perm:
            if m == member:
                total += table[mask | (1 << m)] - table[mask]
                break
            mask |= 1 << m
        count += 1
    return total / count


def random_value_table(rng, members):
    """Random value table over every subset of the given member set."""
    full = from_members(members)
    table = {}
    sub = full
    while True:
        table[sub] = float(rng.normal())
        if not sub:
            break
        sub = (sub - 1) & full
    return table


def wrap_phase(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    out = math.fmod(x, 2.0 * math.pi)
    if out > math.pi:
        out -= 2.0 * math.pi
    elif out <= -math.pi:
        out += 2.0 * math.pi
    return out


def solve_alignment(scenario, layout, y: float, target: float,
                    x_lo: float, x_hi: float) -> float:
    """Ground-receiver x where antennas 0 and 1 differ in phase by target.

    Scans a grid fine enough that the wrapped gap moves less than pi per
    step, then bisects the first true crossing down to double precision.
    """

    def gap(x):
        r = (x, y, 0.0)
        return wrap_phase(total_phase(scenario, layout, r, 0)
                          - total_phase(scenario, layout, r, 1) - target)

    xs = np.linspace(x_lo, x_hi, 20001)
    g_prev = gap(xs[0])
    for a, b in zip(xs, xs[1:]):
        g_a, g_b = g_prev, gap(b)
        g_prev = g_b
        if g_a == 0.0:
            return float(a)
        # same-sign or a wrap jump: not a usable crossing
        if g_a * g_b >= 0.0 or abs(g_a - g_b) > math.pi:
            continue
        lo, hi, g_lo = float(a), float(b), g_a
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            g_mid = gap(mid)
            if g_mid == 0.0:
                return mid
            if g_lo * g_mid < 0.0:
                hi = mid
            else:
                lo, g_lo = mid, g_mid
        return 0.5 * (lo + hi)
    raise AssertionError("no alignment point in the search range")


def rows_for(rows, method: str, sweep_value=None):
    out = [r for r in rows if r.method == method]
    if sweep_value is not None:
        out = [r for r in out if r.sweep_value == sweep_value]
    return out


def sweep_values(rows) -> list:
    return sorted({r.sweep_value for r in rows})


def mean_secrecy(rows, method: str) -> dict:
    """{sweep_value: mean secrecy rate} for one method."""
    groups = {}
    for r in rows:
        if r.method == method:
            groups.setdefault(r.sweep_value, []).append(r.secrecy_rate)
    return {k: sum(v) / len(v) for k, v in sorted(groups.items())}


def paired_differences(rows, method_a: str, method_b: str, sweep_value) -> np.ndarray:
    """Per-trial secrecy differences a - b at one sweep point."""
    a = {r.trial: r.secrecy_rate for r in rows_for(rows, method_a, sweep_value)}
    b = {r.trial: r.secrecy_rate for r in rows_for(rows, method_b, sweep_value)}
    assert a.keys() == b.keys(), "trials do not pair up"
    return np.array([a[t] - b[t] for t in sorted(a)])
