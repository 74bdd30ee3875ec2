"""Coalition formation for antenna activation.

A coalition S of active antennas earns value v(S) (the secrecy rate).
Each member's payoff is its subset-weighted average marginal contribution

    payoff(n in S) = sum over S' subset of S\\{n} of
        |S'|! (|S|-|S'|-1)! / |S|! * [v(S' + n) - v(S')]

computed exactly from one table of v over all 2^|S| subsets of S: every
member's payoff is a weighted sum of the table's differences across that
member's bit, so one table answers all members at once.  The table lives
only while its coalition's payoffs are computed and takes under
64 B x 2^|S| of temporary memory (48 B measured at |S| = 20), so under
1 GiB at the |S| = 24 cap.  An antenna outside S is scored by its
marginal contribution: the value change the coalition would see if it
joined (or, for a member, if it left).

Activation starts from the single antenna closest to the legitimate user
and repeatedly scans all antennas in index order, flipping antenna n in
or out whenever a move rule flips(mask, n) says so.  The game's rule: an
outsider joins when the payoff it would earn inside strictly beats its
stay-out score; a member leaves when its leave score strictly beats its
payoff (never emptying the coalition).  The loop stops after a full scan
with no moves, at which point no antenna can improve its payoff by
unilaterally joining or leaving (Nash stability), or after a cycle cap.
The rule keeps the payoffs of every coalition it has scored, so each
coalition's table is built once per scan.  The value-driven baseline runs
the same scan with its own rule.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import coalitions
from .coalitions import ENUMERATION_CAP
from .geometry import AntennaLayout

ValueFunction = Callable[[int], float]

DEFAULT_MAX_CYCLES = 100


class CapacityError(ValueError):
    """Raised when a coalition is too large for exact subset enumeration."""


@lru_cache(maxsize=None)
def _subset_weights(coalition_size: int) -> tuple[float, ...]:
    """Weight for a subset of size k inside a coalition of the given size."""
    f = math.factorial
    total = f(coalition_size)
    return tuple(f(k) * f(coalition_size - k - 1) / total for k in range(coalition_size))


# coalitions up to this size take their payoffs through one cached gather
# plan (264 KiB at 11); larger ones pair the table's halves member by member.
# Measured crossover: up to 11 members, where a table costs mostly numpy
# call overhead (about 7 calls per member in the loop), the plan is 3-10x
# faster; from 12 on it is slower (248 against 184 us at 12 on an x86 host).
_PLANNED_SIZE = 11


def _size_weights(size: int) -> np.ndarray:
    """_subset_weights(size) spread over every subset index by its size."""
    return np.array(_subset_weights(size) + (0.0,))[coalitions.subset_sizes(size)]


@lru_cache(maxsize=None)
def _payoff_plan(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per member i: the indices with bit i set, the same without it, and the
    weight of each pair (by the size of the subset without i)."""
    index = np.arange(1 << size)
    without = np.array([index[index >> i & 1 == 0] for i in range(size)])
    plan = (without | (1 << np.arange(size))[:, None], without, _size_weights(size)[without])
    for part in plan:
        part.flags.writeable = False
    return plan


def _subset_table(v: ValueFunction, coalition: int) -> np.ndarray:
    """v over every subset of the coalition; bit i is its i-th lowest member."""
    subset_values = getattr(v, "subset_values", None)
    if subset_values is not None:
        return subset_values(coalition)
    subsets = [0]
    for n in coalitions.members(coalition):
        bit = 1 << n
        subsets += [sub | bit for sub in subsets]
    return np.array([v(sub) for sub in subsets], dtype=np.float64)


def _member_payoffs(table: np.ndarray) -> np.ndarray:
    """Every member's payoff from a subset table, lowest member first.

    Member i pairs each subset without bit i with the same subset plus i;
    the differences are weighted by the size of the subset without i.
    """
    size = table.size.bit_length() - 1
    if size <= _PLANNED_SIZE:
        with_member, without, weights = _payoff_plan(size)
        return ((table[with_member] - table[without]) * weights).sum(axis=1)
    weights = _size_weights(size)
    payoffs = np.empty(size)
    for i in range(size):
        pairs = table.reshape(-1, 2, 1 << i)
        without = weights.reshape(-1, 2, 1 << i)[:, 0, :]
        payoffs[i] = np.sum(without * (pairs[:, 1, :] - pairs[:, 0, :]))
    return payoffs


def _coalition_payoffs(v: ValueFunction, coalition: int) -> np.ndarray:
    """Payoffs of every member of a coalition of at most ENUMERATION_CAP, lowest first."""
    n = coalition.bit_count()
    if n > ENUMERATION_CAP:
        raise CapacityError(f"coalition size {n} exceeds enumeration cap {ENUMERATION_CAP}")
    return _member_payoffs(_subset_table(v, coalition))


def _local_index(coalition: int, antenna: int) -> int:
    """Position of a member among the coalition's members, lowest first."""
    return (coalition & ((1 << antenna) - 1)).bit_count()


def shapley_value(v: ValueFunction, coalition: int, member: int) -> float:
    """Exact payoff of a coalition member under value function v.

    Builds the coalition's whole subset table; scoring several members of
    one coalition this way builds it once per call.
    """
    if not coalition & (1 << member):
        raise ValueError(f"antenna {member} is not in the coalition")
    return float(_coalition_payoffs(v, coalition)[_local_index(coalition, member)])


def outside_payoff(v: ValueFunction, coalition: int, antenna: int) -> float:
    """Marginal-contribution score of an antenna relative to a coalition.

    For an outsider: the value change the coalition avoids by keeping it
    out, v(S) - v(S + n).  For a member: the change from leaving,
    v(S - n) - v(S).  The sole member of a singleton cannot leave.
    """
    if coalition == 0:
        raise ValueError("coalition must be nonempty")
    bit = 1 << antenna
    if coalition & bit:
        if coalition == bit:
            raise ValueError("sole member cannot leave: coalition must stay nonempty")
        return v(coalition ^ bit) - v(coalition)
    return v(coalition) - v(coalition | bit)


def _payoff_rule(v: ValueFunction) -> Callable[[int, int], bool]:
    """flips(mask, n): the payoff game's move rule for antenna n.

    A member flips (leaves) when its leave score strictly beats its payoff,
    never emptying the coalition; an outsider flips (joins) when the payoff
    it would earn inside strictly beats its stay-out score.  Each
    coalition's payoffs are computed once and kept for the rule's life.
    """
    scored = {}     # coalition mask -> its members' payoffs

    def payoff(coalition, member):
        payoffs = scored.get(coalition)
        if payoffs is None:
            payoffs = scored[coalition] = _coalition_payoffs(v, coalition)
        return float(payoffs[_local_index(coalition, member)])

    def flips(mask, n):
        bit = 1 << n
        if mask & bit:
            return mask != bit and outside_payoff(v, mask, n) > payoff(mask, n)
        return payoff(mask | bit, n) > outside_payoff(v, mask, n)
    return flips


def merge_candidate(v: ValueFunction, coalition: int, antenna: int) -> bool:
    """True if an outsider strictly gains by joining; ties mean no move.

    The inside payoff is evaluated in the coalition it would join.
    """
    if coalition & (1 << antenna):
        raise ValueError(f"antenna {antenna} already in the coalition")
    return _payoff_rule(v)(coalition, antenna)


def split_candidate(v: ValueFunction, coalition: int, antenna: int) -> bool:
    """True if a member strictly gains by leaving; singletons never split."""
    if not coalition & (1 << antenna):
        raise ValueError(f"antenna {antenna} is not in the coalition")
    return _payoff_rule(v)(coalition, antenna)


@dataclass(frozen=True)
class TraceStep:
    cycle: int
    antenna: int
    action: str           # "merge", "split", or "none"
    coalition: int        # mask after the action
    value: float          # v(coalition) after the action


@dataclass
class GameTrace:
    """Per-examined-antenna record of one activation run."""

    steps: list[TraceStep]
    converged: bool
    cycles_used: int

    def to_rows(self) -> list[dict]:
        """Flat dict rows (one per examined antenna) in trace.csv column order."""
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
            for i, s in enumerate(self.steps)
        ]


@dataclass(frozen=True)
class PayoffReport:
    antenna: int
    in_coalition: bool
    payoff: float
    kind: str  # "shapley" for members, "marginal" for outsiders


def payoff_reports(v: ValueFunction, coalition: int, n_antennas: int) -> list[PayoffReport]:
    """Score every antenna against the given coalition."""
    if coalition == 0:
        raise ValueError("coalition must be nonempty")
    payoffs = _coalition_payoffs(v, coalition)
    reports = []
    for n in range(n_antennas):
        if coalition & (1 << n):
            payoff = float(payoffs[_local_index(coalition, n)])
            reports.append(PayoffReport(n, True, payoff, "shapley"))
        else:
            reports.append(PayoffReport(n, False, outside_payoff(v, coalition, n), "marginal"))
    return reports


def closest_antenna(layout: AntennaLayout, bob_position) -> int:
    """Index of the antenna nearest the user; ties go to the smallest index.

    Antennas share y and z, so ranking by |x_bob - x_n| equals ranking by
    full 3D distance.
    """
    x = float(bob_position[0])
    return int(np.argmin(np.abs(np.asarray(layout.positions_x) - x)))


def _scan(v: ValueFunction, layout: AntennaLayout, bob_position,
          flips: Callable[[int, int], bool], max_cycles: int) -> tuple[int, GameTrace]:
    """The scan both activation methods share.

    Starts from the antenna closest to the user and flips antenna n in or
    out whenever flips(mask, n), scanning in index order until a cycle with
    no flip or the cycle cap.
    """
    mask = 1 << closest_antenna(layout, bob_position)
    steps: list[TraceStep] = []
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
    return mask, GameTrace(steps=steps, converged=converged, cycles_used=cycles)


def run_activation(v: ValueFunction, layout: AntennaLayout, bob_position,
                   max_cycles: int = DEFAULT_MAX_CYCLES) -> tuple[int, GameTrace]:
    """Payoff-driven activation starting from the antenna closest to the user.

    Returns the final coalition mask and the full trace.  A converged trace
    means a complete scan produced no move; cap exhaustion is reported via
    trace.converged = False rather than an error.  Each cycle scans the
    antennas in ascending index order.
    """
    return _scan(v, layout, bob_position, _payoff_rule(v), max_cycles)


def is_nash_stable(v: ValueFunction, coalition: int, n_antennas: int) -> bool:
    """True if no single antenna gains by unilaterally joining or leaving.

    Outsiders must not prefer joining; members must not prefer leaving.
    The sole member of a singleton has no legal leave move, so the member
    condition is vacuous there.
    """
    if coalition == 0:
        raise ValueError("coalition must be nonempty")
    coalitions.validate(coalition, n_antennas)
    flips = _payoff_rule(v)
    return not any(flips(coalition, n) for n in range(n_antennas))
