"""Coalition formation for antenna activation.

A coalition S of active antennas earns value v(S) (the secrecy rate).
Each member's payoff is its subset-weighted average marginal contribution

    payoff(n in S) = sum over S' subset of S\\{n} of
        |S'|! (|S|-|S'|-1)! / |S|! * [v(S' + n) - v(S')]

computed exactly from one table of v over all 2^|S| subsets of S: every
member's payoff is a weighted sum of the table's differences across that
member's bit, so one table answers all members at once.

Activation starts from the single antenna closest to the legitimate user
and repeatedly scans all antennas in index order, flipping antenna n in
or out whenever a move rule flips(mask, n) says so.  The game's rule
compares n's payoff in C = mask + n with v(C - n) - v(C).  A member
leaves when the latter, its leave score, strictly beats its payoff
(never emptying the coalition); an outsider joins when its payoff
strictly beats the latter, the value kept by staying out.  The loop
stops after a full scan with no moves, at which point no antenna can
improve its payoff by unilaterally joining or leaving (Nash stability),
or after a cycle cap.  The value-driven baseline runs the same scan with
its own rule.  A scan's GameTrace keeps its start and its flips, each with
the mask it left and that mask's value, and looks up v for nothing else;
to_rows() expands the flips to one row per examined antenna, cycles_used
x N in all, as trace.csv lists them.

The value v is a SecrecyEvaluator, or any object with its v(mask) and
v.subset_values(mask, joining) (see run_activation).  The rule scores the
current mask S from table(S), built on first need, and keeps S's moves
until S flips.  Every member's scores come from table(S), and so do the
outsiders'.  An outsider n's payoff in
S + n is the weighted sum over subsets T of S of v(T + n) - v(T), so it
needs only the row v(T + n), half of the table of S + n.  The rows come
from the kernel with n's coefficient added in its ascending place, so
each payoff and leave score equals the one the full table of S + n
gives, bit for bit: a chunk of outsiders in one pass of at most 2^13
entries in all, or one row past that through the block walk.  A flip
hands the next mask its table: table(S) without the leaving member's
entries, or table(S) and the joining outsider's row side by side.

Every payoff is one weighted sum (_weighted_sums).  Scoring an outsider
from table(S) peaks at 40 B x 2^|S| at |S| = 14, building its row, and
16 B at 18 and 22: the row and its gains (tracemalloc).  A scan keeps
table(S), the last chunk's rows and the next mask's table, so all of it
stays under 1 GiB at the |S| = 24 cap; an outsider of 24 members is
refused before any buffer.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import coalitions
from .coalitions import ENUMERATION_CAP, CapacityError
from .geometry import AntennaLayout
from .secrecy import _BLOCK_BITS, SecrecyEvaluator

ValueFunction = Callable[[int], float]

DEFAULT_MAX_CYCLES = 100


@lru_cache(maxsize=None)
def _subset_weights(coalition_size: int) -> tuple[float, ...]:
    """Weight for a subset of size k inside a coalition of the given size."""
    f = math.factorial
    total = f(coalition_size)
    return tuple(f(k) * f(coalition_size - k - 1) / total for k in range(coalition_size))


# coalitions up to this size take their payoffs through one cached gather
# plan (176 KiB at 11); larger ones pair the table's halves member by member.
# Process CPU per table in us, plan against loop, best of 5, range over 3
# runs on a 2-core x86 host: 6.2-6.6/14-24 at 2 members, 3.6-6.7/25-45 at
# 4, 7.5-13/51-91 at 8, 44-74/95-164 at 11, 224-403/152-247 at 12,
# 427-717/242-353 at 13, 1031-1569/369-555 at 14.  Most tables have 2-8
# members, where the loop's numpy calls (about 7 a member) cost 2-9x more.
# The plan holds no weights: _weighted_sums broadcasts one row over the
# members, 0.3-1.1 us more per table at 1-8 than a gathered copy (median
# of 7 rounds, 3 runs).
_PLANNED_SIZE = 11


@lru_cache(maxsize=None)
def _weight_rows(size: int) -> np.ndarray:
    """Weights of a coalition's subsets as subsets of one of size + 1, over a
    block of its lowest min(size, _BLOCK_BITS) members: row d for blocks
    with d members past the block, laid out as the evaluator's rho rows."""
    low = min(size, _BLOCK_BITS)
    by_size = np.array(_subset_weights(size + 1))
    rows = by_size[np.arange(size - low + 1)[:, None] + coalitions.subset_sizes(low)]
    rows.flags.writeable = False
    return rows


def _weighted_sums(gains: np.ndarray) -> np.ndarray:
    """Each row's payoff from its gains over a coalition's subsets, in table
    order: every gain times its subset's weight, in place, then one sum.
    gains is C-contiguous, so its blocks are views."""
    rows = _weight_rows(gains.shape[1].bit_length() - 1)
    if len(rows) == 1:
        gains *= rows[0]
    else:
        blocks = gains.reshape(len(gains), -1, rows.shape[1])
        for b, depth in enumerate(coalitions.subset_sizes(len(rows) - 1)):
            blocks[:, b] *= rows[depth]
    return gains.sum(axis=1)


@lru_cache(maxsize=None)
def _payoff_plan(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per member i: the indices with bit i set and the same without it,
    gathered so that the payoff arithmetic reads arrays of one shape."""
    index = np.arange(1 << size)
    without = np.array([index[index >> i & 1 == 0] for i in range(size)])
    plan = (without | (1 << np.arange(size))[:, None], without)
    for part in plan:
        part.flags.writeable = False
    return plan


def _member_payoffs(table: np.ndarray) -> np.ndarray:
    """Every member's payoff from a subset table, lowest member first.

    Member i pairs each subset without bit i with the same subset plus i;
    the differences are weighted by the size of the subset without i.
    """
    size = table.size.bit_length() - 1
    if size <= _PLANNED_SIZE:
        with_member, without = _payoff_plan(size)
        return _weighted_sums(table[with_member] - table[without])
    halves = (table.reshape(-1, 2, 1 << i) for i in range(size))
    return np.concatenate([_weighted_sums((h[:, 1] - h[:, 0]).reshape(1, -1)) for h in halves])


def _check_size(size: int) -> None:
    if size > ENUMERATION_CAP:
        raise CapacityError(f"coalition size {size} exceeds enumeration cap {ENUMERATION_CAP}")


def _member_scores(table: np.ndarray) -> tuple[list[float], list[float]]:
    """Every member's payoff and leave score from a subset table, lowest
    member first: leave[i] = v(C - member i) - v(C)."""
    last = table.size - 1
    whole = table.item(last)
    leave = [table.item(last ^ (1 << i)) - whole for i in range(last.bit_length())]
    return _member_payoffs(table).tolist(), leave


def _coalition_scores(v: SecrecyEvaluator, coalition: int) -> tuple[list[float], list[float]]:
    """Every member's payoff and leave score, lowest member first.

    Both come from one subset table of a coalition of at most
    ENUMERATION_CAP: leave[i] = v(C - member i) - v(C).
    """
    _check_size(coalition.bit_count())
    return _member_scores(v.subset_values(coalition))


def _chunk_rows(size: int) -> int:
    """Outsiders of a size-member coalition whose joined rows fit one chunk:
    2^_BLOCK_BITS entries, or one row past that."""
    return max(1, (1 << _BLOCK_BITS) >> size)


def _outsider_scores(v: SecrecyEvaluator, coalition: int, table: np.ndarray,
                     outsiders: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Payoff and leave score of each outsider n as a member of coalition + n,
    and its row v(T + n) over the coalition's subsets T.

    table is the coalition's subset table; outsiders ascend and fill at
    most one chunk (_chunk_rows), so no buffer outgrows the table of
    coalition + n, which the caller has checked against the cap.  n's
    payoff is the weighted sum over subsets T of v(T + n) - v(T), in table
    order, and its leave score is v(C) - v(C + n); both equal n's scores in
    _coalition_scores(v, coalition + n) bit for bit.
    """
    joined = v.subset_values(coalition, outsiders)
    return _weighted_sums(joined - table), table[-1] - joined[:, -1], joined


def _local_index(coalition: int, antenna: int) -> int:
    """Position of a member among the coalition's members, lowest first."""
    return (coalition & ((1 << antenna) - 1)).bit_count()


def shapley_value(v: SecrecyEvaluator, coalition: int, member: int) -> float:
    """Exact payoff of a coalition member under the value v.

    v is a SecrecyEvaluator, or any object with its v(mask) and
    v.subset_values(mask, joining) (see run_activation).  Builds the
    coalition's whole subset table; scoring several members of one
    coalition this way builds it once per call.
    """
    if not coalition & (1 << member):
        raise ValueError(f"antenna {member} is not in the coalition")
    return _coalition_scores(v, coalition)[0][_local_index(coalition, member)]


class _MaskMoves:
    """What the payoff rule knows of one mask: its subset table, built on
    first need; its members that leave (None until scored); its outsiders
    scored so far and those of them that join, as bit masks; and the last
    chunk of outsiders scored, with their rows v(T + n)."""

    def __init__(self, mask: int, table=None):
        self.mask, self.table, self.leaves = mask, table, None
        self.scored = self.joins = 0
        self.chunk, self.rows = [], None


def _payoff_rule(v: SecrecyEvaluator, n_antennas: int) -> Callable[[int, int], bool]:
    """flips(mask, n): the payoff game's move rule for antenna n.

    Compares n's payoff in C = mask + n with v(C - n) - v(C) (see the module
    docstring).  The first member asked about scores every member of the
    mask from the mask's table.  An outsider not yet scored is scored with
    the next outsiders in scan order, as many as fit one chunk
    (_chunk_rows), in one pass over the same table.  Only the current
    mask's moves are kept; another mask starts afresh.  A flip hands the
    next mask its table: the current one without the leaving member's
    half, or with the joining outsider's row, if in the last chunk, as the
    new half.
    """
    now = _MaskMoves(-1)

    def table():
        if now.table is None:
            _check_size(now.mask.bit_count())
            now.table = v.subset_values(now.mask)
        return now.table

    def flips(mask, n):
        nonlocal now
        if now.mask != mask:
            now = _MaskMoves(mask)
        bit = 1 << n
        if mask & bit:
            if mask == bit:
                return False
            if now.leaves is None:
                payoffs, leave = _member_scores(table())
                now.leaves = _moves(coalitions.members(mask), leave, payoffs)
            if not now.leaves & bit:
                return False
            now = _MaskMoves(mask ^ bit, _without_member(now.table, _local_index(mask, n)))
            return True
        if not now.scored & bit:
            size = mask.bit_count()
            _check_size(size + 1)   # before the table is built
            rows = _chunk_rows(size)
            taken = mask | now.scored
            chunk = [m for m in range(n_antennas) if not taken >> m & 1]
            if len(chunk) > rows:
                # the next ones in the order the scan asks: from n up, then from 0
                i = chunk.index(n)
                chunk = sorted((chunk[i:] + chunk[:i])[:rows])
            payoffs, leave, now.rows = _outsider_scores(v, mask, table(), chunk)
            now.chunk = chunk
            now.joins |= _moves(chunk, payoffs.tolist(), leave.tolist())
            now.scored |= sum(1 << m for m in chunk)
        if not now.joins & bit:
            return False
        handed = None
        if n in now.chunk:
            handed = _with_member(now.table, now.rows[now.chunk.index(n)], _local_index(mask, n))
        now = _MaskMoves(mask | bit, handed)
        return True
    return flips


def _without_member(table: np.ndarray, i: int) -> np.ndarray:
    """The subset table of C - member i from the table of C: the entries
    without bit i, which hold the same sums bit for bit."""
    return table.reshape(-1, 2, 1 << i)[:, 0].reshape(-1)


def _with_member(table: np.ndarray, row: np.ndarray, i: int) -> np.ndarray:
    """The subset table of C + n from the table of C and n's row v(T + n),
    n to be member i: the row fills the entries with bit i."""
    out = np.empty(2 * table.size)
    halves = out.reshape(-1, 2, 1 << i)
    halves[:, 0] = table.reshape(-1, 1 << i)
    halves[:, 1] = row.reshape(-1, 1 << i)
    return out


def _moves(antennas, scores, others) -> int:
    """Bit mask of the antennas whose score strictly beats the other one."""
    return sum(1 << n for n, score, other in zip(antennas, scores, others) if score > other)


class Flip(NamedTuple):
    """One move of a scan: the antenna that flipped and what it left."""

    cycle: int
    antenna: int
    coalition: int        # mask after the flip
    value: float          # v(coalition)

    @property
    def action(self) -> str:
        return "merge" if self.coalition >> self.antenna & 1 else "split"


@dataclass
class GameTrace:
    """Record of one activation scan: its start, its flips and its cycles.

    A scan examines all n_antennas antennas in index order every cycle, so
    it examines cycles_used * n_antennas in all, but only the flips are
    kept.  to_rows() expands them back to one row per examined antenna, in
    which an antenna that did not flip leaves the mask and value as they
    were.
    """

    n_antennas: int
    start: int            # the mask the scan started from
    start_value: float    # v(start)
    flips: list[Flip]
    converged: bool
    cycles_used: int

    def to_rows(self) -> list[dict]:
        """Flat dict rows (one per examined antenna) in trace.csv column order."""
        rows = []
        mask, value = self.start, self.start_value
        flips = iter(self.flips)
        flip = next(flips, None)
        for cycle in range(1, self.cycles_used + 1):
            for n in range(self.n_antennas):
                action = "none"
                if flip is not None and flip.cycle == cycle and flip.antenna == n:
                    mask, value, action = flip.coalition, flip.value, flip.action
                    flip = next(flips, None)
                rows.append({"cycle": cycle, "step": len(rows) + 1, "antenna": n, "action": action,
                             "coalition_mask": mask, "coalition_size": mask.bit_count(),
                             "value": value})
        return rows


@dataclass(frozen=True)
class PayoffReport:
    antenna: int
    in_coalition: bool
    payoff: float
    kind: str  # "shapley" for members, "marginal" for outsiders


def payoff_reports(v: SecrecyEvaluator, coalition: int, n_antennas: int) -> list[PayoffReport]:
    """Score every antenna against the given coalition.

    Members get their payoff; an outsider n gets v(S) - v(S + n), the
    value the coalition keeps by leaving it out.  v is a SecrecyEvaluator,
    or any object with its v(mask) and v.subset_values(mask, joining) (see
    run_activation).
    """
    if coalition == 0:
        raise ValueError("coalition must be nonempty")
    payoffs = _coalition_scores(v, coalition)[0]
    reports = []
    for n in range(n_antennas):
        bit = 1 << n
        if coalition & bit:
            reports.append(PayoffReport(n, True, payoffs[_local_index(coalition, n)], "shapley"))
        else:
            # scalar: an outsider's own table could pass the cap
            reports.append(PayoffReport(n, False, v(coalition) - v(coalition | bit), "marginal"))
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
    no flip or the cycle cap.  Looks up v only at the start and after each
    flip, for the trace.
    """
    mask = 1 << closest_antenna(layout, bob_position)
    trace = GameTrace(layout.n_antennas, mask, v(mask), [], False, 0)
    moves = trace.flips
    for cycle in range(1, max_cycles + 1):
        trace.cycles_used = cycle
        before = len(moves)
        for n in range(layout.n_antennas):
            if flips(mask, n):
                mask ^= 1 << n
                moves.append(Flip(cycle, n, mask, v(mask)))
        if len(moves) == before:
            trace.converged = True
            break
    return mask, trace


def run_activation(v: SecrecyEvaluator, layout: AntennaLayout, bob_position,
                   max_cycles: int = DEFAULT_MAX_CYCLES) -> tuple[int, GameTrace]:
    """Payoff-driven activation starting from the antenna closest to the user.

    v is a SecrecyEvaluator, or any object with its two calls: v(mask), the
    value of one mask, and v.subset_values(mask, joining), v of every subset
    of mask as a float64 array indexed by the mask's members (bit i is the
    i-th lowest), or with joining antennas one row of v(sub + n) per n.

    Returns the final coalition mask and the scan's trace.  A converged trace
    means a complete scan produced no move; cap exhaustion is reported via
    trace.converged = False rather than an error.  Each cycle scans the
    antennas in ascending index order.
    """
    return _scan(v, layout, bob_position, _payoff_rule(v, layout.n_antennas), max_cycles)

