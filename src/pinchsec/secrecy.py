"""Data rates, secrecy rate, and the per-drop coalition value function.

With K active antennas the transmit power is split equally, so the SNR
scale is rho = P_t / (K * sigma^2) and each link rate is
log2(1 + rho * |sum of active coefficients|^2).  The secrecy rate is the
legitimate link's rate minus the eavesdropper's, not clamped at zero.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import lt

import numpy as np

from . import coalitions
from .geometry import _typed

_INV_LN2 = 1.0 / math.log(2.0)

# a block of the subset walk (_blocks) spans the lowest 13 members: 8192
# subsets, whose planes (256 KiB for the four sums of a block) stay in cache
_BLOCK_BITS = 13

# the bits set in each byte value, lowest first, for the scalar path's walk
_BYTE_BITS = [tuple(k for k in range(8) if byte >> k & 1) for byte in range(256)]


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class LinkBudget:
    """Transmit and noise powers, stored in dBm, used in watts."""

    transmit_power_dbm: float
    noise_power_dbm: float

    def __post_init__(self):
        _typed(self)
        # the rates need P_t / sigma^2 in watts finite: noise that underflows
        # to 0 W, or a power past 1e308 W, would give inf or NaN rates
        try:
            scale = self.transmit_power_w / self.noise_power_w
        except (OverflowError, ZeroDivisionError):
            scale = math.inf
        if not math.isfinite(scale):
            raise ValueError(f"transmit power {self.transmit_power_dbm} dBm over noise "
                             f"{self.noise_power_dbm} dBm is out of range")

    @classmethod
    def from_scenario(cls, scenario, transmit_power_dbm: float) -> "LinkBudget":
        return cls(transmit_power_dbm=transmit_power_dbm, noise_power_dbm=scenario.noise_power_dbm)

    @property
    def transmit_power_w(self) -> float:
        return dbm_to_watts(self.transmit_power_dbm)

    @property
    def noise_power_w(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)


class SecrecyEvaluator:
    """Coalition value v(S) for one drop, recomputed on every query.

    v(S) is the secrecy rate of activation mask S, with the convention
    v(empty) = 0 so that subset-weighted payoff sums are anchored at zero.
    Every value, whether looked up one mask at a time, as a payoff table or
    block by block, comes from one kernel: coefficient sums added in
    ascending antenna order, then its SNR stage (rho * |h|^2, _snr) and
    its finish stage (numpy's log1p and the 1/ln 2 scale, bob minus eve,
    secrecy_from_snr).  So all three paths agree bit for bit.

    Instances are bound to one drop; do not share them across drops.
    """

    def __init__(self, bob_channels, eve_channels, budget: LinkBudget):
        hb = np.asarray(bob_channels, dtype=np.complex128)
        he = np.asarray(eve_channels, dtype=np.complex128)
        if hb.ndim != 1 or he.ndim != 1:
            raise ValueError("channel vectors must be 1-D arrays")
        if len(hb) != len(he):
            raise ValueError("bob and eve channel vectors must have equal length")
        self._n = len(hb)
        pairs = list(zip(hb.tolist(), he.tolist()))   # (bob, eve) coefficients by antenna
        self._byte_coeffs = [pairs[j:j + 8] for j in range(0, self._n, 8)]   # by byte of a mask
        # the kernel's inputs: coefficient parts as four planes (bob re,
        # eve re, bob im, eve im) by antenna, so that the SNR stage adds two
        # contiguous halves, re squares and im squares; and rho by active count
        self._coeffs = np.stack([hb.real, he.real, hb.imag, he.imag])
        if not np.isfinite(self._coeffs).all():
            raise ValueError("channel coefficients must be finite")
        active = np.arange(1, self._n + 1)
        self._rho = np.concatenate(([0.0], budget.transmit_power_w
                                    / (active * budget.noise_power_w)))
        self._rho_list = self._rho.tolist()   # the scalar path reads rho here
        self._rho_rows: dict[tuple[int, int], np.ndarray] = {}

    @property
    def n_antennas(self) -> int:
        return self._n

    def link_rates(self, mask: int) -> tuple[float, float]:
        """(bob rate, eve rate) in bits/s/Hz for a nonempty mask: the scalar path,
        which v takes.  Sums from 0j, lowest antenna first, walking
        the mask a byte at a time, then both links finished by _link_rates."""
        if mask <= 0 or mask >> self._n:
            raise ValueError("at least one antenna must be active" if mask == 0
                             else "coalition mask out of range")
        hb = he = 0j
        rest = mask
        for coeffs in self._byte_coeffs:
            for k in _BYTE_BITS[rest & 255]:
                b, e = coeffs[k]
                hb += b
                he += e
            rest >>= 8
        return _link_rates(hb, he, self._rho_list[mask.bit_count()])

    def _subset_sums(self, rows, planes, joining=()) -> None:
        """Coefficient sums of every subset of the given antennas into planes
        (bob re, eve re, bob im, eve im) of shape (4, len(joining) or 1,
        2^len(rows)), doubling one contiguous block per antenna, on at most
        one block (2^13 entries a plane): bit k of an index stands for
        rows[k], and each sum adds its antennas in order.

        With joining antennas (ascending, none in rows) there is one row of
        sums per joining antenna n, each sum also adding n in its ascending
        place: n joins the first 2^k entries just before the doubling over
        rows[k], the first of rows above n, or every entry after the last.
        """
        if joining:
            joined_coeffs = self._coeffs[:, joining, None]
        planes[..., 0] = 0.0
        joined = 0          # joining antennas added so far: the ones below row
        for k, row in enumerate(rows):
            half = 1 << k
            if joined < len(joining) and joining[joined] < row:
                stop = bisect_left(joining, row, joined)
                planes[:, joined:stop, :half] += joined_coeffs[:, joined:stop]
                joined = stop
            np.add(planes[..., :half], self._coeffs[:, row, None, None], out=planes[..., half:2 * half])
        if joined < len(joining):
            planes[:, joined:] += joined_coeffs[:, joined:]

    def _rho_row(self, size: int, added: int) -> np.ndarray:
        """rho for every subset index of size antennas (at most a block), by
        subset size + added, the antennas that join each subset.  Cached."""
        if (size, added) not in self._rho_rows:
            self._rho_rows[size, added] = self._rho[added:][coalitions.subset_sizes(size)]
        return self._rho_rows[size, added]

    def subset_values(self, mask: int, joining=None) -> np.ndarray:
        """v over every subset of a mask, as one array of 2^|mask| entries.

        Bit i of an index stands for the i-th lowest member of the mask, so
        entry 0 is v(empty) = 0 and the last entry is v(mask); each entry
        equals self(sub) bit for bit.  Finished block by block from _blocks,
        the table peaks at 65 bytes per entry at 13 members, 48 at 14, 16 at
        18, 11 at 20 and 9 at 22 (tracemalloc).  Nothing is memoized.

        With joining antennas (ascending, outside the mask) there is one row
        per joining antenna n instead, indexed the same way: entry i of n's
        row is self(sub + n), bit for bit.  Rows of 2^13 entries in all come
        from one pass of _subset_sums, longer ones one by one from _blocks,
        peaking at 40 bytes per entry at 14 members, 14 at 18 and 9 at 22.

        Joining antennas must ascend within range, outside the mask (else
        ValueError); a table past ENUMERATION_CAP, a joined antenna counted,
        raises CapacityError.  Both are checked before any buffer.
        """
        if mask < 0 or mask >= (1 << self._n):
            raise ValueError("coalition mask out of range")
        members = coalitions.members(mask)
        if joining is not None and not (all(map(lt, (-1, *joining), (*joining, self._n)))
                                        and set(joining).isdisjoint(members)):
            raise ValueError(f"joining antennas {list(joining)} must ascend within "
                             f"0..{self._n - 1}, outside the mask")
        if len(members) + bool(joining) > coalitions.ENUMERATION_CAP:
            raise coalitions.CapacityError(f"a table over {len(members)} members"
                                           f"{' and a joined antenna' if joining else ''} exceeds the cap")
        if joining is not None and len(joining) << len(members) <= 1 << _BLOCK_BITS:
            sums = np.empty((4, len(joining), 1 << len(members)))
            self._subset_sums(members, sums, joining)
            return secrecy_from_snr(_snr(sums, self._rho_row(len(members), 1), sums))
        rows = np.empty((1 if joining is None else len(joining), 1 << len(members)))
        for row, n in zip(rows, [None] if joining is None else joining):
            for first, snr, _ in self._blocks(members, n):
                secrecy_from_snr(snr, out=row[first:first + snr.shape[1]])
        return rows[0] if joining is None else rows

    def snr_blocks(self):
        """The kernel's SNR stage for every mask, in blocks of 2^13 masks.

        Iterates (first mask, snr, spare): snr holds rho * |h|^2 of bob and
        eve as two planes, and spare is two planes of the same shape that
        the caller may overwrite.  They are the two contiguous halves of one
        square buffer (planes 0-1 and 2-3), reused, so they hold a block
        only until the next is drawn.  Entry 0 of the block at mask 0 is the
        empty mask, whose SNRs are 0; every other entry gives self(mask) bit
        for bit through secrecy_from_snr.  A search peaks at 1.26 MiB at
        n = 16, 2.52 at 20 and 3.77 at 24 (tracemalloc).  The call refuses
        n < 1 (ValueError) and n > ENUMERATION_CAP (CapacityError).
        """
        if self._n < 1:
            raise ValueError("need at least one antenna")
        if self._n > coalitions.ENUMERATION_CAP:
            raise coalitions.CapacityError(
                f"exhaustive search over 2^{self._n} masks exceeds the enumeration cap")
        return self._blocks(range(self._n))

    def _blocks(self, members, joined=None):
        """snr_blocks' walk over every subset of the ascending members; bit
        i of a yielded index stands for members[i].  With a joined antenna n
        (not a member), every sum also adds n in its ascending place.

        A block spans the lowest 13 members.  Blocks come in prefix order of
        the members above, so each block's sums are its parent's plus its
        highest member: one add per block, and every sum still adds its
        antennas in ascending order.  The sums wait on a stack, one level
        (256 KiB) per high member set; a block with no children (its highest
        member is the last, or it is the only block) goes to the square.
        Each count of high members set has its rho row (64 KiB), kept by
        _rho_row.

        If no high member is below n, n joins the root's doubling.  Else the
        block whose highest member is its only one above n adds n just
        before it (one more add), and a block with none adds n into the square.
        """
        low, high = members[:_BLOCK_BITS], members[_BLOCK_BITS:]
        width = 1 << len(low)
        added = joined is not None
        place = bisect_left(high, joined) if added else 0   # 0: no n, or n joins the root
        # built once per walk: a column per high member and one buffer for
        # the stack.  The square comes after the root's sums, so numpy's
        # buffers for their doublings (about 190 KiB) are gone; a square
        # inside the stack's buffer slowed the search's ranking by 8-9% at
        # n = 20 and 24
        columns = [self._coeffs[:, m, None] for m in high]
        column = self._coeffs[:, joined, None] if place else None
        levels = list(np.empty((len(high), 4, width)))
        root = levels[0] if high else np.empty((4, width))
        self._subset_sums(low, root[:, None], () if place or not added else (joined,))
        square = np.empty((4, width)) if high else root
        spare = square[2:]
        todo = [(0, -1)]   # (high members set, highest of them; -1 if none)
        while todo:
            high_set, top = todo.pop()
            depth = high_set.bit_count()
            sums = root
            if depth:
                level = square if top == len(high) - 1 else levels[depth]
                parent = levels[depth - 1]
                if place and (high_set >> place).bit_count() == 1:
                    parent = np.add(parent, column, out=level)
                sums = np.add(parent, columns[top], out=level)
            if place and not high_set >> place:
                sums = np.add(sums, column, out=square)
            yield high_set << len(low), _snr(sums, self._rho_row(len(low), depth + added), square), spare
            # the children add one member above top; the lowest is drawn first
            todo.extend((high_set | 1 << k, k) for k in range(len(high) - 1, top, -1))

    def __call__(self, mask: int) -> float:
        if mask == 0:
            return 0.0
        rb, re = self.link_rates(mask)
        return rb - re


def _snr(sums, rho, out) -> np.ndarray:
    """The kernel's SNR stage: rho * |h|^2 of both links from four planes
    of coefficient sums (bob re, eve re, bob im, eve im).

    Squares the sums into out (four planes; it may be sums itself), adds
    each link's im square to its re square, and returns out's planes 0 and
    1, now bob's and eve's SNR; planes 2 and 3 are left free.  Both halves
    are contiguous.
    """
    np.square(sums, out=out)
    snr = np.add(out[:2], out[2:], out=out[:2])
    snr *= rho
    return snr


def secrecy_from_snr(snr, out=None) -> np.ndarray:
    """The kernel's finish stage: v = log2(1 + bob SNR) - log2(1 + eve SNR)
    from two SNR planes, through numpy's log1p and the 1/ln 2 scale.

    Overwrites snr with the two link rates.
    """
    np.log1p(snr, out=snr)
    snr *= _INV_LN2
    return np.subtract(snr[0], snr[1], out=out)


def _link_rates(hb: complex, he: complex, rho: float) -> tuple[float, float]:
    """(bob rate, eve rate) log2(1 + rho * |h|^2) from both links' coefficient
    sums: the kernel's arithmetic on one entry, where numpy's log1p gives a
    Python float the same bits as an array entry."""
    return (float(np.log1p((hb.real * hb.real + hb.imag * hb.imag) * rho)) * _INV_LN2,
            float(np.log1p((he.real * he.real + he.imag * he.imag) * rho)) * _INV_LN2)
