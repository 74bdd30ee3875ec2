"""Data rates, secrecy rate, and the per-drop coalition value function.

With K active antennas the transmit power is split equally, so the SNR
scale is rho = P_t / (K * sigma^2) and each link rate is
log2(1 + rho * |sum of active coefficients|^2).  The secrecy rate is the
legitimate link's rate minus the eavesdropper's, not clamped at zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import coalitions

_INV_LN2 = 1.0 / math.log(2.0)

# snr_blocks spans the low 13 antennas per block: 8192 masks, whose
# planes (256 KiB for the four sums of a block) stay in cache
_BLOCK_BITS = 13


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class LinkBudget:
    """Transmit and noise powers, stored in dBm, used in watts."""

    transmit_power_dbm: float
    noise_power_dbm: float

    def __post_init__(self):
        if not math.isfinite(self.transmit_power_dbm):
            raise ValueError(f"transmit power must be finite, got {self.transmit_power_dbm}")
        if not math.isfinite(self.noise_power_dbm):
            raise ValueError(f"noise power must be finite, got {self.noise_power_dbm}")

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
    """Coalition value v(S) for one drop, memoized across queries.

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
        if len(hb) != len(he):
            raise ValueError("bob and eve channel vectors must have equal length")
        self._n = len(hb)
        self._hb, self._he = hb.tolist(), he.tolist()
        # the kernel's inputs: coefficient parts as four planes (bob re,
        # bob im, eve re, eve im) by antenna, and rho by active count
        self._coeffs = np.stack([hb.real, hb.imag, he.real, he.imag])
        if not np.isfinite(self._coeffs).all():
            raise ValueError("channel coefficients must be finite")
        active = np.arange(1, self._n + 1)
        self._rho = np.concatenate(([0.0], budget.transmit_power_w
                                    / (active * budget.noise_power_w)))
        self._memo: dict[int, float] = {0: 0.0}

    @property
    def n_antennas(self) -> int:
        return self._n

    def channel_sums(self, mask: int) -> tuple[complex, complex]:
        """Effective channels (bob, eve) for a mask, added lowest antenna first."""
        if mask < 0 or mask >= (1 << self._n):
            raise ValueError("coalition mask out of range")
        hb = he = 0j
        for n in coalitions.members(mask):
            hb += self._hb[n]
            he += self._he[n]
        return hb, he

    def link_rates(self, mask: int) -> tuple[float, float]:
        """(bob rate, eve rate) in bits/s/Hz for a nonempty mask."""
        if mask == 0:
            raise ValueError("at least one antenna must be active")
        hb, he = self.channel_sums(mask)
        rho = self._rho.item(mask.bit_count())
        # the kernel's arithmetic on one mask: numpy's log1p gives a Python
        # float the same bits as an array entry
        rb = float(np.log1p((hb.real * hb.real + hb.imag * hb.imag) * rho)) * _INV_LN2
        re = float(np.log1p((he.real * he.real + he.imag * he.imag) * rho)) * _INV_LN2
        return rb, re

    def _subset_sums(self, rows, out=None) -> np.ndarray:
        """Coefficient sums of every subset of the given antennas, as four
        planes of 2^len(rows) entries: bob re, bob im, eve re, eve im.

        Doubles one contiguous block per antenna, in the order given: bit k
        of an index stands for rows[k], and each sum adds its antennas in
        that order.  Writes into out when given.
        """
        sums = np.empty((4, 1 << len(rows))) if out is None else out
        sums[:, 0] = 0.0
        for k, row in enumerate(rows):
            half = 1 << k
            np.add(sums[:, :half], self._coeffs[:, row, None], out=sums[:, half:2 * half])
        return sums

    def subset_values(self, mask: int) -> np.ndarray:
        """v over every subset of a mask, as one array of 2^|mask| entries.

        Bit i of an index stands for the i-th lowest member of the mask, so
        entry 0 is v(empty) = 0 and the last entry is v(mask); each entry
        equals self(sub) bit for bit.  Holds 48 bytes per entry at its
        peak.  Nothing is memoized.
        """
        if mask < 0 or mask >= (1 << self._n):
            raise ValueError("coalition mask out of range")
        members = coalitions.members(mask)
        sums = self._subset_sums(members)
        return secrecy_from_snr(_snr(sums, self._rho[coalitions.subset_sizes(len(members))], sums))

    def snr_blocks(self):
        """The kernel's SNR stage for every mask, in blocks of 2^13 masks.

        Yields (first mask, snr, spare): snr holds rho * |h|^2 of bob and
        eve as two planes, and spare is two planes of the same shape that
        the caller may overwrite.  Both are views of one buffer, reused, so
        they hold a block only until the next is drawn.  Entry 0 of the
        block at mask 0 is the empty mask, whose SNRs are 0; every other
        entry gives self(mask) bit for bit through secrecy_from_snr.

        A block spans the low 13 antennas; its high antennas are the ones
        above.  Blocks come in prefix order of their high antennas, so each
        block's sums are its parent's (the same high antennas without the
        highest) plus that highest antenna: one add per block, and every
        sum still adds its antennas in ascending order.  The sums wait on a
        stack, one level per high antenna set, next to one rho row per count
        of high antennas set; a block whose highest antenna is the last has
        no children, so its sums go straight to the square buffer.  Buffers
        take 32 bytes per block entry per stack level, 8 per rho row and 32
        for the square: 1.25 MiB at n = 16, 2.5 at 20 and 3.75 at 24.
        """
        low_bits = min(self._n, _BLOCK_BITS)
        high_bits = self._n - low_bits
        # rho by active count, one row per number of high antennas set; a
        # uint8 index holds every count a 2^n walk can reach
        rho = self._rho[np.add.outer(np.arange(high_bits + 1, dtype=np.uint8),
                                     coalitions.subset_sizes(low_bits))]
        stack = np.empty((max(high_bits, 1), 4, 1 << low_bits))
        self._subset_sums(range(low_bits), out=stack[0])
        square = np.empty_like(stack[0])
        spare = square[1::2]
        todo = [(0, -1)]   # (high antennas set, highest of them; -1 if none)
        while todo:
            high, top = todo.pop()
            depth = high.bit_count()
            if not depth:
                sums = stack[0]
            else:
                level = square if top == high_bits - 1 else stack[depth]
                sums = np.add(stack[depth - 1], self._coeffs[:, low_bits + top, None], out=level)
            yield high << low_bits, _snr(sums, rho[depth], square), spare
            # the children add one antenna above top; the lowest is drawn first
            todo.extend((high | 1 << k, k) for k in range(high_bits - 1, top, -1))

    def __call__(self, mask: int) -> float:
        v = self._memo.get(mask)
        if v is None:
            rb, re = self.link_rates(mask)
            v = rb - re
            self._memo[mask] = v
        return v


def _snr(sums, rho, out) -> np.ndarray:
    """The kernel's SNR stage: rho * |h|^2 of both links from four planes
    of coefficient sums.

    Squares the sums into out (four planes; it may be sums itself) and
    returns its planes 0 and 2, now bob's and eve's SNR; planes 1 and 3 are
    left free.
    """
    np.square(sums, out=out)
    snr = np.add(out[0::2], out[1::2], out=out[0::2])
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
