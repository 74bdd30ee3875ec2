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
from .channel import ChannelVector

_INV_LN2 = 1.0 / math.log(2.0)

# value_blocks spans the low 14 antennas per block: 16384 masks, whose
# buffers (four planes of sums, two of rates, one of values) stay in cache
_BLOCK_BITS = 14


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
    ascending antenna order, then rho * |h|^2, numpy's log1p and the
    1/ln 2 scale, bob minus eve.  So all three paths agree bit for bit.

    Instances are bound to one drop; do not share them across drops.
    """

    def __init__(self, bob_channels, eve_channels, budget: LinkBudget):
        hb = np.asarray(_coeffs(bob_channels), dtype=np.complex128)
        he = np.asarray(_coeffs(eve_channels), dtype=np.complex128)
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

    def _subset_sums(self, rows) -> np.ndarray:
        """Coefficient sums of every subset of the given antennas, as four
        planes of 2^len(rows) entries: bob re, bob im, eve re, eve im.

        Doubles one contiguous block per antenna, in the order given: bit k
        of an index stands for rows[k], and each sum adds its antennas in
        that order.
        """
        sums = np.zeros((4, 1 << len(rows)))
        for k, row in enumerate(rows):
            half = 1 << k
            np.add(sums[:, :half], self._coeffs[:, row, None], out=sums[:, half:2 * half])
        return sums

    @staticmethod
    def _values(sums: np.ndarray, rho, rates=None, out=None) -> np.ndarray:
        """The kernel: v from four planes of coefficient sums and each
        entry's SNR scale rho.

        Squares the sums in place; rates (two planes) and out (one) are
        optional buffers for the link rates and the values.
        """
        np.multiply(sums, sums, out=sums)
        rates = np.add(sums[0::2], sums[1::2], out=rates)
        rates *= rho
        np.log1p(rates, out=rates)
        rates *= _INV_LN2
        return np.subtract(rates[0], rates[1], out=out)

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
        return self._values(self._subset_sums(members),
                            self._rho[coalitions.subset_sizes(len(members))])

    def value_blocks(self):
        """Secrecy rate of every mask, in ascending blocks of 2^14 masks.

        Yields (first mask, values); values is one buffer, reused, so it
        holds a block only until the next is drawn.  Entry 0 of the first
        block, the empty mask, is -inf; every other entry equals self(mask)
        bit for bit.

        One table holds the sums of the low antennas; each block adds its
        set high antennas to them one at a time, in ascending order, so
        every sum adds its antennas in index order.  Buffers take about
        2 MiB whatever n is.
        """
        low_bits = min(self._n, _BLOCK_BITS)
        low = self._subset_sums(range(low_bits))
        low_sizes = coalitions.subset_sizes(low_bits)
        sums = np.empty_like(low)
        rho = np.empty(low.shape[1])
        rates = np.empty((2, low.shape[1]))
        values = np.empty(low.shape[1])
        for high in range(1 << (self._n - low_bits)):
            if high:
                src = low
                for member in coalitions.members(high):
                    np.add(src, self._coeffs[:, low_bits + member, None], out=sums)
                    src = sums
            else:
                np.copyto(sums, low)
            # rho by each mask's active count, the low part's plus high's; the
            # counts are in range, and "clip" spares take a buffered copy
            np.take(self._rho[high.bit_count():], low_sizes, out=rho, mode="clip")
            self._values(sums, rho, rates, values)
            if not high:
                values[0] = -np.inf
            yield high << low_bits, values

    def __call__(self, mask: int) -> float:
        v = self._memo.get(mask)
        if v is None:
            rb, re = self.link_rates(mask)
            v = rb - re
            self._memo[mask] = v
        return v


def _coeffs(channels):
    if isinstance(channels, ChannelVector):
        return channels.coefficients
    return channels
