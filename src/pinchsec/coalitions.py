"""Coalitions of active antennas as integer bit masks.

Bit n set means antenna n (0-based) is active.  Masks index directly into
value tables of length 2**N, which keeps subset enumeration cheap.
"""

from functools import lru_cache

import numpy as np

# subset_sizes keeps its arrays up to this member count (64 KiB at 16)
_CACHED_SIZES = 16


def from_members(members) -> int:
    """Bit mask with the given antenna indices set."""
    mask = 0
    for n in members:
        if n < 0:
            raise ValueError("antenna index must be nonnegative")
        mask |= 1 << n
    return mask


def members(mask: int) -> tuple[int, ...]:
    """Sorted antenna indices present in a mask."""
    if mask < 0:
        raise ValueError("mask must be nonnegative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def full_mask(n_antennas: int) -> int:
    return (1 << n_antennas) - 1


def validate(mask: int, n_antennas: int) -> None:
    """Reject masks referencing antennas outside 0..n_antennas-1."""
    if mask < 0 or mask >= (1 << n_antennas):
        raise ValueError(f"coalition mask {mask} out of range for {n_antennas} antennas")


def _subset_sizes(n_members: int) -> np.ndarray:
    sizes = np.zeros(1 << n_members, dtype=np.uint8)
    for i in range(n_members):
        sizes[1 << i:2 << i] = sizes[:1 << i] + 1
    sizes.flags.writeable = False
    return sizes


_cached_subset_sizes = lru_cache(maxsize=None)(_subset_sizes)


def subset_sizes(n_members: int) -> np.ndarray:
    """Bit count of every index 0 .. 2**n_members - 1, as a read-only array.

    Index i of a subset table over n_members members is the subset whose
    members are the set bits of i, so this is the size of every subset.
    """
    if n_members <= _CACHED_SIZES:
        return _cached_subset_sizes(n_members)
    return _subset_sizes(n_members)
