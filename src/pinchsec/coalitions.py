"""Coalitions of active antennas as integer bit masks.

Bit n set means antenna n (0-based) is active.  Masks index directly into
value tables of length 2**N, which keeps subset enumeration cheap.
"""

from functools import lru_cache, wraps

import numpy as np

# the one cap on subset enumeration: a payoff table over a coalition's
# subsets holds 2^N entries, and the exhaustive search visits 2^N masks
ENUMERATION_CAP = 24

# subset_sizes and bit_reversal keep their arrays up to this member count
# (64 KiB and 512 KiB at 16)
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


def _doubling(n_members: int, dtype, step) -> np.ndarray:
    """Read-only array over 0 .. 2**n_members - 1 with entry i + 2**k equal
    to entry i plus step(k) for every i below 2**k."""
    out = np.zeros(1 << n_members, dtype=dtype)
    for k in range(n_members):
        out[1 << k:2 << k] = out[:1 << k] + step(k)
    out.flags.writeable = False
    return out


def _cache_small(build):
    """Keep build(n) for n up to _CACHED_SIZES; build larger arrays afresh."""
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def lookup(n_members: int) -> np.ndarray:
        return cached(n_members) if n_members <= _CACHED_SIZES else build(n_members)
    return lookup


@_cache_small
def subset_sizes(n_members: int) -> np.ndarray:
    """Bit count of every index 0 .. 2**n_members - 1, as a read-only array.

    Index i of a subset table over n_members members is the subset whose
    members are the set bits of i, so this is the size of every subset.
    """
    return _doubling(n_members, np.uint8, lambda k: 1)


@_cache_small
def bit_reversal(n_members: int) -> np.ndarray:
    """Every index 0 .. 2**n_members - 1 with its n_members bits reversed.

    Taking a subset table through it swaps the member order its bits stand
    for, highest first against lowest first; reversal is its own inverse.
    """
    return _doubling(n_members, np.intp, lambda k: 1 << (n_members - 1 - k))
