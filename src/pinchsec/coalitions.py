"""Coalitions of active antennas as integer bit masks.

Bit n set means antenna n (0-based) is active.  Masks index directly into
value tables of length 2**N, which keeps subset enumeration cheap.
"""

from functools import lru_cache

import numpy as np

# the one cap on subset enumeration: a payoff table over a coalition's
# subsets holds 2^N entries, and the exhaustive search visits 2^N masks
ENUMERATION_CAP = 24


class CapacityError(ValueError):
    """Raised when work past ENUMERATION_CAP is asked for."""


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


@lru_cache(maxsize=None)
def subset_sizes(n_members: int) -> np.ndarray:
    """Bit count of every index 0 .. 2**n_members - 1, as a read-only array.

    Index i of a subset table over n_members members is the subset whose
    members are the set bits of i, so this is the size of every subset.
    Cached: the package asks it for at most one block (13 members, 64 KiB).
    """
    out = np.zeros(1 << n_members, dtype=np.intp)
    for k in range(n_members):
        np.add(out[:1 << k], 1, out=out[1 << k:2 << k])
    out.flags.writeable = False
    return out
