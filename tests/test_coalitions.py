import pytest

from pinchsec import coalitions
from helpers import from_members, validate


def test_from_members_roundtrip():
    assert from_members([]) == 0
    assert from_members([0]) == 1
    assert from_members([1, 3]) == 0b1010
    assert from_members((3, 1)) == 0b1010
    assert coalitions.members(0b1010) == (1, 3)
    assert coalitions.members(0) == ()


def test_from_members_rejects_negative():
    with pytest.raises(ValueError):
        from_members([2, -1])


def test_full_mask():
    assert coalitions.full_mask(1) == 1
    assert coalitions.full_mask(4) == 0b1111
    assert coalitions.full_mask(20) == (1 << 20) - 1


def test_validate():
    validate(0b101, 3)
    with pytest.raises(ValueError):
        validate(-1, 3)
    with pytest.raises(ValueError):
        validate(0b1000, 3)


def test_members_size_agree_on_random_masks():
    import random
    rng = random.Random(0)
    for _ in range(100):
        mask = rng.getrandbits(16)
        ms = coalitions.members(mask)
        assert from_members(ms) == mask
        assert mask.bit_count() == len(ms)
        assert list(ms) == sorted(ms)
