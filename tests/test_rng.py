import numpy as np
import pytest

from fishyvar.rng import RngStream


def test_same_key_replays_identical_sequence():
    a = RngStream(123, 7).generator().standard_normal(100)
    b = RngStream(123, 7).generator().standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_stream_ids_are_independent():
    a = RngStream(123, 0).generator().standard_normal(200_000)
    b = RngStream(123, 1).generator().standard_normal(200_000)
    assert not np.array_equal(a[:100], b[:100])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(a.size)


def test_children_are_distinct_and_deterministic():
    base = RngStream(5, 3)
    kids = base.children(50)
    assert len({k.stream_id for k in kids}) == 50
    assert kids[7] == base.child(7)
    assert all(k.master_seed == 5 for k in kids)


def test_sibling_subtrees_do_not_collide():
    base = RngStream(0)
    left = base.child(0).children(100)
    right = base.child(1).children(100)
    assert {k.stream_id for k in left}.isdisjoint({k.stream_id for k in right})


def test_child_index_overflow_raises_at_branch_width():
    base = RngStream(4, 9)
    assert base.child(2**20 - 1).stream_id == 9 * 2**20 + 2**20
    with pytest.raises(ValueError):
        base.child(2**20)
    with pytest.raises(ValueError):
        base.children(2**20 + 1)


def test_stream_id_beyond_64_bits_raises_instead_of_aliasing():
    top = RngStream(0, 2**64 - 1)
    assert not np.array_equal(top.generator().random(4), RngStream(0, 0).generator().random(4))
    with pytest.raises(ValueError):
        RngStream(0, 2**64).generator()
    # one level below a parent whose last children straddle the 64-bit limit
    parent = RngStream(0, 2**44 - 1)
    assert parent.child(2**20 - 2) == top
    with pytest.raises(ValueError):
        parent.child(2**20 - 1).generator()


def test_negative_ids_rejected():
    with pytest.raises(ValueError):
        RngStream(1, -1)
    with pytest.raises(ValueError):
        RngStream(1).child(-2)
