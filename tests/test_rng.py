import copy
import gc
import pickle

import numpy as np
import pytest
from scipy import stats

from fishyvar.chains import Ar1Model
from fishyvar.couplings import ar1_kernel
from fishyvar.rng import RngStream, scalar_draws
from fishyvar.simulate import run_coupled


def _philox(key0: int, key1: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([key0, key1], dtype=np.uint64)))


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


def test_master_seed_outside_the_key_word_raises_instead_of_aliasing():
    top = 2**64 - 1
    for seed in (0, top):
        # valid seeds keep their streams: key words (stream_id, master_seed)
        key = np.array([3, seed], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).random(4)
        assert np.array_equal(RngStream(seed, 3).generator().random(4), expected)
    for seed in (top + 1, -1):
        with pytest.raises(ValueError, match="master_seed"):
            RngStream(seed)


_KEY_WORDS = (0, 1, 2**64 - 1)


@pytest.mark.parametrize("seed", _KEY_WORDS)
@pytest.mark.parametrize("stream_id", _KEY_WORDS)
def test_stream_keys_give_the_plain_philox_stream(seed, stream_id):
    # known answers: the key words (stream_id, master_seed) as numpy keys Philox
    stream = RngStream(seed, stream_id)
    key = np.array([stream_id, seed], dtype=np.uint64)
    np.testing.assert_array_equal(
        stream.generator().bit_generator.random_raw(8), np.random.Philox(key=key).random_raw(8)
    )
    rng = stream.generator()
    assert [rng.random() for _ in range(16)] == _philox(stream_id, seed).random(16).tolist()
    rng = stream.generator()
    normals = [rng.standard_normal() for _ in range(16)]
    assert normals == _philox(stream_id, seed).standard_normal(16).tolist()
    np.testing.assert_array_equal(
        stream.generator().integers(7, size=5), _philox(stream_id, seed).integers(7, size=5)
    )


# ---------------------------------------------------------------------------
# Block-served draws
# ---------------------------------------------------------------------------

def test_scalar_draws_of_one_kind_give_numpys_sequence():
    # far more values than the first four blocks (16 + 32 + 64 + 128) hold
    n = 2 * (16 + 32 + 64 + 128)
    for draw in ("standard_normal", "random"):
        rng = RngStream(21, 5).generator()
        served = [getattr(rng, draw)() for _ in range(n)]
        # a stream drawing one kind only serves numpy's own sequence
        assert served == getattr(_philox(5, 21), draw)(n).tolist()


def test_sized_draws_continue_past_the_buffered_block():
    rng = RngStream(21, 6).generator()
    plain = _philox(6, 21).random(16 + 5)
    assert rng.random() == plain[0]  # buffers the first block of 16
    np.testing.assert_array_equal(rng.random(5), plain[16:])
    assert rng.random() == plain[1]


def test_block_served_draws_keep_their_distributions():
    rng = RngStream(22).generator()
    normals, uniforms = [], []
    for _ in range(10**5):
        # interleaved, so both kinds refill their blocks in turn
        normals.append(rng.standard_normal())
        uniforms.append(rng.random())
    assert stats.kstest(normals, "norm").pvalue > 1e-3
    assert stats.kstest(uniforms, "uniform").pvalue > 1e-3
    assert len(set(normals)) == len(normals) and len(set(uniforms)) == len(uniforms)


def test_ar1_meeting_times_match_unbuffered_generators():
    kernel = ar1_kernel(Ar1Model(0.9))

    def taus(generators):
        return [
            run_coupled(kernel, 4.0 * rng.standard_normal(), 4.0 * rng.standard_normal(), 1, 0,
                        rng, keep_paths=False).meeting_time
            for rng in generators
        ]

    n = 3000
    plain = taus(_philox(i, 23) for i in range(n))
    served = taus(RngStream(24).child(i).generator() for i in range(n))
    assert stats.ks_2samp(plain, served).pvalue > 1e-3


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: rng.standard_normal(65),
        lambda rng: rng.random(65),
        lambda rng: rng.random((2, 3)),
        lambda rng: rng.standard_normal(4, dtype=np.float32),
        lambda rng: rng.random(dtype=np.float32),
        lambda rng: rng.standard_normal(out=np.empty(5)),
        lambda rng: rng.random(3, out=np.empty(3)),
        lambda rng: rng.integers(7, size=5),
        lambda rng: rng.integers(7),
        lambda rng: rng.random(0),
    ],
)
def test_other_requests_pass_through_to_numpy(call):
    # on a fresh stream nothing is buffered yet, so numpy's own values come back
    served, plain = call(RngStream(25, 2).generator()), call(_philox(2, 25))
    assert type(served) is type(plain)
    assert np.shape(served) == np.shape(plain)
    assert np.asarray(served).dtype == np.asarray(plain).dtype
    np.testing.assert_array_equal(served, plain)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))])
def test_copies_continue_with_the_same_draws(clone):
    rng = RngStream(26).generator()
    rng.standard_normal(), [rng.random() for _ in range(5)]  # part-used blocks of both kinds
    twin = clone(rng)
    assert type(twin) is type(rng)

    def rest(g):
        return [g.random() for _ in range(50)] + g.standard_normal(70).tolist() + [g.integers(9)]

    assert rest(twin) == rest(rng)


def test_scalar_draws_of_a_stream_continue_its_blocks():
    rng, twin = RngStream(28, 1).generator(), RngStream(28, 1).generator()
    draws = scalar_draws(rng)
    normal, uniform = draws.next_normal, draws.next_uniform
    got = [normal() for _ in range(40)] + [rng.random()] + [uniform() for _ in range(20)]
    got += [rng.standard_normal()]
    want = [twin.standard_normal() for _ in range(40)] + [twin.random() for _ in range(21)]
    assert got == want + [twin.standard_normal()]
    assert (scalar_draws(rng).next_normal, scalar_draws(rng).next_uniform) == (normal, uniform)


def test_a_stream_builds_normal_blocks_only_when_it_draws_normals():
    rng = RngStream(28, 2).generator()
    [rng.random() for _ in range(20)]
    _, _, (normals, uniforms) = rng.__reduce__()
    assert normals == ([], 16) and len(uniforms[0]) == 16 + 32 - 20 and uniforms[1] == 64
    # the first normal block comes after the two uniform blocks in the stream
    twin = RngStream(28, 2).generator()
    twin.random(16 + 32)
    assert rng.standard_normal() == twin.standard_normal()


def test_scalar_draws_of_other_objects_look_methods_up_when_read():
    class OnlyUniform:
        def random(self):
            return 0.25

    draws = scalar_draws(OnlyUniform())
    assert draws.next_uniform() == 0.25
    with pytest.raises(AttributeError):
        draws.next_normal
    plain = np.random.default_rng(3)
    assert scalar_draws(plain).next_normal() == np.random.default_rng(3).standard_normal()


def test_pickled_state_holds_the_buffered_values_not_iterators():
    rng = RngStream(29).generator()
    rng.random(), rng.standard_normal(), rng.standard_normal()
    cls, args, state = rng.__reduce__()
    (normals, normal_size), (uniforms, uniform_size) = state
    assert (len(normals), len(uniforms), normal_size, uniform_size) == (14, 15, 32, 32)
    assert all(type(v) is float for v in normals + uniforms)
    twin = cls(*copy.deepcopy(args))  # its own bit generator, at the same state
    twin.__setstate__(state)
    assert [twin.random() for _ in range(40)] == [rng.random() for _ in range(40)]


def test_stream_generators_are_freed_without_the_cycle_collector():
    kernel = ar1_kernel(Ar1Model(0.9))
    gc.collect()
    gc.disable()
    try:
        for i in range(30):
            rng = RngStream(30, i).generator()
            draws = scalar_draws(rng)
            normal, uniform = draws.next_normal, draws.next_uniform
            [normal() for _ in range(40)], [uniform() for _ in range(100)]
            rng.standard_normal(), rng.random(3), rng.integers(5)
            run_coupled(kernel, 4.0, -4.0, 2, 20, rng)
            copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))
            del rng, draws, normal, uniform
        assert gc.collect() == 0
    finally:
        gc.enable()
