import gc
import itertools
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boscids.bosc import (
    CHUNK,
    Bags,
    BehaviorDb,
    Config,
    FrozenDbError,
    MAX_EPOCH_SLOTS,
    MAX_WINDOW,
    bag_of,
    epoch_windows,
    unique_window_bags,
)
from boscids.trace_ingest import RawTrace, epochs_of, read_trace_chunks
from helpers import (
    DictDb,
    brute_force_bag,
    brute_force_db,
    brute_force_epoch_bags,
    epoch_bag_matrix,
    insert_counts,
    reference_keys,
    unique_bags,
)

_TRACE = Path(__file__).parent / "fixtures" / "mixed.expected.trace"


def test_config_defaults():
    cfg = Config()
    assert cfg.window_size == 10
    assert cfg.epoch_size == 5000
    assert cfg.train_threshold == 0.99
    assert cfg.detect_threshold_fraction == 0.10


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window_size": 0},
        {"epoch_size": 5, "window_size": 10},
        {"train_threshold": 0.0},
        {"train_threshold": 1.5},
        {"detect_threshold_fraction": 0.0},
        {"detect_threshold_fraction": 1.2},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        Config(**kwargs)


def test_config_bounds_the_window_slots_of_an_epoch():
    # (S - w + 1) x w slots: exactly 2**27 at w = 2**13, S = 2**14 + 2**13 - 1.
    Config(window_size=2**13, epoch_size=2**14 + 2**13 - 1)
    with pytest.raises(ValueError, match="^epoch_size 24576 at window_size 8192 gives 134225920 "
                                         f"window slots an epoch, more than {MAX_EPOCH_SLOTS}$"):
        Config(window_size=2**13, epoch_size=2**14 + 2**13)


def test_epoch_windows_count_at_default_epoch_size():
    windows = list(epoch_windows(list(range(5000)) * 1, 10))
    # dummy slots; only the count matters here
    assert len(windows) == 4991


def test_epoch_windows_single_window():
    assert list(epoch_windows([0, 1, 0, 1], 4)) == [[0, 1, 0, 1]]


def test_epoch_windows_too_short_is_empty():
    assert list(epoch_windows([0, 1], 4)) == []


def test_epoch_windows_stride_one():
    wins = list(epoch_windows([3, 1, 4, 1, 5], 2))
    assert wins == [[3, 1], [1, 4], [4, 1], [1, 5]]


def test_bag_of_sample_vector():
    window = [1, 3, 3, 8, 10, 10, 10, 10, 16, 19]
    assert bag_of(window, 20) == (0, 1, 0, 2, 0, 0, 0, 0, 1, 0, 4, 0, 0, 0, 0, 0, 1, 0, 0, 1)


def test_bag_of_uniform_window():
    assert bag_of([0] * 10, 3) == (10, 0, 0)


def test_bag_of_direct_count():
    assert bag_of([0, 1, 0, 1], 2) == (2, 2)


def test_bag_of_rejects_out_of_range_slot():
    with pytest.raises(ValueError):
        bag_of([0, 5], 3)


def test_bag_sums_to_window_size_randomized():
    rng = random.Random(1)
    for _ in range(500):
        n_s = rng.randint(1, 30)
        w = rng.choice([2, 6, 10])
        window = [rng.randrange(n_s) for _ in range(w)]
        assert sum(bag_of(window, n_s)) == w


def bags_in_order(db):
    return [bag for bag, _ in db.items()]


def test_db_insert_new_and_increment():
    db = BehaviorDb()
    assert insert_counts(db, [(1, 1, 0)]).tolist() == [1]
    assert len(db) == 1
    assert insert_counts(db, [(1, 1, 0)]).tolist() == [1]
    assert len(db) == 1
    assert dict(db.items()) == {(1, 1, 0): 2}


def test_db_insert_windows_of_abab():
    # trace a b a b, w=2, slots a=0,b=1: three windows, all the same bag
    db = BehaviorDb()
    epoch = [0, 1, 0, 1]
    insert_counts(db, [bag_of(window, 2) for window in epoch_windows(epoch, 2)])
    assert dict(db.items()) == {(1, 1): 3}


def test_db_contains():
    db = BehaviorDb()
    probe = Bags.from_counts([(1, 0)])
    assert db.positions(probe).tolist() == [-1]
    insert_counts(db, [(1, 0)])
    assert db.positions(probe).tolist() == [0]
    insert_counts(db, [(1, 0)])
    assert db.positions(probe).tolist() == [0]  # frequency does not affect membership


def test_db_insertion_order_is_first_insertion():
    db = BehaviorDb()
    insert_counts(db, [(0, 1)])
    insert_counts(db, [(1, 0)])
    insert_counts(db, [(0, 1)])
    assert bags_in_order(db) == [(0, 1), (1, 0)]
    # A key of NUL bytes only: every slot is the last one, whose complement
    # is 0, one byte a slot at n_s=3.
    nul = Bags.from_counts([[0, 0, 3]])
    assert nul.keys.tobytes() == bytes(3)
    db = BehaviorDb()
    insert_counts(db, [(1, 2, 0)])
    db.insert_many(nul, [2])
    insert_counts(db, [(0, 0, 3), (1, 2, 0)])
    assert db.positions(nul).tolist() == [1]
    assert list(db.items()) == [((1, 2, 0), 2), ((0, 0, 3), 3)]


def test_db_freeze_blocks_writes():
    db = BehaviorDb()
    insert_counts(db, [(1,)])
    db.freeze()
    with pytest.raises(FrozenDbError):
        insert_counts(db, [(1,)])
    with pytest.raises(FrozenDbError):
        db.insert_many([(2,)], [1])


def window_bags(epoch, w, n_s):
    return Bags.from_counts([bag_of(window, n_s) for window in epoch_windows(epoch, w)])


def test_db_diff_growth_from_empty():
    db = BehaviorDb()
    assert db.insert_many(Bags.from_counts([(1, 1)]), [3]).tolist() == [3]


def test_db_diff_componentwise():
    db = BehaviorDb()
    db.insert_many(Bags.from_counts([(1, 0)]), [3])
    change = db.insert_many(Bags.from_counts([(1, 0), (0, 1)]), [2, 1])
    assert change.tolist() == [2, 1]
    assert len(change) == 2


def test_db_diff_known_bags_only():
    # an epoch repeating only known bags: no zeros from new positions,
    # deltas sum to the number of windows processed
    rng = random.Random(7)
    epoch = [rng.randrange(3) for _ in range(100)]
    db = BehaviorDb()
    insert_counts(db, [bag_of(window, 3) for window in epoch_windows(epoch, 4)])
    change = db.insert_many(window_bags(epoch, 4, 3), [1] * 97)
    assert len(change) == len(db)
    assert int(change.sum()) == 97
    assert all(d > 0 for d in change.tolist())


def test_change_vector_sums_to_windows_per_epoch():
    rng = random.Random(3)
    db = BehaviorDb()
    w, n_s = 3, 5
    for _ in range(4):
        epoch = [rng.randrange(n_s) for _ in range(50)]
        change = db.insert_many(window_bags(epoch, w, n_s), [1] * (50 - w + 1))
        assert int(change.sum()) == 50 - w + 1


def test_change_vector_equals_frequency_difference():
    # bulk inserts with repeated bags: first-appearance order, and deltas
    # equal the per-bag frequency difference, zero-extended over new bags
    rng = random.Random(5)
    db = BehaviorDb()
    freq = {}
    for _ in range(6):
        epoch = [rng.randrange(4) for _ in range(30)]
        before = dict(freq)
        for bag in brute_force_epoch_bags(epoch, 3, 4):
            freq[bag] = freq.get(bag, 0) + 1
        change = db.insert_many(window_bags(epoch, 3, 4), [1] * 28)
        assert bags_in_order(db) == list(freq)
        assert change.tolist() == [f - before.get(b, 0) for b, f in freq.items()]


def test_db_rejects_bags_of_another_shape():
    db = BehaviorDb()
    insert_counts(db, [(1, 1, 0)])
    with pytest.raises(ValueError):
        insert_counts(db, [(1, 1)])  # other n_s
    with pytest.raises(ValueError):
        insert_counts(db, [(1, 2, 0)])  # other w
    assert db.positions(Bags.from_counts([(1, 1)])).tolist() == [-1]
    assert db.positions(Bags.from_counts([(3, 0, 0)])).tolist() == [-1]
    assert dict(db.items()) == {(1, 1, 0): 1}


@pytest.mark.parametrize("rows, mult", [([(1, 0), (0, 1)], [1, 2, 3]), ([(1, 0)], [-5]), ([(1, 0)], [0]),
                                        ([(1, 0)], np.array([2**64 - 1], dtype=np.uint64))],
                         ids=["too-many", "negative", "zero", "beyond-int64"])
def test_db_rejects_bad_multiplicities_and_stays_unchanged(rows, mult):
    empty, filled = BehaviorDb(), BehaviorDb()
    insert_counts(filled, [(0, 1)], [2])
    for db, before in ((empty, []), (filled, [((0, 1), 2)])):
        with pytest.raises(ValueError, match="multiplicities"):
            db.insert_many(Bags.from_counts(rows), mult)
        assert list(db.items()) == before
    insert_counts(empty, [(1, 1, 0)])  # the failed call fixed no n_s or w
    assert list(empty.items()) == [((1, 1, 0), 1)]


def test_db_total_frequency_equals_windows_processed():
    rng = random.Random(11)
    db = BehaviorDb()
    total_windows = 0
    for _ in range(5):
        epoch = [rng.randrange(4) for _ in range(60)]
        windows = [bag_of(window, 4) for window in epoch_windows(epoch, 6)]
        insert_counts(db, windows)
        total_windows += len(windows)
    assert sum(freq for _, freq in db.items()) == total_windows


@st.composite
def db_adds(draw):
    """(probe, adds): count-tuple bags over one n_s and w, and adds of them as
    (bags, multiplicities), whose bags may repeat and come in any order, as
    the loader's do; some adds hold only bags already added."""
    n_s, w = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    windows = draw(st.lists(st.lists(st.integers(0, n_s - 1), min_size=w, max_size=w), min_size=1, max_size=40))
    probe = [brute_force_bag(window, n_s) for window in windows]
    adds, added = [], []
    for _ in range(draw(st.integers(1, 24))):
        bags = draw(st.lists(st.sampled_from(added if added and draw(st.booleans()) else probe),
                             min_size=1, max_size=10))
        adds.append((bags, draw(st.lists(st.integers(1, 9), min_size=len(bags), max_size=len(bags)))))
        added += [bag for bag in bags if bag not in added]
    return probe, adds


def _many_adds():
    """All 330 bags of w=4 over n_s=8, a few at a time after a first 100: the
    side run crosses SIDE_SHARE of the main run many times, and the db
    outgrows one CHUNK."""
    bags = [brute_force_bag(c, 8) for c in itertools.combinations_with_replacement(range(8), 4)]
    random.Random(0).shuffle(bags)
    adds = [bags[:100] + bags[:10], *(bags[k : k + 7] + bags[k - 3 : k] for k in range(100, len(bags), 7)), bags[5::-1]]
    return bags, [(add, [i % 3 + 1] * len(add)) for i, add in enumerate(adds)]


@settings(max_examples=150, deadline=None)
@given(db_adds())
@example(_many_adds())
def test_db_equals_the_dict_oracle_after_every_add(case):
    probe, adds = case
    db, oracle = BehaviorDb(), DictDb()
    for bags, mult in adds:
        assert db.add(Bags.from_counts(bags), mult).tolist() == oracle.add(bags, mult)
        assert db.positions(Bags.from_counts(probe)).tolist() == oracle.positions(probe)
        assert list(db.items()) == oracle.items()
        assert [(r.tobytes(), f.tobytes()) for r, f in db.chunks()] == \
            [(r.tobytes(), f.tobytes()) for r, f in oracle.chunks(CHUNK)]
    db.freeze()
    assert db.positions(Bags.from_counts(probe)).tolist() == oracle.positions(probe)
    assert list(db.items()) == oracle.items()


def test_db_size_monotone_across_epochs():
    rng = random.Random(13)
    db = BehaviorDb()
    last = 0
    for _ in range(6):
        epoch = [rng.randrange(5) for _ in range(80)]
        insert_counts(db, [bag_of(window, 5) for window in epoch_windows(epoch, 4)])
        assert len(db) >= last
        last = len(db)


def test_epoch_bag_matrix_matches_pure_path():
    # the count-matrix oracle itself against window-by-window bags
    rng = random.Random(17)
    for _ in range(50):
        n_s = rng.randint(2, 25)
        w = rng.randint(1, 8)
        epoch = [rng.randrange(n_s) for _ in range(rng.randint(w, 200))]
        mat = epoch_bag_matrix(epoch, w, n_s)
        expected = brute_force_epoch_bags(epoch, w, n_s)
        assert [tuple(row) for row in mat.tolist()] == expected


def decoded(bags):
    return [tuple(row) for row in bags.counts().tolist()]


def test_unique_window_bags_matches_row_uniquing():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n_s = int(rng.integers(2, 40))
        w = int(rng.integers(1, 12))
        epoch = rng.integers(0, n_s, size=int(rng.integers(w, 300)))
        k1, c1 = unique_bags(epoch_bag_matrix(epoch, w, n_s))
        k2, c2 = unique_window_bags(epoch, w, n_s)
        assert k1 == decoded(k2)
        assert c1.tolist() == c2.tolist()


def test_unique_window_bags_wide_alphabet_fallback():
    # n_s**w far beyond int64: bag keys stay exact, same as row uniquing
    rng = np.random.default_rng(29)
    n_s, w = 5000, 8
    epoch = rng.integers(0, n_s, size=100)
    k1, c1 = unique_bags(epoch_bag_matrix(epoch, w, n_s))
    k2, c2 = unique_window_bags(epoch, w, n_s)
    assert k1 == decoded(k2) and c1.tolist() == c2.tolist()


def test_window_keys_at_the_top_of_the_uint32_range():
    # The largest alphabet keys cover: slots 0 and n_s-1 code as they do
    # through int64. Decoding these keys would allocate 2**32 counts a bag.
    n_s, w = 2**32 - 1, 3
    epoch = np.array([0, n_s - 1, n_s - 1, 0, 0, n_s - 1, n_s - 2, 0], dtype=np.int64)
    bags, mult = unique_window_bags(epoch, w, n_s)
    win = np.sort(np.lib.stride_tricks.sliding_window_view(epoch, w), axis=1)
    keys, counts = np.unique(reference_keys(win, n_s), return_counts=True)
    assert bags.keys.dtype == keys.dtype and bags.keys.tobytes() == keys.tobytes()
    assert mult.tolist() == counts.tolist()
    with pytest.raises(ValueError, match="slot out of range"):
        unique_window_bags(np.array([0, n_s - 1, n_s]), w, n_s)


@pytest.mark.parametrize("m", [16, 64])
def test_from_counts_holds_only_its_keys_at_the_window_bound(m):
    # A model chunk of m rows at the largest window: keys of 4*w bytes a row
    # are coded in the one array they are built in, with no copy beside it.
    rows = np.zeros((m, 3), dtype=np.int64)
    rows[:, 0] = MAX_WINDOW - np.arange(m)
    rows[:, 1] = np.arange(m)
    gc.collect()
    tracemalloc.start()
    try:
        bags = Bags.from_counts(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bags.w == MAX_WINDOW and len(bags) == m
    assert peak <= bags.keys.nbytes + 2**20, peak


@st.composite
def slot_streams(draw):
    n_s = draw(st.integers(1, 400))
    w = draw(st.integers(1, 20))
    stream = draw(st.lists(st.integers(0, n_s - 1), max_size=w + 120))
    return n_s, w, stream


def _stream(seed, n_s, size):
    return np.random.default_rng(seed).integers(0, n_s, size=size).tolist()


@settings(max_examples=60, deadline=None)
@given(slot_streams())
@example((90, 20, _stream(1, 90, 300)))
@example((5000, 8, _stream(2, 5000, 150)))
def test_bag_keys_decode_to_brute_force_bags(case):
    # keys come out in ascending count-vector order, the v1 insertion order
    n_s, w, stream = case
    bags, mult = unique_window_bags(stream, w, n_s)
    expected = sorted(Counter(brute_force_epoch_bags(stream, w, n_s)).items())
    assert list(zip(decoded(bags), mult.tolist())) == expected
    if expected:
        assert Bags.from_counts([bag for bag, _ in expected]).keys.tobytes() == bags.keys.tobytes()


@st.composite
def streams_at_a_width_bound(draw):
    # Alphabets on either side of each key width's top (1 byte a slot up to
    # n_s=256, 2 up to 65,536, then 4), with slots near both ends of the range.
    n_s = draw(st.sampled_from([255, 256, 257, 65_535, 65_536, 65_537]))
    w = draw(st.integers(1, 6))
    slot = st.one_of(st.sampled_from([0, 1, 255, 256, n_s - 2, n_s - 1]).filter(lambda s: s < n_s),
                     st.integers(0, n_s - 1))
    return n_s, w, draw(st.lists(slot, min_size=w, max_size=w + 24))


@settings(max_examples=60, deadline=None)
@given(streams_at_a_width_bound())
def test_bag_keys_at_each_width_bound_equal_brute_force_bags(case):
    n_s, w, stream = case
    bags, mult = unique_window_bags(stream, w, n_s)
    expected = sorted(Counter(brute_force_epoch_bags(stream, w, n_s)).items())
    got = decoded(bags)
    assert list(zip(got, mult.tolist())) == expected
    # Ascending key bytes are ascending count vectors, both strictly.
    key_bytes = [k.tobytes() for k in bags.keys]
    assert key_bytes == sorted(set(key_bytes)) and got == sorted(set(got))
    win = np.sort(np.lib.stride_tricks.sliding_window_view(np.array(stream), w), axis=1)
    assert bags.keys.tobytes() == np.unique(reference_keys(win, n_s)).tobytes()
    assert bags.w == w and Bags.from_counts(bags.counts()).keys.tobytes() == bags.keys.tobytes()


def test_incremental_db_equals_brute_force_recount():
    rng = random.Random(31)
    for _ in range(10):
        n_s = rng.randint(2, 12)
        w = rng.choice([2, 4, 6])
        S = rng.randint(w, 80)
        stream = [rng.randrange(n_s) for _ in range(rng.randint(2 * S, 600))]
        db = BehaviorDb()
        for e in range(len(stream) // S):
            epoch = stream[e * S : (e + 1) * S]
            bags, mult = unique_window_bags(epoch, w, n_s)
            db.insert_many(bags, mult)
        assert dict(db.items()) == brute_force_db(stream, S, w, n_s)


@pytest.mark.parametrize("build, message", [
    (lambda: Bags.from_counts([]), "bags must be a non-empty sequence of equal-length count vectors"),
    (lambda: Bags.from_counts(np.zeros((0, 3))), "bags must be a non-empty sequence of equal-length count vectors"),
    (lambda: Bags.from_counts([[2, -1]]), "bag counts must be non-negative and sum to the same window size"),
    (lambda: Bags.from_counts([[1, 0], [1, 1]]), "bag counts must be non-negative and sum to the same window size"),
    (lambda: Bags.from_counts([[0, 0]]), "bag counts must be non-negative and sum to the same window size"),
    (lambda: list(epoch_windows([1, 2], 0)), "window size must be a positive integer"),
    (lambda: unique_window_bags([1, 2], 0, 3), "window size must be a positive integer"),
    (lambda: unique_window_bags([1, 2], -1, 3), "window size must be a positive integer"),
    # A chunk of calls below one, however the calls come.
    (lambda: list(read_trace_chunks(_TRACE, 0)), "size must be a positive integer, got 0"),
    (lambda: list(read_trace_chunks(_TRACE, -1)), "size must be a positive integer, got -1"),
    (lambda: list(epochs_of(["read", "write"], 0)), "size must be a positive integer, got 0"),
    (lambda: list(epochs_of(["read", "write"], -3)), "size must be a positive integer, got -3"),
    (lambda: list(epochs_of(RawTrace.from_names(["read"]), 0)), "size must be a positive integer, got 0"),
    (lambda: list(epochs_of(RawTrace.from_names(["read"]).split(1), 0)), "size must be a positive integer, got 0"),
    (lambda: list(RawTrace.from_names(["read"]).split(0)), "size must be a positive integer, got 0"),
    (lambda: list(RawTrace.from_names(["read"]).split(-1)), "size must be a positive integer, got -1"),
])
def test_bad_bags_and_windows_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("build, name", [
    (lambda: unique_window_bags([0.5, 1.7, 1.2], 2, 3), "slots"),
    (lambda: unique_window_bags([False, True, True], 2, 3), "slots"),
    (lambda: unique_window_bags(np.array([0, 1, 2], dtype=object), 2, 3), "slots"),
    (lambda: Bags.from_counts([[1.5, 0.5]]), "rows"),
    (lambda: Bags.from_counts([[True, False]]), "rows"),
    (lambda: Bags.from_counts([["1", "0"]]), "rows"),
    (lambda: insert_counts(BehaviorDb(), [(1, 0)], [1.5]), "multiplicities"),
    (lambda: insert_counts(BehaviorDb(), [(1, 0)], [True]), "multiplicities"),
], ids=["float-slots", "bool-slots", "object-slots", "float-rows", "bool-rows", "str-rows",
        "float-multiplicity", "bool-multiplicity"])
def test_non_integer_values_are_refused_not_truncated(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be integers, got "):
        build()


def test_empty_slots_and_a_refused_add_leave_things_as_they_were():
    bags, mult = unique_window_bags([], 2, 3)
    assert (len(bags), mult.tolist()) == (0, [])
    db = BehaviorDb()
    insert_counts(db, [(1, 0)], [2])
    with pytest.raises(ValueError, match="^multiplicities must be integers"):
        db.add(Bags.from_counts([(1, 0), (0, 1)]), [1.5, 2.0])
    assert list(db.items()) == [((1, 0), 2)]
