import logging
import math
import random
import zlib

import numpy as np
import pytest

from boscids.bosc import Config, FrozenDbError
from boscids.trace_ingest import RawTrace, count_table
from boscids.trainer import (
    ModelFormatError,
    cosine_similarity,
    load_model,
    save_model,
    train,
)
from helpers import insert_counts, reference_cosine

logging.getLogger("boscids").setLevel(logging.ERROR)


def cv(values):
    return np.array(values, dtype=np.int64)


def test_cosine_identical_vectors():
    assert cosine_similarity(cv([3]), cv([3])) == 1.0


def test_cosine_zero_extension_hand_case():
    # [1,1] against [2] zero-extended to [2,0]: (1*2) / (sqrt(2)*2) = 1/sqrt(2)
    got = cosine_similarity(cv([1, 1]), cv([2]))
    assert abs(got - 1.0 / math.sqrt(2.0)) < 1e-9


def test_cosine_both_zero_convention():
    assert cosine_similarity(cv([0, 0]), cv([0])) == 1.0


def test_cosine_one_zero_convention():
    assert cosine_similarity(cv([1, 0]), cv([0])) == 0.0


def test_cosine_rejects_longer_earlier_vector():
    with pytest.raises(ValueError):
        cosine_similarity(cv([1]), cv([1, 2]))


def test_cosine_matches_reference_after_extension():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        m = rng.randint(1, n)
        a = [rng.randint(0, 9) for _ in range(n)]
        b = [rng.randint(0, 9) for _ in range(m)]
        padded = b + [0] * (n - m)
        assert abs(cosine_similarity(cv(a), cv(b)) - reference_cosine(a, padded)) < 1e-9


def test_cosine_scale_invariance():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 10)
        a = np.array([rng.randint(0, 20) for _ in range(n)], dtype=np.float64)
        b = np.array([rng.randint(0, 20) for _ in range(n)], dtype=np.float64)
        alpha = rng.uniform(0.1, 50.0)
        assert abs(cosine_similarity(alpha * a, b) - cosine_similarity(a, b)) < 1e-9


def ab_trace(epochs=4):
    return RawTrace.from_names(["a", "b"] * (2 * epochs))


def test_train_ab_micro_fixture_stops_after_epoch_3():
    cfg = Config(window_size=2, epoch_size=4, train_threshold=0.99)
    model = train(ab_trace(4), config=cfg)
    assert model.converged
    assert model.epochs_trained == 3
    assert len(model.db) == 1
    assert model.history == [1.0, 1.0]  # epochs 2 and 3


def test_train_history_length_invariant():
    cfg = Config(window_size=2, epoch_size=4, train_threshold=0.99)
    model = train(ab_trace(5), config=cfg)
    assert len(model.history) == model.epochs_trained - 1


def test_train_needs_two_full_epochs():
    cfg = Config(window_size=2, epoch_size=4)
    with pytest.raises(ValueError, match="2 full epochs"):
        train(RawTrace.from_names(["a", "b", "a", "b", "a"]), config=cfg)


def non_converged_fixture():
    # threshold 1.0 with a noisy source never sees two exact-1.0 epochs
    rng = random.Random(8)
    names = [rng.choice("abcdefgh") for _ in range(400)]
    return train(RawTrace.from_names(names), config=Config(window_size=3, epoch_size=50, train_threshold=1.0))


def test_train_non_convergence_flagged_not_fatal():
    model = non_converged_fixture()
    assert not model.converged
    assert model.epochs_trained == 8
    with pytest.raises(FrozenDbError):
        insert_counts(model.db, [(1, 1, 1, 0, 0, 0, 0, 0, 0)])


def test_train_history_values_in_unit_interval():
    rng = random.Random(9)
    names = [rng.choice("abcd") for _ in range(600)]
    model = train(RawTrace.from_names(names), config=Config(window_size=3, epoch_size=60, train_threshold=1.0))
    assert all(0.0 <= cos <= 1.0 for cos in model.history)


def test_train_db_is_frozen_and_counts_add_up():
    cfg = Config(window_size=2, epoch_size=4, train_threshold=0.99)
    model = train(ab_trace(4), config=cfg)
    windows_per_epoch = 4 - 2 + 1
    assert sum(freq for _, freq in model.db.items()) == windows_per_epoch * model.epochs_trained


def test_train_rejects_int_stream():
    cfg = Config(window_size=2, epoch_size=4)
    slots = np.array([0, 1] * 8, dtype=np.int64)
    for counts in (None, count_table(["a", "b"] * 8)):
        with pytest.raises(ValueError, match="invalid syscall name"):
            train(slots, counts=counts, config=cfg)


def test_train_discards_trailing_partial_epoch():
    cfg = Config(window_size=2, epoch_size=4, train_threshold=0.99)
    full = train(ab_trace(4), config=cfg)
    ragged = train(RawTrace.from_names(["a", "b"] * 8 + ["a"]), config=cfg)
    assert dict(full.db.items()) == dict(ragged.db.items())


def test_raising_threshold_never_trains_fewer_epochs():
    rng = random.Random(10)
    names = []
    # mildly drifting source so mid thresholds converge at different times
    for block in range(20):
        vocab = "abcdef"[: 3 + (block % 3)]
        names.extend(rng.choice(vocab) for _ in range(100))
    trace = RawTrace.from_names(names)
    prev_epochs = 0
    for tt in (0.90, 0.95, 0.99, 0.995):
        model = train(trace, config=Config(window_size=4, epoch_size=100, train_threshold=tt))
        assert model.epochs_trained >= prev_epochs
        prev_epochs = model.epochs_trained


def model_fixture():
    cfg = Config(window_size=2, epoch_size=4, train_threshold=0.99)
    return train(ab_trace(4), config=cfg)


def test_save_load_round_trip_identity(tmp_path):
    model = model_fixture()
    p1 = tmp_path / "m1.model"
    p2 = tmp_path / "m2.model"
    save_model(model, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.index.slots == model.index.slots
    assert list(loaded.db.items()) == list(model.db.items())  # same order too
    assert loaded.config == model.config
    assert loaded.epochs_trained == model.epochs_trained
    assert loaded.converged == model.converged
    assert [round(cos, 9) for cos in loaded.history] == [round(cos, 9) for cos in model.history]


@pytest.mark.parametrize("fixture, converged", [(model_fixture, True), (non_converged_fixture, False)])
def test_loaded_model_keeps_stopping_state(tmp_path, fixture, converged):
    model = fixture()
    p = tmp_path / "m.model"
    save_model(model, p)
    loaded = load_model(p)
    assert model.converged is converged
    assert loaded.converged == model.converged
    assert loaded.epochs_trained == model.epochs_trained == len(model.history) + 1


def test_save_is_deterministic(tmp_path):
    model = model_fixture()
    p1 = tmp_path / "a.model"
    p2 = tmp_path / "b.model"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_empty_file_is_version_error(tmp_path):
    p = tmp_path / "empty.model"
    p.write_bytes(b"")
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert exc.value.section == "version"


def test_load_rejects_wrong_version(tmp_path):
    p = tmp_path / "v2.model"
    p.write_bytes(b"boscids-model v2\n")
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert exc.value.section == "version"


def test_load_detects_tampering(tmp_path):
    model = model_fixture()
    p = tmp_path / "m.model"
    save_model(model, p)
    tampered = p.read_bytes().replace(b"entries=1", b"entries=9")
    p.write_bytes(tampered)
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert exc.value.section == "checksum"


def test_load_detects_truncation(tmp_path):
    model = model_fixture()
    p = tmp_path / "m.model"
    save_model(model, p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) // 2])
    with pytest.raises(ModelFormatError):
        load_model(p)


def reseal(path, old: bytes, new: bytes):
    """Edit a saved model's body and recompute its crc32 trailer."""
    data = path.read_bytes()
    body = data[: data.rfind(b"crc32=")].replace(old, new)
    path.write_bytes(body + f"crc32={zlib.crc32(body) & 0xFFFFFFFF:08x}\n".encode("ascii"))


def test_load_rejects_entry_not_summing_to_window(tmp_path):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)  # w=2, one entry "1 1 0 : <freq>"
    reseal(p, b"\n1 1 0 : ", b"\n5 0 0 : ")
    with pytest.raises(ModelFormatError, match="sum") as exc:
        load_model(p)
    assert exc.value.section == "entries"


def test_load_rejects_duplicate_entry(tmp_path):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)
    reseal(p, b"entries=1\n1 1 0 : ", b"entries=2\n1 1 0 : 1\n1 1 0 : ")
    with pytest.raises(ModelFormatError, match="entry 1: duplicate") as exc:
        load_model(p)
    assert exc.value.section == "entries"


def test_load_rejects_inflated_entry_count(tmp_path):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)
    reseal(p, b"entries=1\n", b"entries=999999999999\n")
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert exc.value.section == "entries"


def test_load_rejects_params_that_fail_config(tmp_path):
    p = tmp_path / "m.model"
    for old, new, needle in ((b"\nw=2 ", b"\nw=0 ", "window_size"),
                             (b" Tt=0.99 ", b" Tt=1.5 ", "train_threshold")):
        save_model(model_fixture(), p)
        reseal(p, old, new)
        with pytest.raises(ModelFormatError, match=needle) as exc:
            load_model(p)
        assert exc.value.section == "params"


def test_load_rejects_history_record_with_wrong_epoch(tmp_path):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)  # history "2 1.000000000", "3 1.000000000"
    reseal(p, b"\n3 1.000000000\n", b"\n4 1.000000000\n")
    with pytest.raises(ModelFormatError, match="record 1: epoch 4, expected 3") as exc:
        load_model(p)
    assert exc.value.section == "history"


def test_load_rejects_non_ascii_body(tmp_path):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)  # slots "a", "b"
    reseal(p, b"\na\nb\n", "\n\u00e4\nb\n".encode("utf-8"))
    with pytest.raises(ModelFormatError, match="non-ASCII") as exc:
        load_model(p)
    assert exc.value.section == "structure"
