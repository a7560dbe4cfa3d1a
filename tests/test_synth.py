import logging
from dataclasses import replace

import numpy as np
import pytest

from boscids import detector, trainer
from boscids.bosc import Config
from boscids.synth import (
    NOVEL_SYSCALLS,
    InjectionSpec,
    SourceSpec,
    gen_anomalous,
    gen_normal,
    make_source,
)
from boscids.trace_ingest import count_table
from helpers import call_names, counter_table_entries, first_uniforms, trace_digest

logging.getLogger("boscids").setLevel(logging.ERROR)

# Known-answer pin for the PCG64 uniform stream the generator is built on.
PCG64_SEED42_UNIFORMS = [
    0.7739560485559633,
    0.4388784397520523,
    0.8585979199113825,
    0.6973680290593639,
]

# sha256 of the seed-42 default-source trace, pinned when first generated.
SEED42_100K_DIGEST = "27dbcc8bf33d8c2cd6c5cbed7be0ead7445e86ea7ff8129f2cb2e96e7d79c7ae"


def test_rng_known_answer():
    got = first_uniforms(42, 4)
    assert got == pytest.approx(PCG64_SEED42_UNIFORMS, abs=0.0)


def test_single_name_alphabet_repeats():
    spec = SourceSpec(("read",), np.array([[1.0]]), 0.0, 5)
    trace = gen_normal(spec, 20)
    assert call_names(trace) == ["read"] * 20


def test_pinned_fixture_checksum():
    spec = make_source(n_names=64, zipf_s=1.2, seed=42)
    trace = gen_normal(spec, 100_000)
    assert trace_digest(trace) == SEED42_100K_DIGEST


def test_different_seeds_differ():
    spec_a = make_source(seed=42)
    spec_b = make_source(seed=43)
    a = gen_normal(spec_a, 5000)
    b = gen_normal(spec_b, 5000)
    assert call_names(a) != call_names(b)


def test_generation_is_deterministic():
    spec = make_source(seed=12)
    assert call_names(gen_normal(spec, 3000)) == call_names(gen_normal(spec, 3000))


def test_source_spec_validates_rows():
    bad = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValueError, match="sum to 1"):
        SourceSpec(("a", "b"), bad, 1.0, 0)


def test_source_spec_validates_names():
    with pytest.raises(ValueError, match="invalid syscall name"):
        SourceSpec(("not a name",), np.array([[1.0]]), 1.0, 0)


def test_make_source_rows_are_stochastic():
    spec = make_source(n_names=17, zipf_s=0.8, seed=3)
    sums = spec.transition.sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_intensity_zero_rejected():
    with pytest.raises(ValueError, match="intensity"):
        InjectionSpec(frozenset({1}), "novel_names", 0.0)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        InjectionSpec(frozenset({1}), "flood", 0.5)


def test_labels_mark_exactly_target_epochs():
    spec = make_source(n_names=8, seed=9)
    inj = InjectionSpec(frozenset({3}), "novel_names", 1.0)
    _, labels = gen_anomalous(spec, 5 * 100, inj, 100)
    assert labels == ["normal", "normal", "normal", "malicious", "normal"]


def test_target_epoch_out_of_bounds():
    spec = make_source(n_names=8, seed=9)
    inj = InjectionSpec(frozenset({7}), "novel_names", 0.5)
    with pytest.raises(ValueError, match="outside trace"):
        gen_anomalous(spec, 500, inj, 100)


def test_total_calls_must_fill_epochs():
    spec = make_source(n_names=8, seed=9)
    inj = InjectionSpec(frozenset({0}), "novel_names", 0.5)
    with pytest.raises(ValueError, match="multiple of epoch_size"):
        gen_anomalous(spec, 150, inj, 100)


@pytest.mark.parametrize("mode", ["novel_names", "shuffled_transitions", "burst_repeat"])
def test_untargeted_epochs_match_gen_normal(mode):
    spec = make_source(n_names=16, seed=77)
    S = 200
    inj = InjectionSpec(frozenset({1, 3}), mode, 0.5)
    corrupted, labels = gen_anomalous(spec, 5 * S, inj, S)
    base = gen_normal(spec, 5 * S)
    for e in range(5):
        block_equal = call_names(corrupted)[e * S : (e + 1) * S] == call_names(base)[e * S : (e + 1) * S]
        if labels[e] == "normal":
            assert block_equal
        else:
            assert not block_equal


def test_novel_names_stay_outside_alphabet():
    # the second alphabet holds every attack-flavored name and a fallback one
    crowded = ("read", "novel_0") + NOVEL_SYSCALLS
    n = len(crowded)
    for spec in (make_source(n_names=16, seed=77), SourceSpec(crowded, np.full((n, n), 1 / n), 0.0, 5)):
        inj = InjectionSpec(frozenset({0}), "novel_names", 1.0)
        corrupted, _ = gen_anomalous(spec, 200, inj, 200)
        assert all(name not in spec.alphabet for name in call_names(corrupted)[:200])
        assert count_table(corrupted).entries == counter_table_entries(call_names(corrupted))


def test_shuffled_transitions_keeps_alphabet():
    spec = make_source(n_names=16, seed=77)
    inj = InjectionSpec(frozenset({0}), "shuffled_transitions", 0.8)
    corrupted, _ = gen_anomalous(spec, 400, inj, 200)
    assert all(name in spec.alphabet for name in call_names(corrupted))


def test_burst_repeat_is_contiguous_motif():
    spec = make_source(n_names=16, seed=77)
    S = 200
    inj = InjectionSpec(frozenset({0}), "burst_repeat", 0.3)
    corrupted, _ = gen_anomalous(spec, S, inj, S)
    got, want = call_names(corrupted), call_names(gen_normal(spec, S))
    changed = [i for i in range(S) if got[i] != want[i]]
    # replacements all fall inside one block of ~intensity*S calls, and the
    # whole block tiles a <=3-name motif (some positions may coincide with
    # the base walk and so not show as changed)
    assert changed
    k = round(0.3 * S)
    assert changed[-1] - changed[0] < k
    assert len(set(got[changed[0] : changed[-1] + 1])) <= 3


def test_injection_is_deterministic():
    spec = make_source(n_names=16, seed=77)
    inj = InjectionSpec(frozenset({1}), "burst_repeat", 0.5)
    a, la = gen_anomalous(spec, 600, inj, 200)
    b, lb = gen_anomalous(spec, 600, inj, 200)
    assert call_names(a) == call_names(b) and la == lb


def test_pinned_burst_suite_flags_all_three_epochs():
    # suite pinned at authoring time: structure seed 7 for the source,
    # training walk on the same seed, test walk on seed 71
    S = 5000
    spec = make_source(seed=7)
    model = trainer.train(
        gen_normal(spec, 60 * S),
        config=Config(10, S, 1.0),
    )
    inj = InjectionSpec(frozenset({5, 17, 33}), "burst_repeat", 0.5)
    trace, labels = gen_anomalous(replace(spec, seed=71), 40 * S, inj, S)
    report = detector.detect(model, trace)
    flagged = [e for e, v in enumerate(report.verdicts) if v.anomalous]
    assert flagged == [5, 17, 33]
    assert [e for e, lab in enumerate(labels) if lab == "malicious"] == [5, 17, 33]
