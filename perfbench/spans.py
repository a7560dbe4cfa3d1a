"""Span recorder for the traced run: times calls into boscids' public
functions from outside, by replacing module attributes with wrappers.

A function is wrapped where its callers look it up (for example
`boscids.trainer.unique_window_bags`, which the trainer imported from
`boscids.bosc`), and only if that attribute exists, so the benchmark keeps
running when a later version removes or moves a function; the recorder
lists the spans it found. Each span records its parent span and thread id.
Spans stay in memory and are written once, when the command has finished.
"""

import importlib
import itertools
import json
import os
import threading
import time

import numpy as np

# (module, attribute, span name). A dotted attribute names a method.
TARGETS = (
    ("boscids.trace_ingest", "ingest_file", "trace_ingest.ingest_file"),
    ("boscids.trace_ingest", "write_trace_file", "trace_ingest.write_trace_file"),
    ("boscids.trace_ingest", "read_trace_file", "trace_ingest.read_trace_file"),
    ("boscids.trace_ingest", "read_count_file", "trace_ingest.read_count_file"),
    ("boscids.trace_ingest", "count_table", "trace_ingest.count_table"),
    ("boscids.trainer", "count_table", "trace_ingest.count_table"),
    ("boscids.catalog", "SyscallIndex.resolve_stream", "catalog.resolve_stream"),
    ("boscids.trainer", "unique_window_bags", "bosc.unique_window_bags"),
    ("boscids.detector", "unique_window_bags", "bosc.unique_window_bags"),
    ("boscids.bosc", "BehaviorDb.insert_many", "bosc.insert_many"),
    ("boscids.bosc", "BehaviorDb.snapshot", "bosc.snapshot"),
    ("boscids.trainer", "db_diff", "bosc.db_diff"),
    ("boscids.trainer", "cosine_similarity", "trainer.cosine_similarity"),
    ("boscids.trainer", "train", "trainer.train"),
    ("boscids.trainer", "save_model", "trainer.save_model"),
    ("boscids.trainer", "load_model", "trainer.load_model"),
    ("boscids.detector", "detect", "detector.detect"),
    ("boscids.detector", "scan_epoch", "detector.scan_epoch"),
    ("boscids.detector", "read_report_file", "detector.read_report_file"),
    ("boscids.evaluator", "compute_metrics", "evaluator.compute_metrics"),
    ("boscids.synth", "gen_normal", "synth.gen_normal"),
    ("boscids.synth", "gen_anomalous", "synth.gen_anomalous"),
)


def _count_bags(counts, args, result):
    keys, mult = result
    counts["windows"] = counts.get("windows", 0) + int(np.sum(mult))
    counts["unique_bags"] = counts.get("unique_bags", 0) + len(keys)


def _count_resolved(counts, args, result):
    index = args[0]
    counts["resolved"] = counts.get("resolved", 0) + len(result)
    counts["other"] = counts.get("other", 0) + int((result == index.n_s - 1).sum())


def _count_read(counts, args, result):
    counts["calls_read"] = counts.get("calls_read", 0) + len(result.calls)


def _count_model(counts, args, result):
    counts["n_s"] = result.index.n_s
    counts["epochs_trained"] = result.epochs_trained
    counts["epoch_size"] = result.config.epoch_size
    counts["db_entries"] = len(result.db)


def _count_saved(counts, args, result):
    counts["model_bytes"] = os.path.getsize(args[1])


def _count_scan(counts, args, result):
    counts["mismatches"] = counts.get("mismatches", 0) + result.totals["mismatches"]
    counts["windows_scanned"] = counts.get("windows_scanned", 0) + result.totals["windows"]


# Counts taken from a wrapped call's arguments and result, by span name.
COUNTERS = {
    "bosc.unique_window_bags": _count_bags,
    "catalog.resolve_stream": _count_resolved,
    "trace_ingest.read_trace_file": _count_read,
    "trainer.train": _count_model,
    "trainer.save_model": _count_saved,
    "detector.detect": _count_scan,
}


class SpanRecorder:
    """Collects (id, name, parent id, thread id, start, end) spans plus the
    counts the COUNTERS hooks take."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.found: list[str] = []
        self.missing: list[str] = []
        self.hook_errors: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, owner, attr: str, name: str) -> bool:
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False
        hook = COUNTERS.get(name)
        rec = self

        def wrapper(*args, **kwargs):
            stack = rec._local.__dict__.setdefault("stack", [])
            span_id = next(rec._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rec.spans.append((span_id, name, parent, threading.get_ident(), start, end))
            if hook is not None:
                with rec._lock:
                    try:
                        hook(rec.counts, args, result)
                    except (AttributeError, TypeError, ValueError, KeyError, OSError) as e:
                        rec.hook_errors.append(f"{name}: {e!r}")
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        return True

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record which were found."""
        for module_name, attr, name in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            label = f"{module_name}.{attr}"
            if owner is not None and self.wrap(owner, leaf, name):
                self.found.append(label)
            else:
                self.missing.append(label)

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "found": self.found,
                       "missing": self.missing, "hook_errors": self.hook_errors, **extra}, fh)


def self_times(spans) -> tuple[dict[str, float], dict[int, float]]:
    """Self time per span name, and the summed self time per thread.

    A span's self time is its duration minus the durations of its direct
    children, which by construction ran on the same thread.
    """
    child_time: dict[int, float] = {}
    for span_id, name, parent, tid, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    by_name: dict[str, float] = {}
    by_thread: dict[int, float] = {}
    for span_id, name, parent, tid, start, end in spans:
        own = (end - start) - child_time.get(span_id, 0.0)
        by_name[name] = by_name.get(name, 0.0) + own
        by_thread[tid] = by_thread.get(tid, 0.0) + own
    return by_name, by_thread
