"""boscids: bag-of-system-calls anomaly detection for syscall traces.

Pipeline: ingest tracer text, build a syscall-slot index, learn a frequency
database of sliding-window bags from normal traces, then flag epochs of new
traces whose unknown-bag count exceeds the threshold. Everything else is
imported from its module (boscids.trainer, boscids.detector, ...).

The names below load their module on first use (PEP 562), so a command that
needs none of them, such as `boscids ingest`, starts without numpy.
"""

import importlib

# Each re-exported name and the module that defines it.
_EXPORTS = {
    "BehaviorDb": "bosc",
    "Config": "bosc",
    "bag_of": "bosc",
    "epoch_windows": "bosc",
    "build_index": "catalog",
    "detect": "detector",
    "compute_metrics": "evaluator",
    "InjectionSpec": "synth",
    "gen_anomalous": "synth",
    "gen_normal": "synth",
    "make_source": "synth",
    "count_table": "trace_ingest",
    "ingest": "trace_ingest",
    "parse_line": "trace_ingest",
    "cosine_similarity": "trainer",
    "train": "trainer",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
