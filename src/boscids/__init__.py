"""boscids: bag-of-system-calls anomaly detection for syscall traces.

Pipeline: ingest tracer text, build a syscall-slot index, learn a frequency
database of sliding-window bags from normal traces, then flag epochs of new
traces whose unknown-bag count exceeds the threshold. Everything else is
imported from its module (boscids.trainer, boscids.detector, ...).
"""

from .bosc import BehaviorDb, Config, bag_of, epoch_windows
from .catalog import build_index
from .detector import detect
from .evaluator import compute_metrics
from .synth import InjectionSpec, gen_anomalous, gen_normal, make_source
from .trace_ingest import count_table, ingest, parse_line
from .trainer import cosine_similarity, train

__version__ = "0.1.0"
