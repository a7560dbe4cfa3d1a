"""boscids: bag-of-system-calls anomaly detection for syscall traces.

Pipeline: ingest tracer text, build a syscall-slot index, learn a frequency
database of sliding-window bags from normal traces, then flag epochs of new
traces whose unknown-bag count exceeds the threshold.
"""

from .bosc import (
    BehaviorDb,
    BoSC,
    Config,
    FrozenDbError,
    bag_of,
    epoch_windows,
)
from .catalog import OTHER_NAME, SyscallIndex, build_index
from .detector import (
    DetectionReport,
    EpochVerdict,
    detect,
    format_report,
    read_report_file,
    scan_epoch,
    write_report_file,
)
from .evaluator import (
    LabeledCorpus,
    Metrics,
    compute_metrics,
    format_metrics,
    read_labels,
    write_labels,
)
from .synth import (
    InjectionSpec,
    SourceSpec,
    gen_anomalous,
    gen_normal,
    make_source,
    trace_digest,
)
from .trace_ingest import (
    CountTable,
    RawTrace,
    RawTraceLine,
    count_table,
    ingest,
    ingest_file,
    parse_line,
    read_count_file,
    read_trace_file,
    write_count_file,
    write_trace_file,
)
from .trainer import (
    ModelFormatError,
    SimilarityRecord,
    TrainedModel,
    cosine_similarity,
    load_model,
    save_model,
    train,
)

__version__ = "0.1.0"
