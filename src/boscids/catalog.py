"""Syscall-to-slot index with an OTHER bucket for rare and unknown names."""

from array import array
from dataclasses import dataclass

import numpy as np

from .trace_ingest import CountTable, RawTrace

OTHER_NAME = "other"


@dataclass(frozen=True)
class SyscallIndex:
    """Frozen mapping from syscall name to bag slot.

    Retained (frequent) names occupy slots 0..len(slots)-1 in count-table
    order; everything else, including names never seen in training, resolves
    to the reserved final OTHER slot, len(slots).
    """

    slots: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.slots)) != len(self.slots):
            raise ValueError("slot names must be unique")
        if OTHER_NAME in self.slots:
            raise ValueError(f"{OTHER_NAME!r} is reserved for the fallback slot")

    @property
    def n_s(self) -> int:
        return len(self.slots) + 1

    def resolve(self, name: str) -> int:
        return self.slots.index(name) if name in self.slots else len(self.slots)

    def resolve_stream(self, trace, lut: array | None = None) -> np.ndarray:
        """Resolve a trace (a RawTrace or names) to int64 slots by one gather.

        The chunks of one stream, whose names each extend the last chunk's,
        resolve one at a time through one lut, an array('q') of the slots of
        the names resolved so far: each call extends it by its chunk's new
        names only."""
        trace = RawTrace.from_names(trace)
        if lut is None:
            lut = array("q")
        lut.extend(map(self.resolve, trace.names[len(lut) :]))
        return np.frombuffer(lut, dtype=np.int64)[np.frombuffer(trace.calls, dtype=np.int32)]


def build_index(counts: CountTable) -> SyscallIndex:
    """Build the slot index from a count table.

    The rarity threshold equals the number of distinct names seen: a name
    keeps its own slot only if its count reaches that threshold, everything
    rarer folds into OTHER. Slot order follows the count table, so the same
    table always rebuilds the identical index.
    """
    t_o = len(counts.entries)
    slots = tuple(
        name for name, count in counts.entries if count >= t_o and name != OTHER_NAME
    )
    return SyscallIndex(slots)

