"""Syscall-to-slot index with an OTHER bucket for rare and unknown names."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .trace_ingest import CountTable, RawTrace

OTHER_NAME = "other"


@dataclass(frozen=True)
class SyscallIndex:
    """Frozen mapping from syscall name to bag slot.

    Retained (frequent) names occupy slots 0..len(slots)-1 in count-table
    order; everything else, including names never seen in training, resolves
    to the reserved final OTHER slot, len(slots). _slot_of is the one
    name -> slot map; no lookup state outlives a call.
    """

    slots: tuple[str, ...]

    def __post_init__(self):
        if len(self._slot_of) != len(self.slots):
            raise ValueError("slot names must be unique")
        if OTHER_NAME in self._slot_of:
            raise ValueError(f"{OTHER_NAME!r} is reserved for the fallback slot")

    @cached_property
    def _slot_of(self) -> dict[str, int]:
        return {name: slot for slot, name in enumerate(self.slots)}

    @property
    def n_s(self) -> int:
        return len(self.slots) + 1

    def resolve(self, name: str) -> int:
        return self._slot_of.get(name, len(self.slots))

    def resolve_stream(self, trace) -> np.ndarray:
        """Resolve a trace (a RawTrace or names) to int64 slots by one gather,
        through a table of the slots of the names its calls use. A chunk
        resolves on its own; a RawTrace.split chunk shares its whole trace's
        names, so only those its calls use are looked up."""
        trace = RawTrace.from_names(trace)
        codes = np.frombuffer(trace.calls, dtype=np.int32)
        used = np.flatnonzero(np.bincount(codes, minlength=len(trace.names)))
        table = np.full(len(trace.names), len(self.slots), dtype=np.int64)
        table[used] = [self.resolve(trace.names[c]) for c in used.tolist()]
        return table[codes]


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

