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

    @cached_property
    def _slot_of(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.slots)}

    def resolve(self, name: str) -> int:
        return self._slot_of.get(name, len(self.slots))

    def resolve_stream(self, names) -> np.ndarray:
        """Resolve a whole name sequence to an int64 slot array."""
        lut = self._slot_of
        other = len(self.slots)
        return np.array([lut.get(n, other) for n in names], dtype=np.int64)


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


def is_slot_stream(trace) -> bool:
    """True when the trace's calls are integer slots, not syscall names."""
    seq = trace.calls if isinstance(trace, RawTrace) else trace
    if isinstance(seq, np.ndarray):
        return np.issubdtype(seq.dtype, np.integer)
    return len(seq) > 0 and isinstance(seq[0], (int, np.integer))


def slot_stream(trace, index: SyscallIndex) -> np.ndarray:
    """Normalize a trace to an int64 slot array over the index.

    Names (a RawTrace or a name sequence) resolve through the index, unknown
    ones to OTHER; an integer stream is taken as already resolved and only
    range-checked.
    """
    seq = trace.calls if isinstance(trace, RawTrace) else trace
    if not is_slot_stream(seq):
        return index.resolve_stream(seq)
    slots = np.asarray(seq, dtype=np.int64)
    if slots.size and (slots.min() < 0 or slots.max() >= index.n_s):
        raise ValueError("slot stream contains indices outside the index")
    return slots
