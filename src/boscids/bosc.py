"""Sliding-window bags of system calls and the normal-behavior frequency db.

A bag (BoSC) is a window's per-slot count vector. Train, detect and the
model loader all handle bags as bag keys: the window's slots complemented
(n_s-1-s), sorted descending, written as big-endian uint32 and viewed as one
np.void of 4*w bytes. Equal bags have equal keys, and ascending byte order of
keys is ascending lexicographic order of the count vectors, so keys sort,
unique and search without ever being decoded. Keys are exact for every
n_s < 2**32 and every w. Count vectors appear only at the edges: the model
file, written from BehaviorDb.chunks() and read back through
Bags.from_counts, and the pure bag_of reference.
"""

import logging
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

log = logging.getLogger(__name__)

BoSC = tuple[int, ...]

CHUNK = 1024  # bags converted between keys and count rows (and model lines) at a time


@dataclass(frozen=True)
class Config:
    """Pipeline parameters: window size w, epoch size S, training similarity
    threshold, and the detection threshold as a fraction of epoch length."""

    window_size: int = 10
    epoch_size: int = 5000
    train_threshold: float = 0.99
    detect_threshold_fraction: float = 0.10

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError("window_size must be a positive integer")
        if self.epoch_size < self.window_size:
            raise ValueError("epoch_size must be >= window_size")
        if not 0.0 < self.train_threshold <= 1.0:
            raise ValueError("train_threshold must be in (0, 1]")
        if not 0.0 < self.detect_threshold_fraction <= 1.0:
            raise ValueError("detect_threshold_fraction must be in (0, 1]")


def epoch_windows(epoch: Sequence[int], w: int) -> Iterator[Sequence[int]]:
    """Yield all contiguous windows of size w (stride 1) within one epoch.

    Windows never span epoch boundaries. An epoch shorter than w yields
    nothing and logs a diagnostic.
    """
    if w < 1:
        raise ValueError("window size must be a positive integer")
    n = len(epoch)
    if n < w:
        log.warning("epoch of %d calls is shorter than window %d; no windows", n, w)
        return
    for i in range(n - w + 1):
        yield epoch[i : i + w]


def bag_of(window: Sequence[int], n_s: int) -> BoSC:
    """Count each slot's occurrences in one window; the result sums to w."""
    counts = [0] * n_s
    for s in window:
        if not 0 <= s < n_s:
            raise ValueError(f"slot {s} out of range for n_s={n_s}")
        counts[s] += 1
    return tuple(counts)


def _keys_of_sorted(slots: np.ndarray, n_s: int) -> np.ndarray:
    """Bag keys of (m, w) windows whose slots are sorted ascending per row."""
    c = np.ascontiguousarray(n_s - 1 - slots, dtype=">u4")
    return c.view(np.dtype((np.void, 4 * c.shape[1]))).ravel()


@dataclass(frozen=True, eq=False)
class Bags:
    """Bag keys over an n_s-slot alphabet (see the module docstring)."""

    keys: np.ndarray
    n_s: int

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    @property
    def w(self) -> int:
        return self.keys.dtype.itemsize // 4

    @classmethod
    def from_counts(cls, rows) -> "Bags":
        """Keys of an (m, n_s) count matrix whose rows all sum to one w >= 1."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
            raise ValueError("bags must be a non-empty sequence of equal-length count vectors")
        sums = rows.sum(axis=1)
        if rows.min() < 0 or sums[0] < 1 or (sums != sums[0]).any():
            raise ValueError("bag counts must be non-negative and sum to the same window size")
        m, n_s = rows.shape
        slots = np.repeat(np.tile(np.arange(n_s), m), rows.ravel()).reshape(m, int(sums[0]))
        return cls(_keys_of_sorted(slots, n_s), n_s)

    def counts(self) -> np.ndarray:
        """Decode to the (len, n_s) count matrix, one row per key."""
        m, n_s = len(self), self.n_s
        slots = n_s - 1 - self.keys.view(">u4").reshape(m, self.w).astype(np.int64)
        flat = (slots + np.arange(m, dtype=np.int64)[:, None] * n_s).ravel()
        return np.bincount(flat, minlength=m * n_s).reshape(m, n_s)


def unique_window_bags(slots, w: int, n_s: int) -> tuple[Bags, np.ndarray]:
    """Distinct window bags of one epoch, ascending, plus multiplicities."""
    arr = np.asarray(slots, dtype=np.int64)
    if arr.shape[0] < w:
        return Bags(np.zeros(0, dtype=np.dtype((np.void, 4 * w))), n_s), np.zeros(0, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= n_s:
        raise ValueError(f"slot out of range for n_s={n_s}")
    win = np.sort(np.lib.stride_tricks.sliding_window_view(arr, w), axis=1)
    keys, counts = np.unique(_keys_of_sorted(win, n_s), return_counts=True)
    return Bags(keys, n_s), counts


class FrozenDbError(RuntimeError):
    pass


class BehaviorDb:
    """Bag frequencies in first-insertion order, which is stable under later
    increments.

    Holds the bag keys sorted, each one's insertion position, and the int64
    frequencies in insertion order. n_s and w (the key size) come from the
    first insert. Single-writer during training; freeze() makes it safe for
    any number of concurrent readers.
    """

    def __init__(self):
        self._n_s: int | None = None
        self._freq = np.zeros(0, dtype=np.int64)
        self._sorted = np.zeros(0, dtype=np.void)
        self._sorted_pos = np.zeros(0, dtype=np.int64)
        self._frozen = False

    def __len__(self) -> int:
        return int(self._freq.shape[0])

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(count matrix, frequencies) of up to CHUNK bags at a time, in
        insertion order."""
        keys = np.empty_like(self._sorted)
        keys[self._sorted_pos] = self._sorted
        for lo in range(0, len(self), CHUNK):
            yield Bags(keys[lo : lo + CHUNK], self._n_s).counts(), self._freq[lo : lo + CHUNK]

    def items(self) -> Iterator[tuple[BoSC, int]]:
        """(count tuple, frequency) pairs in insertion order."""
        for rows, freqs in self.chunks():
            yield from zip(map(tuple, rows.tolist()), freqs.tolist())

    def positions(self, bags: Bags) -> np.ndarray:
        """Each bag's insertion position, or -1 where the db lacks it."""
        pos = np.full(len(bags), -1, dtype=np.int64)
        if (bags.n_s, bags.keys.dtype) != (self._n_s, self._sorted.dtype) or not len(self):
            return pos
        idx = np.searchsorted(self._sorted, bags.keys)
        at = np.minimum(idx, len(self) - 1)
        hit = self._sorted[at] == bags.keys
        pos[hit] = self._sorted_pos[at[hit]]
        return pos

    def insert_many(self, bags: Bags, multiplicities) -> np.ndarray:
        """Add each bag's multiplicity to its frequency and return the change
        vector: the int64 frequency deltas, indexed by insertion position.

        Bags new to the db are appended in the order they first appear.
        Raises ValueError if the bags' n_s or w differ from those of the
        db's first insert.
        """
        if self._frozen:
            raise FrozenDbError("behavior db is frozen")
        if self._n_s is None:
            self._n_s, self._sorted = bags.n_s, bags.keys[:0]
        elif (bags.n_s, bags.keys.dtype) != (self._n_s, self._sorted.dtype):
            w = self._sorted.dtype.itemsize // 4
            raise ValueError(f"bags over n_s={bags.n_s}, w={bags.w} do not fit a db of n_s={self._n_s}, w={w}")
        pos = self.positions(bags)
        new = pos < 0
        if new.any():
            uniq, first, inverse = np.unique(bags.keys[new], return_index=True, return_inverse=True)
            order = np.argsort(first)
            new_pos = np.empty(len(uniq), dtype=np.int64)
            new_pos[order] = np.arange(len(self), len(self) + len(uniq))
            pos[new] = new_pos[inverse]
            at = np.searchsorted(self._sorted, uniq)
            self._sorted = np.insert(self._sorted, at, uniq)
            self._sorted_pos = np.insert(self._sorted_pos, at, new_pos)
            self._freq = np.concatenate([self._freq, np.zeros(len(uniq), dtype=np.int64)])
        deltas = np.zeros(len(self), dtype=np.int64)
        np.add.at(deltas, pos, multiplicities)
        self._freq += deltas
        return deltas

    def freeze(self) -> None:
        self._frozen = True
