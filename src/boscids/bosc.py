"""Sliding-window bags of system calls and the normal-behavior frequency db.

A bag (BoSC) is a window's per-slot count vector. Train, detect and the
model loader all handle bags as bag keys: the window's slots complemented
(n_s-1-s), sorted descending, each written in the narrowest big-endian
unsigned type that holds n_s-1 (1 byte up to n_s = 256, 2 up to 65,536,
else 4; _slot_width), and viewed as one np.void of w slots. Equal bags have
equal keys, and ascending byte order of keys is ascending lexicographic
order of the count vectors, so keys sort, unique and are searched for in
the db's sorted records without being decoded. Keys are exact for every
n_s < 2**32 and every w. _keys_of is the one place a key is coded, for
windows and model rows alike, and Bags.counts the one place one is decoded.
Count vectors appear only at the edges: the model file, written from
BehaviorDb.chunks() and read back through Bags.from_counts, and the pure
bag_of reference.

Memory: the db takes w x (1, 2 or 4) + 16 bytes a bag (its key, its
position and its frequency), plus the slack of the arrays it grows in: 26
to 29 bytes a bag at w=10 up to n_s = 256. An epoch's scan sorts its
S - w + 1 windows as rows of 2-byte slots (4 above n_s = 65,536) and peaks
at about 3 bytes per window slot up to n_s = 256, 6 up to 65,536 and 12
above; Config bounds the window slots of an epoch by MAX_EPOCH_SLOTS.
"""

import logging
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .trace_ingest import MAX_LINE

log = logging.getLogger(__name__)

BoSC = tuple[int, ...]

CHUNK = 256  # bags converted between keys and count rows (and model lines) at a time
# A bag key, at most 4 bytes a slot, is then at most MAX_LINE bytes, so a chunk
# of CHUNK model rows codes to at most 256 MiB of keys; a model file's larger w
# fails as params before any entry is coded.
MAX_WINDOW = MAX_LINE // 4
# Window slots an epoch may hold, (S - w + 1) x w: an epoch's scan sorts them
# as rows of uint16, which take 256 MiB at this bound.
MAX_EPOCH_SLOTS = 1 << 27
# BehaviorDb's side run merges into its main run once it holds more than this
# share of it. A larger share rewrites the main run less often and the side run
# at more length; shares from 1/4 to 1/16 trained 300 epochs of iid calls to
# 1.49M bags in the same 1.8-1.9 s (2 cores, Python 3.11, numpy 2.4).
SIDE_SHARE = 1 / 8


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
        if self.window_size > MAX_WINDOW:
            raise ValueError(f"window_size must be at most {MAX_WINDOW}")
        if self.epoch_size < self.window_size:
            raise ValueError("epoch_size must be >= window_size")
        slots = (self.epoch_size - self.window_size + 1) * self.window_size
        if slots > MAX_EPOCH_SLOTS:
            raise ValueError(f"epoch_size {self.epoch_size} at window_size {self.window_size} gives "
                             f"{slots} window slots an epoch, more than {MAX_EPOCH_SLOTS}")
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


def _integers(values, name: str) -> np.ndarray:
    """values as an array of integers: an empty sequence passes, and float,
    bool, object or other non-integer values raise ValueError naming name,
    rather than being truncated."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {arr.dtype} values")
    return arr


def _slot_width(n_s: int) -> int:
    """Bytes of a key's slot: the narrowest unsigned type that holds n_s - 1."""
    return 1 if n_s <= 1 << 8 else 2 if n_s <= 1 << 16 else 4


def _keys_of(s: np.ndarray, n_s: int) -> np.ndarray:
    """Bag keys of a writable C-contiguous unsigned (m, w) array whose rows
    are sorted ascending: s is complemented, then written big-endian in
    _slot_width(n_s) bytes a slot, in place where s already has that width."""
    np.subtract(n_s - 1, s, out=s)
    width = _slot_width(n_s)
    if s.itemsize != width:
        s = s.astype(f">u{width}")
    elif np.little_endian:
        s.byteswap(inplace=True)
    return s.view(np.dtype((np.void, width * s.shape[1]))).ravel()


@dataclass(frozen=True, eq=False)
class Bags:
    """Bag keys over an n_s-slot alphabet (see the module docstring)."""

    keys: np.ndarray
    n_s: int

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    @property
    def w(self) -> int:
        return self.keys.dtype.itemsize // _slot_width(self.n_s)

    @classmethod
    def from_counts(cls, rows) -> "Bags":
        """Keys of an (m, n_s) count matrix whose rows all sum to one w >= 1."""
        rows = _integers(rows, "rows")
        if not np.can_cast(rows.dtype, np.intp):  # what repeat takes, such as the loader's uint8, is kept
            rows = rows.astype(np.int64)
        if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
            raise ValueError("bags must be a non-empty sequence of equal-length count vectors")
        sums = rows.sum(axis=1)
        if rows.min() < 0 or sums[0] < 1 or (sums != sums[0]).any():
            raise ValueError("bag counts must be non-negative and sum to the same window size")
        m, n_s = rows.shape
        alphabet = np.arange(n_s, dtype=f"u{_slot_width(n_s)}")  # so _keys_of codes the slots in place
        slots = np.repeat(np.tile(alphabet, m), rows.ravel()).reshape(m, int(sums[0]))
        return cls(_keys_of(slots, n_s), n_s)

    def counts(self) -> np.ndarray:
        """Decode to the (len, n_s) count matrix, one row per key."""
        m, n_s = len(self), self.n_s
        slots = n_s - 1 - self.keys.view(f">u{_slot_width(n_s)}").reshape(m, self.w).astype(np.int64)
        flat = (slots + np.arange(m, dtype=np.int64)[:, None] * n_s).ravel()
        return np.bincount(flat, minlength=m * n_s).reshape(m, n_s)


def unique_window_bags(slots, w: int, n_s: int) -> tuple[Bags, np.ndarray]:
    """Distinct window bags of one epoch's slots, ascending, plus
    multiplicities. This is the one place a slot stream becomes int64;
    non-integer slots raise ValueError."""
    if w < 1:
        raise ValueError("window size must be a positive integer")
    arr = _integers(slots, "slots").astype(np.int64, copy=False)
    if arr.shape[0] < w:
        empty = np.zeros(0, dtype=np.dtype((np.void, _slot_width(n_s) * w)))
        return Bags(empty, n_s), np.zeros(0, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= n_s:
        raise ValueError(f"slot out of range for n_s={n_s}")
    # Rows sort in uint16 (numpy sorts uint8 rows without SIMD, several times
    # slower) and go straight to _keys_of, which narrows them where n_s <= 256,
    # so they are freed before np.unique copies the keys.
    rows = np.lib.stride_tricks.sliding_window_view(arr.astype(np.uint16 if n_s <= 1 << 16 else np.uint32), w)
    keys, counts = np.unique(_keys_of(np.sort(rows, axis=1), n_s), return_counts=True)
    return Bags(keys, n_s), counts


class FrozenDbError(RuntimeError):
    pass


class DuplicateBagError(ValueError):
    """A bag given twice to BehaviorDb.from_entries; position is the first
    whose bag an earlier position holds."""

    def __init__(self, position: int):
        super().__init__(f"position {position}: duplicate bag")
        self.position = position


def _merged(run: np.ndarray, more: np.ndarray) -> np.ndarray:
    """Sorted records run and more as one sorted run (more itself if run is
    empty)."""
    return np.insert(run, np.searchsorted(run, more), more) if len(run) else more


class BehaviorDb:
    """Bag frequencies in first-insertion order, which is stable under later
    increments.

    Each bag is one fixed-width byte record: its key, then its insertion
    position as a big-endian u8, so byte order sorts records by key, then
    by position. The records are held in two sorted runs, searched with
    np.searchsorted: a main run, and a side run that takes each add's new
    bags and merges into the main run once it holds more than SIDE_SHARE of
    it: an add rewrites only the side run, and the main run is rewritten
    once new bags reach that share of it. The int64 frequencies are kept by position, in an array
    that grows in place. n_s and w (the key size) come from the first
    insert. Single-writer during training; freeze() merges the runs and
    makes every later write raise.
    """

    def __init__(self):
        self._n_s: int | None = None
        self._dtype: np.dtype | None = None  # the keys'
        self._fields: np.dtype | None = None  # a record's key "k" and position "p"
        self._main = self._side = np.zeros(0, dtype=np.uint8)
        self._freq = array("q")
        self._frozen = False

    def __len__(self) -> int:
        return len(self._freq)

    def _fit(self, bags: Bags, multiplicities) -> np.ndarray:
        """multiplicities as an int64 array, once the db takes bags' n_s and w
        (the first bags set them) and there is one of at least 1 per bag; one
        beyond int64 wraps below 1."""
        mult = _integers(multiplicities, "multiplicities").astype(np.int64, copy=False)
        if mult.shape != (len(bags),) or (mult < 1).any():
            raise ValueError(f"{len(bags)} bags need as many multiplicities, each at least 1")
        if self._n_s is None:
            self._n_s, self._dtype = bags.n_s, bags.keys.dtype
            k = self._dtype.itemsize
            self._fields = np.dtype({"names": ["k", "p"], "formats": [self._dtype, ">i8"], "offsets": [0, k]})
            self._main = self._side = np.zeros(0, dtype=(np.void, k + 8))
        elif (bags.n_s, bags.keys.dtype) != (self._n_s, self._dtype):
            raise ValueError(f"bags over n_s={bags.n_s}, w={bags.w} do not fit a db of "
                             f"n_s={self._n_s}, w={self._dtype.itemsize // _slot_width(self._n_s)}")
        return mult

    def _records(self, keys: np.ndarray, positions) -> np.ndarray:
        r = np.empty(len(keys), self._fields)
        r["k"], r["p"] = keys, positions
        return r.view(self._main.dtype)

    def _find(self, keys: np.ndarray) -> np.ndarray:
        """Each key's insertion position, or -1 where the db lacks it."""
        pos = np.full(len(keys), -1, dtype=np.int64)
        if not len(self):
            return pos
        probe = self._records(keys, 0)  # sorts at or before every record of its key
        for run in (self._main, self._side):
            if len(run):
                hit = run.take(np.searchsorted(run, probe), mode="clip").view(self._fields)
                found = hit["k"] == keys
                pos[found] = hit["p"][found]
        return pos

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(count matrix, frequencies) of up to CHUNK bags at a time, in
        insertion order."""
        recs = _merged(self._side, self._main).view(self._fields)  # the main run itself once frozen
        order = np.empty(len(self), dtype=np.intp)  # the record at each position
        for lo in range(0, len(self), CHUNK):
            order[recs["p"][lo : lo + CHUNK]] = np.arange(lo, min(lo + CHUNK, len(self)))
        for lo in range(0, len(self), CHUNK):
            keys = recs["k"][order[lo : lo + CHUNK]]
            yield Bags(keys, self._n_s).counts(), np.frombuffer(self._freq[lo : lo + CHUNK], np.int64)

    def items(self) -> Iterator[tuple[BoSC, int]]:
        """(count tuple, frequency) pairs in insertion order."""
        for rows, freqs in self.chunks():
            yield from zip(map(tuple, rows.tolist()), freqs.tolist())

    def positions(self, bags: Bags) -> np.ndarray:
        """Each bag's insertion position, or -1 where the db lacks it."""
        if (bags.n_s, bags.keys.dtype) != (self._n_s, self._dtype):
            return np.full(len(bags), -1, dtype=np.int64)
        return self._find(bags.keys)

    def add(self, bags: Bags, multiplicities) -> np.ndarray:
        """Add each bag's multiplicity to its frequency and return each bag's
        insertion position. Memory beyond the db is in the number of bags.

        Bags new to the db are appended in the order they first appear.
        Raises ValueError, leaving the db as it was, unless there is one
        multiplicity of at least 1 per bag and the bags' n_s and w are those
        of the db's first insert.
        """
        if self._frozen:
            raise FrozenDbError("behavior db is frozen")
        mult = self._fit(bags, multiplicities)
        pos = self._find(bags.keys)
        new = pos < 0
        if new.any():
            keys, first, which = np.unique(bags.keys[new], return_index=True, return_inverse=True)
            at = np.empty(len(keys), dtype=np.int64)  # positions, in order of first appearance
            at[np.argsort(first)] = np.arange(len(self), len(self) + len(keys))
            pos[new] = at[which]
            self._freq.frombytes(bytes(8 * len(keys)))  # their zero frequencies
            self._side = _merged(self._side, self._records(keys, at))
            if len(self._side) > SIDE_SHARE * len(self._main):
                self._merge_side()
        np.add.at(np.frombuffer(self._freq, np.int64), pos, mult)
        return pos

    def insert_many(self, bags: Bags, multiplicities) -> np.ndarray:
        """add, but return the change vector: the int64 frequency deltas,
        indexed by insertion position, so as long as the db."""
        pos = self.add(bags, multiplicities)
        deltas = np.zeros(len(self), dtype=np.int64)
        np.add.at(deltas, pos, np.asarray(multiplicities))
        return deltas

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[Bags, np.ndarray]]) -> "BehaviorDb":
        """A frozen db of the (bags, frequencies) chunks of entries, each bag
        at the next position, as a model file lists them. The records go into
        one buffer, sorted once in place, so memory beyond the db is one
        chunk. Raises DuplicateBagError if a bag comes twice."""
        db, buf = cls(), bytearray()
        for bags, freqs in entries:
            freqs = db._fit(bags, freqs)
            buf += db._records(bags.keys, np.arange(len(db), len(db) + len(bags))).data
            db._freq.frombytes(freqs.tobytes())
        if buf:
            db._main = np.frombuffer(buf, db._main.dtype)
            db._main.sort()
            recs, first = db._main.view(db._fields), len(db)
            for lo in range(1, len(db), CHUNK):  # a repeat sorts right after an earlier position of its bag
                b = recs[lo : lo + CHUNK]
                repeats = b["p"][b["k"] == recs["k"][lo - 1 : lo - 1 + len(b)]]
                first = min([first, *repeats.tolist()])
            if first < len(db):
                raise DuplicateBagError(first)
        db._frozen = True
        return db

    def _merge_side(self) -> None:
        if len(self._side):
            self._main, self._side = _merged(self._main, self._side), np.zeros(0, self._side.dtype)

    def freeze(self) -> None:
        self._merge_side()
        self._frozen = True
