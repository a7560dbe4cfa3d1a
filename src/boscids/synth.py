"""Deterministic synthetic syscall traces: a seeded Markov source for normal
behavior plus labeled injections for anomalous test data.

All randomness comes from numpy's PCG64 bit generator through its uniform
doubles only; sampling, shuffling, and choices are derived from those
uniforms by hand so identical seeds give byte-identical traces across
platforms and library versions. A known-answer test pins the stream.
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .trace_ingest import RawTrace

# Real syscall names, roughly hottest-first, used as the default alphabet.
COMMON_SYSCALLS = (
    "read", "write", "futex", "close", "openat", "fstat", "lseek", "mmap",
    "mprotect", "munmap", "brk", "rt_sigaction", "rt_sigprocmask", "ioctl",
    "pread64", "pwrite64", "readv", "writev", "access", "pipe", "select",
    "sched_yield", "mremap", "msync", "madvise", "dup", "dup2", "nanosleep",
    "getpid", "sendfile", "socket", "connect", "accept", "sendto", "recvfrom",
    "sendmsg", "recvmsg", "shutdown", "bind", "listen", "getsockname",
    "getpeername", "socketpair", "setsockopt", "getsockopt", "clone", "fork",
    "execve", "exit", "wait4", "kill", "uname", "fcntl", "flock", "fsync",
    "fdatasync", "truncate", "ftruncate", "getdents", "getcwd", "chdir",
    "rename", "mkdir", "rmdir", "creat", "unlink", "symlink", "readlink",
    "chmod", "chown", "umask", "gettimeofday", "getrlimit", "getrusage",
    "sysinfo", "times", "getuid", "getgid", "geteuid", "getegid", "epoll_wait",
    "epoll_ctl", "stat", "lstat", "poll", "epoll_create1", "eventfd2",
    "accept4", "getrandom", "statx", "clock_gettime", "clock_nanosleep",
    "exit_group", "tgkill", "set_robust_list", "prlimit64",
)

# Attack-flavored syscalls injected by novel_names mode; anything already in
# the alphabet is filtered out at injection time.
NOVEL_SYSCALLS = (
    "ptrace", "process_vm_readv", "process_vm_writev", "init_module",
    "finit_module", "delete_module", "kexec_load", "reboot", "setns",
    "pivot_root", "mount", "umount2", "add_key", "request_key", "keyctl",
    "memfd_create", "userfaultfd", "bpf", "perf_event_open", "personality",
)

INJECTION_MODES = ("novel_names", "shuffled_transitions", "burst_repeat")

# make_source's hot loop length and the spacing of its cold-walk return states.
HOT_STATES = 5
RETURN_SPACING = 10

_INJECT_STREAM_TAG = 0xB05C


@dataclass(frozen=True, eq=False)
class SourceSpec:
    """A seeded order-1 Markov source over a syscall alphabet.

    zipf_s shapes the stationary name skew (0 = uniform); the transition
    matrix carries the dynamics and must be row-stochastic.
    """

    alphabet: tuple[str, ...]
    transition: np.ndarray
    zipf_s: float
    seed: int

    def __post_init__(self):
        n = len(self.alphabet)
        if n == 0:
            raise ValueError("alphabet must not be empty")
        # from_names rejects an invalid name and codes a repeated one once.
        if len(RawTrace.from_names(self.alphabet).names) != n:
            raise ValueError("alphabet names must be unique")
        if self.transition.shape != (n, n):
            raise ValueError(f"transition matrix must be {n}x{n}")
        sums = self.transition.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("every transition row must sum to 1 within 1e-9")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be non-negative")


@dataclass(frozen=True)
class InjectionSpec:
    """Which epochs get corrupted, how, and how heavily."""

    target_epochs: frozenset[int]
    mode: str
    intensity: float

    def __post_init__(self):
        if self.mode not in INJECTION_MODES:
            raise ValueError(f"mode must be one of {INJECTION_MODES}")
        if not 0.0 < self.intensity <= 1.0:
            raise ValueError("intensity must be in (0, 1]")
        if any(e < 0 for e in self.target_epochs):
            raise ValueError("target epoch indices must be non-negative")


def _zipf_weights(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


def _pick_distinct(rng, cum: list[float], k: int) -> list[int]:
    """k distinct weighted draws, by rejection on repeats."""
    chosen: list[int] = []
    seen = set()
    while len(chosen) < k:
        i = bisect_left(cum, rng.random())
        if i not in seen:
            seen.add(i)
            chosen.append(i)
    return chosen


def _shuffled(rng, n: int) -> list[int]:
    """Fisher-Yates permutation of range(n) driven by uniform doubles."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _cum(weights: np.ndarray) -> list:
    """Cumulative weights along the last axis, as lists for bisect_left's
    inverse-CDF draw. The last entry is pinned to 1 against float shortfall."""
    cum = np.cumsum(weights, axis=-1)
    cum[..., -1] = 1.0
    return cum.tolist()


def make_source(n_names: int = 64, zipf_s: float = 1.2, seed: int = 0,
                excursion: float = 0.075) -> SourceSpec:
    """Build a SourceSpec shaped like a real server workload: a tight hot
    loop with occasional excursions through the rest of the alphabet.

    The first HOT_STATES names cycle with probability 1-excursion and
    otherwise jump into the cold section at a zipf-weighted entry point.
    Cold states walk deterministically onward until the next return state
    (every RETURN_SPACING-th), which drops back to the loop head; that keeps
    the window vocabulary finite while the zipf entry weights spread its
    discovery over many epochs. The matrix depends only on these arguments,
    so the seed purely drives the sampled walk.
    """
    if n_names < 1:
        raise ValueError("n_names must be positive")
    if not 0.0 < excursion < 1.0:
        raise ValueError("excursion must be in (0, 1)")
    alphabet = list(COMMON_SYSCALLS[:n_names])
    alphabet += [f"syscall_{i}" for i in range(len(alphabet), n_names)]
    h = min(HOT_STATES, n_names)
    matrix = np.zeros((n_names, n_names), dtype=np.float64)
    cold = list(range(h, n_names))
    if cold:
        entry = _zipf_weights(len(cold), zipf_s)
    for i in range(h):
        nxt = (i + 1) % h
        if not cold:
            matrix[i, nxt] = 1.0
            continue
        matrix[i, nxt] = 1.0 - excursion
        matrix[i, cold] += excursion * entry
    for c, j in enumerate(cold):
        if (c + 1) % RETURN_SPACING == 0 or j == n_names - 1:
            matrix[j, 0] = 1.0
        else:
            matrix[j, j + 1] = 1.0
    return SourceSpec(tuple(alphabet), matrix, zipf_s, seed)


def _walk(spec: SourceSpec, total_calls: int) -> list[int]:
    n = len(spec.alphabet)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    init_cum = _cum(_zipf_weights(n, spec.zipf_s))
    cum_rows = _cum(spec.transition)
    u = rng.random(total_calls).tolist()
    states = [0] * total_calls
    s = bisect_left(init_cum, u[0])
    states[0] = s
    for t in range(1, total_calls):
        s = bisect_left(cum_rows[s], u[t])
        states[t] = s
    return states


def gen_normal(spec: SourceSpec, total_calls: int) -> RawTrace:
    """Markov walk over the alphabet, fully determined by the source seed;
    the walk's states are the trace's codes into the alphabet."""
    if total_calls < 1:
        raise ValueError("total_calls must be positive")
    states = np.array(_walk(spec, total_calls), dtype=np.int32)
    meta = f"synth seed={spec.seed} calls={total_calls} names={len(spec.alphabet)} zipf_s={spec.zipf_s}"
    return RawTrace(spec.alphabet, states, meta)


def _inject_rng(spec: SourceSpec, epoch: int):
    # Separate stream per injected epoch, so the base walk stays identical
    # to gen_normal outside and between replacements.
    seed = np.random.SeedSequence([spec.seed & (2**64 - 1), _INJECT_STREAM_TAG, epoch])
    return np.random.Generator(np.random.PCG64(seed))


def gen_anomalous(spec: SourceSpec, total_calls: int, inj: InjectionSpec,
                  epoch_size: int) -> tuple[RawTrace, list[str]]:
    """gen_normal output with the target epochs corrupted, plus per-epoch
    labels marking exactly those epochs malicious.

    total_calls must be a whole number of epochs so the labels line up with
    the detector's partition.
    """
    if epoch_size < 1:
        raise ValueError("epoch_size must be positive")
    if total_calls % epoch_size:
        raise ValueError("total_calls must be a multiple of epoch_size")
    n_epochs = total_calls // epoch_size
    for e in inj.target_epochs:
        if e >= n_epochs:
            raise ValueError(f"target epoch {e} outside trace of {n_epochs} epochs")

    base = gen_normal(spec, total_calls)
    calls = base.calls.copy()
    alphabet = spec.alphabet
    init_cum = _cum(_zipf_weights(len(alphabet), spec.zipf_s))
    novel = [nm for nm in NOVEL_SYSCALLS if nm not in alphabet] or [f"novel_{i}" for i in range(8)]
    pool = [nm for nm in novel if nm not in alphabet]
    names = alphabet + tuple(pool) if inj.mode == "novel_names" else alphabet

    for e in sorted(inj.target_epochs):
        rng = _inject_rng(spec, e)
        start = e * epoch_size
        k = max(1, round(inj.intensity * epoch_size))
        if inj.mode == "novel_names":
            positions = sorted(_shuffled(rng, epoch_size)[:k])
            for j, p in enumerate(positions):
                calls[start + p] = len(alphabet) + j % len(pool)
        elif inj.mode == "shuffled_transitions":
            perm = _shuffled(rng, len(alphabet))
            permuted = spec.transition[np.ix_(perm, perm)]
            cum_rows = _cum(permuted)
            positions = sorted(_shuffled(rng, epoch_size)[:k])
            for p in positions:
                gpos = start + p
                if gpos == 0:
                    calls[gpos] = bisect_left(init_cum, rng.random())
                else:
                    calls[gpos] = bisect_left(cum_rows[calls[gpos - 1]], rng.random())
        else:  # burst_repeat
            motif = _pick_distinct(rng, init_cum, min(3, len(alphabet)))
            offset = int(rng.random() * (epoch_size - k + 1))
            for j in range(k):
                calls[start + offset + j] = motif[j % len(motif)]

    labels = ["malicious" if e in inj.target_epochs else "normal" for e in range(n_epochs)]
    meta = (
        f"{base.source_meta} injected={sorted(inj.target_epochs)} "
        f"mode={inj.mode} intensity={inj.intensity}"
    )
    return RawTrace(names, calls, meta), labels

