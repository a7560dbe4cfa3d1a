"""Deterministic renderer from a syscall-name stream to `strace -f` text.

The output exercises every line kind the ingester classifies: calls with a
`[pid N]` prefix, with a bare leading PID and with no PID at all,
`<unfinished ...>` / `<... name resumed>` pairs whose halves are separated
by other lines, signal notices, exit notices and a few garbage lines.
Ingesting the text must give back exactly the input names, in order: an
interrupted call counts at its `unfinished` line, and a `resumed` line never
comes before it.
"""

import random

_ARGS = (
    '3, "\\x7fELF\\x02\\x01\\x01\\x00", 832',
    "AT_FDCWD, \"/etc/ld.so.cache\", O_RDONLY|O_CLOEXEC",
    "0x7ffd5c2e1a40, 4096",
    "NULL, 8192, PROT_READ|PROT_WRITE, MAP_PRIVATE|MAP_ANONYMOUS, -1, 0",
    "4, [{fd=5, events=POLLIN}], 1, 100",
    "1, \"GET / HTTP/1.1\\r\\n\", 16",
    "0x55d1c4a2b2a0, FUTEX_WAKE_PRIVATE, 1",
    "",
)
_RETURNS = (
    "= 0",
    "= 3",
    "= 4096",
    "= -1 EAGAIN (Resource temporarily unavailable)",
    "= -1 ENOENT (No such file or directory)",
    "= 0x7f3a1c000000",
)
_GARBAGE = (
    "strace: Process {pid} attached",
    "strace: Process {pid} detached",
    "",
    "???",
)

# Per-call event shares; the rest are plain one-line calls.
_P_UNFINISHED = 0.06
_P_SIGNAL = 0.004
_P_EXIT = 0.001
_P_GARBAGE = 0.001


def render_lines(names, seed: int):
    """Yield strace text lines (without newlines) for `names`, in order.

    The same names and seed always give the same lines.
    """
    rng = random.Random(seed)
    pids = [1000 + 37 * i + seed % 997 for i in range(4)]
    pending: list[list] = []  # [lines still to wait, resumed line]
    for name in names:
        u = rng.random()
        pid = pids[int(rng.random() * len(pids))]
        style = rng.random()
        if style < 0.45:
            prefix = f"[pid {pid}] "
        elif style < 0.8:
            prefix = f"{pid}  "
        else:
            prefix = ""
        args = _ARGS[int(u * 1e6) % len(_ARGS)]
        ret = _RETURNS[int(u * 1e7) % len(_RETURNS)]
        if u < _P_UNFINISHED:
            yield f"{prefix}{name}({args} <unfinished ...>"
            pending.append([1 + int(rng.random() * 3), f"{prefix}<... {name} resumed>) {ret}"])
        else:
            yield f"{prefix}{name}({args}) {ret}"
        if pending:
            due = []
            for item in pending:
                item[0] -= 1
                if item[0] <= 0:
                    due.append(item)
            for item in due:
                pending.remove(item)
                yield item[1]
        v = rng.random()
        if v < _P_SIGNAL:
            yield (f"[pid {pid}] --- SIGCHLD {{si_signo=SIGCHLD, si_code=CLD_EXITED, "
                   f"si_pid={pid + 1}, si_uid=0, si_status=0}} ---")
        elif v < _P_SIGNAL + _P_EXIT:
            yield f"{pid + 1}  +++ exited with 0 +++"
        elif v < _P_SIGNAL + _P_EXIT + _P_GARBAGE:
            yield _GARBAGE[int(v * 1e6) % len(_GARBAGE)].format(pid=pid)
    for _, line in pending:
        yield line


def render_file(names_path, out_path, seed: int) -> int:
    """Render the name-per-line file at names_path as strace text at
    out_path; returns the number of lines written."""
    with open(names_path, "r", encoding="ascii") as fh:
        names = fh.read().splitlines()
    n = 0
    with open(out_path, "w", encoding="ascii", newline="\n") as out:
        chunk = []
        for line in render_lines(names, seed):
            chunk.append(line)
            if len(chunk) >= 65536:
                out.write("\n".join(chunk) + "\n")
                n += len(chunk)
                chunk = []
        if chunk:
            out.write("\n".join(chunk) + "\n")
            n += len(chunk)
    return n
