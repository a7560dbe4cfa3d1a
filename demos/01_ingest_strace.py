"""Walk through ingestion: raw strace text in, clean syscall stream out.

The parser classifies each tracer line (plain calls, pid prefixes,
unfinished/resumed splits, signal and exit notices, garbage), keeps only the
syscall names, and derives the frequency table that later picks the bag
slots.
"""

from boscids import build_index, count_table, ingest, parse_line

SNIPPET = """\
[pid  7831] epoll_wait(28, [{EPOLLIN}], 128, -1) = 1
[pid  7831] recvfrom(31, "\\16\\0\\0\\0\\3SELECT 1", 16384, 0, NULL, NULL) = 18
[pid  7831] read(12, "\\1\\0\\0\\1", 16384) = 52
7832  futex(0x7f7a08000b60, FUTEX_WAIT_PRIVATE, 2, NULL <unfinished ...>
[pid  7831] write(25, "result", 6) = 6
--- SIGCHLD {si_signo=SIGCHLD, si_code=CLD_EXITED} ---
7832  <... futex resumed> ) = -1 EAGAIN (Resource temporarily unavailable)
[pid  7831] sendto(31, "\\3ok", 96, 0, NULL, 0) = 96
strace: Process 7833 attached
[pid  7831] openat(AT_FDCWD, "/var/lib/mysql/ibdata1", O_RDWR) = 12
[pid  7831] read(12, "", 16384) = 0
[pid  7833] +++ exited with 0 +++
"""

# the request loop repeats many times between the one-off events above
HOT_LOOP = [
    "[pid  7831] epoll_wait(28, [{EPOLLIN}], 128, -1) = 1",
    '[pid  7831] recvfrom(31, "\\16\\0\\0\\0\\3SELECT 1", 16384, 0, NULL, NULL) = 18',
    '[pid  7831] read(12, "\\1\\0\\0\\1", 16384) = 52',
    '[pid  7831] write(25, "result", 6) = 6',
    '[pid  7831] sendto(31, "\\3ok", 96, 0, NULL, 0) = 96',
]

lines = SNIPPET.splitlines() + HOT_LOOP * 8

print("= line classification (first lines)")
for line in SNIPPET.splitlines():
    parsed = parse_line(line)
    label = parsed.kind + (f" -> {parsed.name}" if parsed.name else "")
    print(f"  {label:24s} | {line[:60]}")

trace = ingest(lines, source="demo snippet")
print(f"\n= extracted stream ({trace.source_meta})")
print(" ", " ".join(trace.names[c] for c in trace.calls))

table = count_table(trace)
print("\n= count table (count desc, name asc)")
for name, count in table:
    print(f"  {name:12s} {count}")

index = build_index(table)
# the rarity threshold T_o is the number of distinct names
print(f"\n= slot index: t_o={len(table)} (names rarer than that fold into OTHER)")
print(f"  retained slots: {list(index.slots)}")
print(f"  n_s = {index.n_s} (retained {len(index.slots)} + the OTHER slot)")
print(f"  resolve('read') = {index.resolve('read')}")
print(f"  resolve('ptrace') = {index.resolve('ptrace')}  <- never seen, goes to OTHER")
