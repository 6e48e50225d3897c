"""A fixed reference kernel that measures how fast the host runs Python now.

The vCPUs of a shared host switch, every few seconds and each on its own,
between a fast state and one about 1.7 times slower (presumably another
guest busy on the same core), and now and then into slower regimes still.
A run of the benchmark sees an unpredictable mix of them, far more spread
than the regressions it has to catch.  So
``worker.py`` pins a pass to one vCPU and times this kernel between the CLI
commands of the pass, before a command whenever
``worker.CALIBRATE_EVERY_S`` have passed since the last timing, and
``run.py`` scales each command's wall time by ``NOMINAL_S`` over the mean of
the kernel times just before and just after it (:func:`scaled_seconds`):
the time the command would have taken with the kernel running in
``NOMINAL_S``.

The kernel does the kinds of work the program does (dict and set graph
search, regex tokenizing, JSON lines, small file writes and reads) on fixed
data, and does not import ``tsmon``, so a change to the program never
changes the kernel.  The collector is off while it runs, so the program's
heap does not bill the kernel for its collections.
"""

from __future__ import annotations

import gc
import json
import os
import re
import time
from pathlib import Path

# Kernel time in the fast state of a 2-vCPU Intel Xeon VM, Python 3.11.7.
NOMINAL_S = 0.009

_N = 600
_GRAPH = {f"S{i}": [f"S{(i * 7 + 1) % _N}", f"S{(i * 13 + 5) % _N}", f"S{(i + 1) % _N}"] for i in range(_N)}
_TEXT = "\n".join(
    f"S{i} = {{ !msg{i % 7}(seq: int)[0.25] -> S{(i * 3) % _N}; ?ack(x) -> S{(i + 1) % _N} }}  // n{i}"
    for i in range(150)
)
_TOKEN = re.compile(r"\s*(?:(//[^\n]*)|([A-Za-z_]\w*)|(\d+(?:\.\d+)?)|(->|[{}()\[\];:,=!?]))")
_LINES = [
    json.dumps({"seq": i, "action": "msg" if i % 3 else "ack", "dir": "in", "payload": {"k": i % 11}})
    for i in range(250)
]


def kernel(scratch: Path) -> int:
    """One round of the reference work, writing only under ``scratch``;
    returns a checksum so nothing is optimised away."""
    total = 0
    for _ in range(3):  # reachability from every sixtieth state
        for start in list(_GRAPH)[::60]:
            seen = {start}
            stack = [start]
            while stack:
                for nxt in _GRAPH[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            total += len(seen)
    total += sum(1 for m in _TOKEN.finditer(_TEXT) if m.group(2))
    counts: dict[str, int] = {}
    for j in range(5):
        path = scratch / f"kernel{j}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for line in _LINES[j * 50:(j + 1) * 50]:
                fh.write(json.dumps(json.loads(line)) + "\n")
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                event = json.loads(line)
                counts[event["action"]] = counts.get(event["action"], 0) + 1
        os.remove(path)
    return total + sum(counts.values())


def timed_kernel(scratch: Path) -> float:
    """Time of the second of two kernel rounds: the first refills the
    caches the command before it emptied."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel(scratch)
        start = time.perf_counter()
        kernel(scratch)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled_seconds(commands: list[dict], kernel_s: list[float]) -> list[float]:
    """Each command's wall time at nominal host speed.  A command's
    ``kernel`` is the index of the kernel timing just before it; the next
    timing came after it."""
    last = len(kernel_s) - 1
    return [
        c["seconds"] * 2 * NOMINAL_S / (kernel_s[c["kernel"]] + kernel_s[min(c["kernel"] + 1, last)])
        for c in commands
    ]
