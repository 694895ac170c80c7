"""A fixed reference workload that tracks the host's speed.

On a shared host the speed of pure-Python code drifts by tens of
percent over minutes, which would swamp any change to the program.
The benchmark runs :func:`reference_ms` after every request, outside
the timed phase, and scales each request's time by ``NOMINAL_MS`` over
the median reference time of the nine requests around it: a request
that took 20 ms while the reference ran 10% slow is reported as
18.2 ms.  Scaling each request by its neighbours follows the host's
speed as it drifts within a run, which one factor per run cannot.
Each set-up sample is scaled by the mean of references measured right before and right
after it.  The reference is benchmark code, so it is the same on every
commit.

A program could still move its own scale factor: work it defers past
its answer (a helper thread, a background commit) would run alongside
the reference, slow it, and shrink every scaled figure.  So
:class:`Quiet` first waits until the program's processes stop using
the CPU, then takes the reference, and reports how long the program
lingered on the CPU after answering and whether it woke up during the
reference.  The benchmark adds the lingering time to the request's
duration and reports both, so deferred work is paid for and seen.
"""

from __future__ import annotations

import os
import time

#: The reference's time on the host the benchmark was defined on
#: (2 shared vCPUs, Python 3.11.7), in ms.
NOMINAL_MS = 1.4

_ROUNDS = 3000

#: Requests whose references scale one request's time.
LOCAL_WINDOW = 9

#: Median reference per workload over ten runs on the host
#: ``NOMINAL_MS`` was taken on, when the benchmark was defined.  The
#: reference runs in the sweep interpreter itself, or in the client
#: beside the server, so its time differs by workload.
DEFINITION_REFERENCE_MS = {
    "strided-sweep": 1.07,
    "program-sweep": 0.93,
    "lab-service": 1.27,
}

#: A run whose median reference is further than this share from its
#: workload's ``DEFINITION_REFERENCE_MS`` is flagged: its host ran
#: unlike the defining one, or the program slowed the reference.  Over
#: ten runs the references' interquartile range was 10-17% of their
#: median, and single runs of program-sweep read up to 42% above it.
REFERENCE_TOLERANCE = 0.5


def _work() -> int:
    """Integer arithmetic, dict and list traffic and a sort.

    Allocates no objects the garbage collector tracks beyond one dict
    and one list, so the program's heap size cannot trigger a
    collection inside the reference.
    """
    table: dict[int, int] = {}
    items: list[int] = []
    total = 0
    for i in range(_ROUNDS):
        key = (i * 7919) & 255
        table[key] = table.get(key, 0) + (i >> 2)
        items.append(key ^ i)
        total += len(items) & 3
    items.sort()
    return total + sum(table.values()) + items[-1]


def reference_ms() -> float:
    """Wall time of one reference run, in ms."""
    started = time.perf_counter()
    _work()
    return (time.perf_counter() - started) * 1000


def median_reference_ms(runs: int = 5) -> float:
    """The median of ``runs`` reference runs, in ms.

    Imports nothing, so a fresh interpreter can run it before the
    set-up it brackets without loading modules the set-up would load.
    """
    return sorted(reference_ms() for _ in range(runs))[runs // 2]


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference took ``reference`` ms,
    as it would read on the nominal host."""
    return seconds * NOMINAL_MS / reference


def scaled_series(seconds: list[float], references: list[float]) -> list[float]:
    """Per-request times scaled by the median of the references taken
    after the ``LOCAL_WINDOW`` requests around each one."""
    half = LOCAL_WINDOW // 2
    out = []
    for index, value in enumerate(seconds):
        start = max(0, min(index - half, len(references) - LOCAL_WINDOW))
        window = sorted(references[start : start + LOCAL_WINDOW])
        out.append(scaled(value, window[len(window) // 2]))
    return out


#: A program is quiet once its processes use less CPU than this share
#: of a ``QUIET_WINDOW_S`` window.
QUIET_SHARE = 0.05
QUIET_WINDOW_S = 0.001
#: Longest wait for quiet; a program still busy then is reported busy.
QUIET_TIMEOUT_S = 2.0
#: A reference overlapped the program if the program used more CPU
#: during it than this share of the reference's time.
OVERLAP_SHARE = 0.10
#: References between two scans of ``/proc`` for new child processes.
RESCAN_EVERY = 32


def _children() -> dict[int, list[int]]:
    """Parent pid -> child pids, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry))
    return children


def _tree(pid: int) -> list[int]:
    """``pid`` and all its descendants."""
    children = _children()
    tree, index = [pid], 0
    while index < len(tree):
        tree.extend(children.get(tree[index], ()))
        index += 1
    return tree


class Quiet:
    """Takes references only while the process tree of ``pid`` is idle.

    CPU time comes from each thread's ``schedstat`` (nanoseconds).  The
    thread ``exclude_tid`` (the caller's own, when the program runs in
    the calling process) is not counted.
    """

    def __init__(self, pid: int, exclude_tid: int | None = None):
        self.pid = pid
        self.exclude_tid = exclude_tid
        self._pids: list[int] = []
        self._taken = 0

    def _cpu_ns(self) -> int:
        total = 0
        for pid in self._pids:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                if int(tid) == self.exclude_tid:
                    continue
                try:
                    with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                        total += int(handle.read().split()[0])
                except OSError:
                    continue
        return total

    def reference(self) -> tuple[float, float, bool]:
        """``(reference ms, lingered seconds, overlapped)``.

        ``lingered`` is how long the program kept using the CPU after
        this call began (0 for a program that was already idle);
        ``overlapped`` says the program used the CPU during the
        reference anyway.
        """
        if self._taken % RESCAN_EVERY == 0:
            self._pids = _tree(self.pid)
        self._taken += 1
        started = time.perf_counter()
        busy_until = started
        before = self._cpu_ns()
        while True:
            time.sleep(QUIET_WINDOW_S)
            now = time.perf_counter()
            after = self._cpu_ns()
            if (after - before) / 1e9 < QUIET_SHARE * (now - busy_until):
                break
            busy_until, before = now, after
            if now - started > QUIET_TIMEOUT_S:
                break
        ms = reference_ms()
        overlapped = (self._cpu_ns() - after) / 1e6 > OVERLAP_SHARE * ms
        return ms, busy_until - started, overlapped
