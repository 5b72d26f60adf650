"""Pure-Python reference kernel used to correct host-time metrics.

The simulator is interpreter-bound: its hot paths are heap pushes and
pops, dict lookups, attribute updates and small method calls.  This
kernel does the same kinds of operations on a fixed, seed-free input,
so the time it takes tracks how fast the host is running Python at the
moment.  The benchmark times it between workload repetitions and scales
every host-time metric by ``NOMINAL_REF_S / measured``.  It runs in a
child process (:class:`KernelProcess`), so that its working set never
counts in the peak RSS of the process that runs the workload.

It must import nothing from ``repro``: a change to the simulator must
never change the yardstick it is measured with.
"""

from __future__ import annotations

import gc
import heapq
import os
import struct
import time

#: Kernel time on the host the benchmark was calibrated on (2-vCPU
#: x86-64 container, CPython 3.11).  Only the ratio to it matters: it
#: keeps corrected metrics in seconds of that host.
NOMINAL_REF_S = 0.17


class _Port:
    __slots__ = ("busy_until", "flits")

    def __init__(self) -> None:
        self.busy_until = 0
        self.flits = 0

    def reserve(self, now: int, n: int) -> int:
        start = now if now > self.busy_until else self.busy_until
        self.busy_until = start + n
        self.flits += n
        return start + n


def kernel(n_ports: int = 8192, n_events: int = 30_000) -> int:
    """A reservation-style event loop over a working set of some MB.

    The working set matters: the simulator's state (caches, directories,
    route tables) does not fit in the host's private caches, and a
    kernel that did would miss the slow-downs a busy neighbour causes
    through the shared cache and memory.  Returns a checksum.
    """
    ports = [_Port() for _ in range(n_ports)]
    routes = {}
    x = 12345
    for i in range(n_ports * 4):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        routes[(i, x & 1023)] = tuple((x >> s) % n_ports for s in (3, 9, 15, 21))
    keys = list(routes)
    n_keys = len(keys)
    heap: list[tuple[int, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    for i in range(512):
        push(heap, (i % 17, i, i))
    seq = 512
    checksum = 0
    for _ in range(n_events):
        t, _, k = pop(heap)
        now = t
        for hop in routes[keys[k]]:
            now = ports[hop].reserve(now, 2)
        checksum = (checksum + now) & 0xFFFFFFF
        push(heap, (now + 1, seq, (k * 2654435761 + seq) % n_keys))
        seq += 1
    return checksum


#: What :func:`kernel` returns with its defaults; a mismatch means the
#: kernel was edited and ``NOMINAL_REF_S`` no longer applies.
EXPECTED_CHECKSUM = 9199688


def time_kernel() -> float:
    """Seconds for one pass of the kernel, measured now.

    The garbage collector is off while it runs: a collection would scan
    the workload's heap, whose size is not a property of the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        checksum = kernel()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if checksum != EXPECTED_CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {checksum} != "
                           f"{EXPECTED_CHECKSUM}: the kernel was changed")
    return elapsed


class KernelProcess:
    """A child process that times :func:`kernel` on request.

    Fork it before the program is imported, so that the child's heap
    stays small.  The kernel's memory is the child's, so the parent's
    peak RSS is the workload's alone.  Both processes are pinned to one
    CPU, and the parent waits while the child runs the kernel: a child
    free to run on another CPU timed that CPU, not the parent's, and
    did not track the parent's speed.  Use as a context manager:
    leaving it ends the child and waits for it.
    """

    def __init__(self) -> None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        req_r, req_w = os.pipe()
        res_r, res_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(req_w)
            os.close(res_r)
            code = 0
            try:
                while os.read(req_r, 1):
                    os.write(res_w, struct.pack("d", time_kernel()))
            except BaseException:
                code = 1
            os._exit(code)
        os.close(req_r)
        os.close(res_w)
        self.pid, self._req, self._res = pid, req_w, res_r

    def time(self) -> float:
        """Seconds for one pass of the kernel in the child, measured now."""
        os.write(self._req, b"t")
        data = os.read(self._res, 8)
        if len(data) != 8:
            raise RuntimeError("the reference kernel process failed")
        return struct.unpack("d", data)[0]

    def __enter__(self) -> "KernelProcess":
        return self

    def __exit__(self, *exc) -> None:
        os.close(self._req)
        os.close(self._res)
        os.waitpid(self.pid, 0)
