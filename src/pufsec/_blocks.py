"""Row blocks run on the calling thread and a shared thread pool.

The channel kernel and I(S;S~|W=w) per node split their rows into blocks
of about _BLOCK_ENTRIES array entries, the Monte-Carlo passes their
samples into chunks, and hand them to _run_blocks.
This module imports nothing from pufsec, so every module of the package
can use the one pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

# Rows are walked in blocks of about this many array entries, so that the
# temporaries stay in cache (2 vCPU, K = 128: 2**18 was up to 36% slower at
# N = 256 in the channel kernel, 2**14 no faster).
_BLOCK_ENTRIES = 1 << 16

# CPUs this process may run on (os.cpu_count() where the platform has no
# affinity mask): a call's blocks run on its own thread and on up to
# _THREADS - 1 pool threads.  The pool starts its threads at the first
# submit, not at import.
_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _new_pool():
    global _POOL
    _POOL = ThreadPoolExecutor(_THREADS, thread_name_prefix="pufsec-blocks")


_new_pool()
# a forked child inherits the pool but none of its threads, and would wait
# forever on its first pooled call: it gets a pool of its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _row_blocks(rows: int, entries_per_row: int):
    """Consecutive slices of the row axis, _BLOCK_ENTRIES entries each."""
    step = max(1, _BLOCK_ENTRIES // entries_per_row)
    return [slice(k, min(k + step, rows)) for k in range(0, rows, step)]


def _run_blocks(job, blocks) -> None:
    """job(blk) for every block.  The calling thread and up to
    _THREADS - 1 pool threads take the blocks one at a time, in order, until
    none is left; a single block runs inline.

    Each job writes only its own slice of a preallocated output or adds
    integer counts under a lock, so the result is the same to the bit for
    any number of threads and any order.  A job never calls _run_blocks:
    its helpers could queue behind pool threads that all wait on theirs.
    Jobs call no public pufsec function (the perfbench tracer's span stack
    is not thread-safe), and numpy's errstate is per thread, so a job sets
    its own.
    """
    if len(blocks) == 1:
        job(blocks[0])
        return
    todo = iter(blocks)
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                blk = next(todo, None)
            if blk is None:
                return
            job(blk)

    helpers = [_POOL.submit(drain)
               for _ in range(min(_THREADS, len(blocks)) - 1)]
    try:
        drain()
    finally:
        for f in helpers:
            f.result()              # waits, and re-raises a job's exception
