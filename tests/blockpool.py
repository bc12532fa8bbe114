"""Test helpers for the shared thread pool in pufsec._blocks.

Every pooled kernel writes each row block into its own slice of a
preallocated output, so it must give the same bits on the pool, on an
oversubscribed pool and with every block run inline on the calling thread.
Public quantizer, stats and info functions must run on the calling thread
only: the perfbench tracer keeps one span stack, which is not thread-safe.
"""

import functools
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

from pufsec import _blocks, info, quantizer, stats


def run_blocks_inline(job, blocks):
    """Every block in order, on the calling thread."""
    for blk in blocks:
        job(blk)


def pooled_crowded_inline(monkeypatch, results):
    """results() three times: on the shared pool; on a pool with four times
    as many threads as CPUs, switching between threads every 1 us; and with
    every block run inline (left so for the rest of the test)."""
    pooled = results()
    switch = sys.getswitchinterval()
    threads = 4 * _blocks._THREADS
    with ThreadPoolExecutor(threads) as pool:
        monkeypatch.setattr(_blocks, "_POOL", pool)
        monkeypatch.setattr(_blocks, "_THREADS", threads)
        sys.setswitchinterval(1e-6)
        try:
            crowded = results()
        finally:
            sys.setswitchinterval(switch)
    monkeypatch.setattr(_blocks, "_run_blocks", run_blocks_inline)
    return pooled, crowded, results()


def spy_public_calls(monkeypatch, namespaces):
    """Wrap every public quantizer, stats and info function wherever one of
    `namespaces` binds it; returns the list of thread ids that called one."""
    public = {id(f): f for mod in (quantizer, stats, info)
              for name, f in vars(mod).items()
              if not name.startswith("_")
              and isinstance(f, types.FunctionType)
              and f.__module__ == mod.__name__}
    calls = []

    def spy(f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            calls.append(threading.get_ident())
            return f(*args, **kwargs)
        return wrapper

    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if id(obj) in public:
                monkeypatch.setattr(ns, name, spy(obj))
    return calls


def spy_threads(f, workers):
    """f, recording each calling thread in `workers`; the calling thread
    sleeps 1 ms per call to leave blocks for the pool.  Until a pool thread
    has called f, the calling thread also waits up to 0.1 s before each of
    its calls: a pool thread can take longer than 1 ms to wake on a loaded
    machine, and a call with two blocks then ran both on the calling
    thread (29 of 1,000 summaries of TestNodePool's test under four busy
    processes on 2 CPUs, none with the wait)."""
    main = threading.get_ident()
    pooled = threading.Event()

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        workers.add(threading.get_ident())
        if threading.get_ident() == main:
            pooled.wait(0.1)
            time.sleep(1e-3)
        else:
            pooled.set()
        return f(*args, **kwargs)
    return wrapper
