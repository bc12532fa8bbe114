"""Test helpers for the shared thread pool in pufsec._blocks.

Every pooled kernel writes each row block into its own slice of a
preallocated output, so it must give the same bits on the pool, on an
oversubscribed pool and with every block run inline on the calling thread.
Public quantizer and stats functions must run on the calling thread only:
the perfbench tracer keeps one span stack, which is not thread-safe.
"""

import functools
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

from pufsec import _blocks, quantizer, stats


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
    """Wrap every public quantizer and stats function wherever one of
    `namespaces` binds it; returns the list of thread ids that called one."""
    public = {id(f): f for mod in (quantizer, stats)
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
    sleeps 1 ms per call to leave blocks for the pool."""
    main = threading.get_ident()

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        workers.add(threading.get_ident())
        if threading.get_ident() == main:
            time.sleep(1e-3)
        return f(*args, **kwargs)
    return wrapper
