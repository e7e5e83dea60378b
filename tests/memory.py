"""Memory measurement shared by the tests: `tracemalloc` around one call.

numpy reports its array data to `tracemalloc`, so the counts include
every array a call makes, and exclude those made before it.
"""

from __future__ import annotations

import tracemalloc


def traced_bytes(call) -> tuple[int, int]:
    """(current, peak) bytes allocated by call() and traced: current is what
    is still held while call's result is alive, peak the most held at once
    during the call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        current, peak = tracemalloc.get_traced_memory()
        del result  # kept until measured
        return current, peak
    finally:
        tracemalloc.stop()


def largest_traced_block() -> int:
    """Bytes of the largest block alive now among those traced; call it
    inside `traced_bytes`."""
    return max((trace.size for trace in tracemalloc.take_snapshot().traces), default=0)
