"""The tracemalloc peak of one call, for the tests that bound memory."""

import tracemalloc


def traced_peak_mib(run) -> float:
    """Peak traced allocation, in MiB, while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
