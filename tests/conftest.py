import tracemalloc

import pytest
from hypothesis import settings

# Deterministic examples and no per-example deadline: a property runs the same
# examples on every run, and a slow host cannot fail it on timing.
settings.register_profile("curvlens", deadline=None, derandomize=True)
settings.load_profile("curvlens")


@pytest.fixture
def traced_peak():
    """Run ``call()`` under tracemalloc; return its result and the peak bytes traced."""

    def run(call):
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    return run
