import tracemalloc
import warnings

import pytest
from hypothesis import settings

# Deterministic examples and no per-example deadline: a property runs the same
# examples on every run, and a slow host cannot fail it on timing.
settings.register_profile("curvlens", deadline=None, derandomize=True)
settings.load_profile("curvlens")

# Hypothesis' failure report imports this module, which imports libcst where it
# is installed, and libcst's import warns about mypy_extensions.TypedDict.
# Under filterwarnings = error that warning would abort the session
# (INTERNALERROR) on the first failing property, so import it once here.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


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
