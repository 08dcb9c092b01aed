"""Property tests draw the same examples on every run: a failure reproduces,
and a passing suite stays passing. Each test keeps its own ``max_examples``."""

import warnings

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# Hypothesis reports a failing example through a module that imports libcst,
# whose import raises a DeprecationWarning. Under the suite's warnings-as-errors
# that import would abort the whole session instead of reporting the failure,
# so it is made here, once, with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
