"""Configuration shared by the test modules.

When a Hypothesis property fails, its pytest plugin writes the falsifying
example as a patch through `hypothesis.extra._patching`, which imports
libcst.  Importing libcst raises a `DeprecationWarning` from
`mypy_extensions.TypedDict`; under `-W error` that ends the run in an
INTERNALERROR before the example is printed.  libcst is imported here
once, with only that warning ignored, so the later import finds it loaded.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
