"""Test-session set-up.

When a property test fails, hypothesis writes a patch for the failing example
inside its ``pytest_runtest_makereport`` hook, importing
``hypothesis.extra._patching`` and with it ``libcst``. That import emits a
``DeprecationWarning`` (from ``mypy_extensions``), which the ``error``
warning filter turns into an exception inside the hook, and pytest then
aborts the whole session. Importing the module once here, with that warning
ignored, leaves nothing to warn at failure time; the filter stays as strict
for everything else.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst hypothesis writes no patches
        pass
