"""Hypothesis reports a failing example through `hypothesis.extra._patching`,
which imports libcst, and libcst's import raises a DeprecationWarning that
pyproject.toml turns into an error; pytest would then stop the whole run with
INTERNALERROR.  Importing the module here, with that warning ignored, lets a
failing property test fail like any other test."""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
