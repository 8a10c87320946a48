import warnings

from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# property test cannot pass on one push and fail on the next; local runs keep
# the default random seeds.
settings.register_profile("ci", derandomize=True)

# When a property test fails, hypothesis's pytest plugin imports this module
# to write a patch. Where libcst is installed, that import raises a
# DeprecationWarning from an old mypy_extensions; under `python -W error` it
# would end the whole pytest run with INTERNALERROR and hide the failure. It is
# imported once here with that one warning class ignored; every warning a
# test raises is still an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
