"""Session hooks shared by every test module."""

import warnings

import pytest


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Report a failing hypothesis test as a plain FAILED line under
    `pytest -W error` too.  The hypothesis plugin builds the report of a
    failing example through `mypy_extensions.TypedDict`, which warns that it
    is deprecated; `-W error` on the command line overrides the ignore in
    pyproject.toml, so the warning escaped this hook and ended the session in
    an INTERNALERROR that named no test.  Only that warning is ignored, and
    only while the report is made."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                DeprecationWarning)
        yield
