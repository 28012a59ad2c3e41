import sys
import time
import warnings
from datetime import tzinfo
from pathlib import Path

import pytest

# When a property fails, hypothesis's pytest plugin imports its patch writer, and libcst
# builds a deprecated mypy_extensions.TypedDict as it loads. Under the suite's "error"
# warning filter that warning would escape a plugin hook as an INTERNALERROR and stop the
# run. Import the module once here with that one warning ignored; without libcst the
# plugin skips the patch, so there is nothing to import.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# allow running the suite from a source checkout without installing
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture
def new_york_clock(monkeypatch):
    """Run with the host's local time zone five hours behind UTC in winter."""
    if not hasattr(time, "tzset"):
        pytest.skip("time.tzset is Unix-only")
    # a POSIX rule, so no time zone database is needed
    monkeypatch.setenv("TZ", "EST5EDT,M3.2.0,M11.1.0")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


class _Floating(tzinfo):
    """A zone that gives no UTC offset, so Python counts a datetime holding it as naive."""

    def utcoffset(self, dt):
        return None


@pytest.fixture
def floating():
    return _Floating()
