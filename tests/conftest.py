import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ssweight import linalg  # noqa: E402


@pytest.fixture(autouse=True)
def shared_zero_rows_stay_empty():
    """Every shared zero matrix holds one empty dict as each of its rows,
    and nothing may write to it: after every test, it is still empty."""
    yield
    written = dict(linalg._EMPTY_ROW)
    linalg._EMPTY_ROW.clear()  # so one write fails one test, not all after it
    assert not written, f"a shared zero row was written: {written}"
