"""Cost tests that count work instead of timing it.

A Python-level call (each function entry and each generator resumption that
sys.setprofile reports as a "call" event) repeats exactly from run to run,
where wall time on a shared machine does not.  C-level work is invisible to
the count, so these tests bound the interpreter's share of a cost only.
"""

import io
import sys

import pytest

from trisys.cli import run_command

# The calls of `report` on an empty dim-4 file on CPython 3.10 and 3.11.
# CPython 3.12 and later inline comprehensions and make fewer.
EMPTY_REPORT_CALLS = 175


def count_calls(fn, *args):
    """fn(*args) and the number of Python-level "call" events it makes, fn's own included."""
    previous = sys.getprofile()
    if previous is not None:
        pytest.skip("another profiler is installed")
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


def test_report_on_an_empty_file_pays_a_bounded_number_of_calls(tmp_path, monkeypatch):
    # what no table entry causes: the identity plan, the index sets and the sections' objects
    monkeypatch.delenv("TRISYS_CAP", raising=False)
    path = tmp_path / "empty.tri"
    path.write_text("dim 4\n", encoding="utf-8")
    argv = ["report", str(path)]
    run_command(argv, io.StringIO(), io.StringIO())
    out, err = io.StringIO(), io.StringIO()
    code, calls = count_calls(run_command, argv, out, err)
    assert (code, err.getvalue()) == (0, "") and "verdict: not_minimal\n" in out.getvalue()
    assert calls <= EMPTY_REPORT_CALLS * 1.1, f"report on an empty dim-4 file made {calls} Python-level calls"
