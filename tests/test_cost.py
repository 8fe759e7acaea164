"""Cost tests that count work instead of timing it.

A Python-level call (each function entry and each generator resumption that
sys.setprofile reports as a "call" event) repeats exactly from run to run,
where wall time on a shared machine does not.  C-level work is invisible to
the count, so these tests bound the interpreter's share of a cost only.
"""

import io
import sys

import pytest

import trisys as ts
from trisys import cli
from trisys.cli import run_command
from conftest import block_sum, make_jacobson_a, make_nf3_lift

# The calls of `report` on an empty dim-4 file on CPython 3.11.7.
# CPython 3.12 and later inline comprehensions and make fewer.
EMPTY_REPORT_CALLS = 160
# Likewise, the calls of `report` on the one-entry file NF3T and of
# `decompose` on the block sum of the Jacobson system A and NF3T.
NF3T = "dim 3\nprod 1 1 1 = 1 * 3\n"
NF3T_REPORT_CALLS = 179
BLOCK_SUM_DECOMPOSE_CALLS = 147


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


def _calls_of_second_op(argv):
    run_command(argv, io.StringIO(), io.StringIO())
    out, err = io.StringIO(), io.StringIO()
    code, calls = count_calls(run_command, argv, out, err)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue(), calls


def test_small_report_and_decompose_pay_a_bounded_number_of_calls(tmp_path, monkeypatch):
    monkeypatch.delenv("TRISYS_CAP", raising=False)
    small, summed = tmp_path / "nf3t.tri", tmp_path / "sum.tri"
    small.write_text(NF3T, encoding="utf-8")
    summed.write_text(ts.serialize_system(block_sum(make_jacobson_a(), make_nf3_lift())), encoding="utf-8")
    out, calls = _calls_of_second_op(["report", str(small)])
    assert "counterexample_ideal: {2}\n" in out
    assert calls <= NF3T_REPORT_CALLS * 1.1, f"report on NF3T made {calls} Python-level calls"
    out, calls = _calls_of_second_op(["decompose", str(summed)])
    assert "classes: {1,2} {3,5} {4}\n" in out
    assert calls <= BLOCK_SUM_DECOMPOSE_CALLS * 1.1, f"decompose on a block sum made {calls} Python-level calls"


def test_report_builds_the_entry_digraph_and_the_integer_rows_once(tmp_path, monkeypatch):
    # the identity check and the deviation ideal share the integer rows; the closures and minimality share the digraph
    built = {"_successors": [], "_scaled": []}
    for name, systems in built.items():
        view = getattr(ts.TripleSystem, name)
        monkeypatch.setattr(view, "func", lambda T, build=view.func, systems=systems: systems.append(T) or build(T))
    parsed, parse = [], cli.parse_system
    monkeypatch.setattr(cli, "parse_system", lambda text: parsed.append(parse(text)) or parsed[-1])
    summed = ts.serialize_system(block_sum(make_jacobson_a(), make_nf3_lift()))
    for n, text in enumerate((NF3T, summed, "dim 4\n", summed.replace("\nprod", "\n# a comment\nprod", 1))):
        path = tmp_path / f"{n}.tri"
        path.write_text(text, encoding="utf-8")
        for json_flag in ((), ("--json",)):
            parsed.clear()
            for systems in built.values():
                systems.clear()
            assert run_command(["report", *json_flag, str(path)], io.StringIO(), io.StringIO()) == 0
            assert len(parsed) == 1 and all(len(s) == 1 and s[0] is parsed[0] for s in built.values()), text


def test_decompose_and_report_build_no_component_subsystem(tmp_path, monkeypatch):
    # the sections write each component's entries in the parent's indices, so no class is re-indexed
    built = []
    view = ts.Component.subsystem
    monkeypatch.setattr(view, "func", lambda comp, build=view.func: built.append(comp) or build(comp))
    summed = ts.serialize_system(block_sum(make_jacobson_a(), make_nf3_lift()))
    for n, text in enumerate((NF3T, summed, "dim 4\n", "dim 6\nprod 5 2 6 = 1 * 5\n")):
        path = tmp_path / f"{n}.tri"
        path.write_text(text, encoding="utf-8")
        for command in ("decompose", "report"):
            for flags in ((), ("--json",), ("--mode", "restricted"), ("--json", "--mode", "restricted")):
                out = io.StringIO()
                assert run_command([command, *flags, str(path)], out, io.StringIO()) in (0, 1)
                assert "component" in out.getvalue() and not built, (text, command, flags)
