import argparse
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import trisys as ts
from trisys import cli
from trisys.cli import run_command
from conftest import (
    COEFFS,
    dense_check_identities,
    make_nf3_lift,
    random_broken_tables,
    random_split_systems,
    random_table,
    random_verified_corpus,
)

JA_TEXT = "dim 2\nprod 1 2 1 = 1 * 2\nprod 2 1 1 = -1 * 2\n"
JB_TEXT = (
    "dim 2\nprod 1 2 1 = 2 * 1\nprod 1 2 2 = -2 * 2\n"
    "prod 2 1 1 = -2 * 1\nprod 2 1 2 = 2 * 2\n"
)
NF3T_TEXT = "dim 3\nprod 1 1 1 = 1 * 3\n"
NF3_BRK_TEXT = "dim 3\nbrk 1 1 = 1 * 2\nbrk 2 1 = 1 * 3\n"
BROKEN_TEXT = "dim 1\nprod 1 1 1 = 1 * 1\n"
UNADAPTED_TEXT = "dim 4\nprod 3 4 3 = 1 * 1\nprod 4 3 3 = 1 * 2\n"
CONFINE_TEXT = "dim 3\nprod 3 1 2 = 1 * 3\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# --- parsing ------------------------------------------------------------------


def test_parse_system_jacobson():
    T = ts.parse_system(JA_TEXT)
    assert T.dim == 2
    assert T.table[(1, 2, 1)] == (Fraction(1), 2)


def test_parse_system_nf3t():
    assert ts.parse_system(NF3T_TEXT).table == make_nf3_lift().table


def test_parse_zero_coefficient_forwarded():
    with pytest.raises(ts.ZeroCoefficient):
        ts.parse_system("dim 2\nprod 1 2 1 = 0 * 2\n")


def test_parse_comments_and_blanks():
    text = "# header\n\ndim 2   # trailing\n\nprod 1 2 1 = 1 * 2\n"
    T = ts.parse_system(text)
    assert T.dim == 2 and len(T.entries) == 1


def test_parse_labels():
    T = ts.parse_system("dim 2\nlabel 1 x\nlabel 2 y\nprod 1 2 1 = 1 * 2\n")
    assert T.labels == ("x", "y")


def test_parse_label_out_of_range():
    with pytest.raises(IndexError):
        ts.parse_system("dim 2\nlabel 3 z\n")


def test_labels_roundtrip_in_serialization():
    text = "dim 2\nlabel 2 y\nprod 1 2 1 = 1 * 2\n"
    assert ts.serialize_system(ts.parse_system(text)) == text


def test_parse_rational_coefficients():
    T = ts.parse_system("dim 2\nprod 1 2 1 = -3/6 * 2\n")
    assert T.table[(1, 2, 1)] == (Fraction(-1, 2), 2)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("prod 1 1 1 = 1 * 1\n", "expected 'dim'"),
        ("dim\n", "expected 'dim N'"),
        ("dim 2\ndim 2\n", "duplicate 'dim'"),
        ("dim 2\nprod 1 2 = 1 * 2\n", "expected 'prod"),
        ("dim 2\nprod 1 2 1 = x * 2\n", "rational"),
        ("dim 2\nprod 1 2 1 = 1/0 * 2\n", "denominator"),
        ("dim 2\nbrk 1 1 = 1 * 2\n", "expected 'prod'"),
        ("dim 2\nwhat 1 2\n", "expected 'prod'"),
        ("dim 2\nlabel 1 x\nlabel 1 y\n", "duplicate label"),
        # superscript digits pass str.isdigit but int() refuses them
        ("dim 3\nprod 1 1 \u00b2 = 1 * 3\n", "line 2, column 10: expected an integer, got '\u00b2'"),
        ("dim \u00b2\n", "line 1, column 5: expected an integer, got '\u00b2'"),
        ("dim 3\nlabel \u00b9 x\n", "line 2, column 7: expected an integer, got '\u00b9'"),
        # other Unicode decimal digits pass str.isdecimal and int() reads them: ASCII only
        ("dim 3\nprod 1 1 \u0663 = 1 * 3\n", "line 2, column 10: expected an integer, got '\u0663'"),
        ("dim \u0663\n", "line 1, column 5: expected an integer, got '\u0663'"),
        ("dim 3\nlabel \u0663 x\n", "line 2, column 7: expected an integer, got '\u0663'"),
        ("dim 3\nprod 1 1 1 = \u0663/2 * 3\n", "line 2, column 14: expected a rational 'p' or 'p/q', got '\u0663/2'"),
    ],
)
def test_parse_errors_carry_line_info(text, fragment):
    with pytest.raises(ts.ParseError) as exc:
        ts.parse_system(text)
    assert fragment in str(exc.value)
    assert exc.value.line >= 1


def test_parse_leibniz_nf3():
    L = ts.parse_leibniz(NF3_BRK_TEXT)
    assert L.dim == 3
    assert L.table[(1, 1)] == ((Fraction(1), 2),)


def test_parse_leibniz_zero_bracket():
    L = ts.parse_leibniz("dim 2\n")
    assert L.dim == 2 and not L.entries


def test_parse_leibniz_index_error():
    with pytest.raises(IndexError):
        ts.parse_leibniz("dim 2\nbrk 1 3 = 1 * 1\n")


def test_parse_leibniz_rejects_prod_lines():
    with pytest.raises(ts.ParseError):
        ts.parse_leibniz(NF3T_TEXT)


# --- serialization ---------------------------------------------------------------


def test_serialize_parse_roundtrip_value():
    T = ts.parse_system(JA_TEXT)
    assert ts.parse_system(ts.serialize_system(T)) == T


def test_serialize_canonical_bytes():
    scrambled = "dim 2\nprod 2 1 1 = -1 * 2\nprod 1 2 1 = 1 * 2\n"
    assert ts.serialize_system(ts.parse_system(scrambled)) == JA_TEXT


def test_serialize_leibniz_roundtrip():
    L = ts.parse_leibniz(NF3_BRK_TEXT)
    assert ts.serialize_leibniz(L) == NF3_BRK_TEXT
    assert ts.parse_leibniz(ts.serialize_leibniz(L)) == L


def test_roundtrip_byte_stable_on_random_files():
    rng = random.Random(97)
    for _ in range(100):
        dim = rng.randint(1, 6)
        T = random_table(rng, dim, rng.randint(0, 6))
        if rng.random() < 0.3:
            labels = {i: f"b{i}" for i in range(1, dim + 1) if rng.random() < 0.5}
            T = ts.construct_system(dim, T.entries, labels=labels)
        text = ts.serialize_system(T)
        again = ts.serialize_system(ts.parse_system(text))
        assert again == text
        assert ts.parse_system(again) == T


# --- exit codes -------------------------------------------------------------------


def test_verify_clean_exit_zero(tmp_path):
    code, out, _ = run(["verify", write(tmp_path, "ja.lts", JA_TEXT)])
    assert code == 0
    assert "leibniz: yes" in out
    assert "multiplicative: yes" in out


def test_verify_violations_exit_one(tmp_path):
    code, out, _ = run(["verify", write(tmp_path, "bad.lts", BROKEN_TEXT)])
    assert code == 1
    assert "leibniz: no" in out
    assert "violation: four.1 (1,1,1,1,1)" in out


def test_verify_family_flag(tmp_path):
    code, out, _ = run(["verify", "--family", "two", write(tmp_path, "ja.lts", JA_TEXT)])
    assert code == 0
    assert "family: two" in out


def test_malformed_exit_two(tmp_path):
    code, _, err = run(["verify", write(tmp_path, "bad.lts", "dim 2\nprod 1 2 = 1\n")])
    assert code == 2
    assert "error" in err


def test_missing_file_exit_two(tmp_path):
    code, _, err = run(["verify", str(tmp_path / "absent.lts")])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "flags", [[], ["--json"], ["--each"], ["--json", "--each"]], ids=["text", "json", "each", "json-each"]
)
def test_undecodable_file_exit_two(tmp_path, flags):
    bad = tmp_path / "bad.lts"
    bad.write_bytes(b"dim 2\n\xff\n")
    good = write(tmp_path, "ja.lts", JA_TEXT)
    each = "--each" in flags
    code, out, err = run(["verify", *flags, str(bad), *([good] if each else [])])
    assert code == 2
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte\n"
    # --each carries on with the next file
    _, good_out, _ = run(["verify", *(["--json"] if "--json" in flags else []), good])
    if flags == ["--each"]:
        assert out == f"== {bad} ==\n== {good} ==\n{good_out}"
    elif each:
        assert json.loads(out) == [json.loads(good_out)]
    else:
        assert out == ""


@pytest.mark.parametrize(
    "command, name",
    [(command, "huge.lts") for command in ("verify", "jideal", "split", "decompose", "minimal", "report")]
    + [("lift-leibniz", "huge.brk")],
)
def test_huge_dim_exit_two(tmp_path, command, name):
    # a dim past the index range ends in one error line, not a traceback
    code, out, err = run([command, write(tmp_path, name, "dim 99999999999999999999\n")])
    assert (code, out) == (2, "")
    assert err == "error: cannot fit 'int' into an index-sized integer\n"


def test_unknown_command_exit_two():
    code, _, _ = run(["frobnicate", "x.lts"])
    assert code == 2


def test_jideal_command(tmp_path):
    code, out, _ = run(["jideal", write(tmp_path, "nf3t.lts", NF3T_TEXT)])
    assert code == 0
    assert "rank: 1" in out
    assert "row: 0 0 1" in out
    assert "annihilation: yes" in out


def test_split_command(tmp_path):
    code, out, _ = run(["split", write(tmp_path, "nf3t.lts", NF3T_TEXT)])
    assert code == 0
    assert "iset: {3}" in out
    assert "jset: {1,2}" in out


def test_split_not_adapted_exit_one(tmp_path):
    code, out, _ = run(["split", write(tmp_path, "na.lts", UNADAPTED_TEXT)])
    assert code == 1
    assert "NotAdapted" in out


def test_split_generic_flag(tmp_path):
    path = write(tmp_path, "nf3t.lts", NF3T_TEXT)
    code, out, _ = run(["split", "--generic", "2,3", path])
    assert code == 0
    assert "mode: generic" in out and "iset: {2,3}" in out
    code, out, _ = run(["split", "--generic", "1", path])
    assert code == 1
    assert "NotAdmissible" in out
    code, out, _ = run(["split", "--generic", "", path])
    assert code == 0
    assert "iset: {}" in out


def test_decompose_command(tmp_path):
    code, out, _ = run(["decompose", write(tmp_path, "nf3t.lts", NF3T_TEXT)])
    assert code == 0
    assert "classes: {1,3} {2}" in out
    assert "entry: prod 1 1 1 = 1 * 3" in out
    assert "orthogonal: yes" in out
    assert "ideals: yes" in out
    assert "covers: yes" in out
    assert "modes_agree: yes" in out


def test_decompose_reports_mode_disagreement(tmp_path):
    path = write(tmp_path, "confine.lts", CONFINE_TEXT)
    code, out, _ = run(["decompose", "--generic", "3", path])
    assert code == 0
    assert "modes_agree: no" in out


def test_decompose_restricted_confinement_exit_one(tmp_path):
    path = write(tmp_path, "confine.lts", CONFINE_TEXT)
    code, out, _ = run(["decompose", "--mode", "restricted", "--generic", "3", path])
    assert code == 1
    assert "confinement_violations: 1" in out
    code, out, _ = run(["decompose", "--generic", "3", path])
    assert code == 0


def test_minimal_command(tmp_path):
    code, out, _ = run(["minimal", write(tmp_path, "nf3t.lts", NF3T_TEXT)])
    assert code == 0
    assert "verdict: not_minimal" in out
    assert "counterexample_ideal: {2}" in out
    assert "mu_violation: t1=3 pair=(1',1') t2=1" in out


def test_minimal_oracle_cap_is_inclusive(tmp_path):
    path = write(tmp_path, "nf3t.lts", NF3T_TEXT)
    code, out, _ = run(["minimal", "--oracle-cap", "3", path])
    assert code == 0
    assert "oracle_used: yes\nverdict: not_minimal\ncounterexample_ideal: {2}\n" in out
    code, out, _ = run(["minimal", "--oracle-cap", "2", path])
    assert code == 0
    assert out.endswith("oracle_used: no\nverdict: criterion_inapplicable\n")


def test_lift_command(tmp_path):
    code, out, _ = run(["lift-leibniz", write(tmp_path, "nf3.brk", NF3_BRK_TEXT)])
    assert code == 0
    assert out == "dim 3\nprod 1 1 1 = 1 * 3\n"


def test_lift_not_leibniz_exit_one(tmp_path):
    code, out, _ = run(["lift-leibniz", write(tmp_path, "bad.brk", "dim 1\nbrk 1 1 = 1 * 1\n")])
    assert code == 1
    assert "NotLeibniz" in out


def test_lift_rejects_system_file(tmp_path):
    code, _, err = run(["lift-leibniz", write(tmp_path, "nf3t.lts", NF3T_TEXT)])
    assert code == 2


def test_report_command(tmp_path):
    code, out, _ = run(["report", write(tmp_path, "ja.lts", JA_TEXT)])
    assert code == 0
    for section in ("[verify]", "[jideal]", "[split]", "[decompose]", "[minimal]"):
        assert section in out


def test_report_unadapted_partial(tmp_path):
    code, out, _ = run(["report", write(tmp_path, "na.lts", UNADAPTED_TEXT)])
    assert code == 1
    assert "error: NotAdapted" in out
    assert "[decompose]" not in out


def test_each_flag(tmp_path):
    a = write(tmp_path, "a.lts", JA_TEXT)
    b = write(tmp_path, "b.lts", BROKEN_TEXT)
    code, out, _ = run(["verify", "--each", a, b])
    assert code == 1
    assert f"== {a} ==" in out and f"== {b} ==" in out


def test_each_json_single_document(tmp_path):
    a = write(tmp_path, "a.lts", JA_TEXT)
    b = write(tmp_path, "b.lts", BROKEN_TEXT)
    code, out, _ = run(["verify", "--each", "--json", a, b])
    assert code == 1
    docs = json.loads(out)
    assert [d["file"] for d in docs] == [a, b]
    assert [d["leibniz"] for d in docs] == [True, False]


def test_multiple_files_without_each_rejected(tmp_path):
    a = write(tmp_path, "a.lts", JA_TEXT)
    b = write(tmp_path, "b.lts", JA_TEXT)
    code, _, err = run(["verify", a, b])
    assert code == 2
    assert "--each" in err


def test_cap_flag_and_env(tmp_path, monkeypatch):
    big = "dim 13\n"
    path = write(tmp_path, "big.lts", big)
    code, _, err = run(["verify", path])
    assert code == 2
    assert "cap" in err
    code, _, _ = run(["verify", "--cap", "13", path])
    assert code == 0
    monkeypatch.setenv("TRISYS_CAP", "13")
    code, _, _ = run(["verify", path])
    assert code == 0


def test_bad_cap_env_is_usage_error(tmp_path, monkeypatch):
    path = write(tmp_path, "a.lts", JA_TEXT)
    monkeypatch.setenv("TRISYS_CAP", "abc")
    for command in ("verify", "report"):
        code, out, err = run([command, path])
        assert code == 2
        assert out == ""
        assert err == "error: TRISYS_CAP must be an integer, got 'abc'\n"


def test_integer_options_read_ascii_digits_only(tmp_path, monkeypatch):
    # int() alone also reads other decimal digits, '_', '+' and surrounding spaces; files refuse them
    path = write(tmp_path, "a.lts", JA_TEXT)
    odd = ("+12", " 12", "12 ")
    if hasattr(sys, "get_int_max_str_digits"):  # beyond int()'s digit limit
        odd += ("9" * (sys.get_int_max_str_digits() + 1),)
    for command, flag in (("verify", "--cap"), ("minimal", "--oracle-cap")):
        for value in _FLAG_VALUES[flag][1] + odd:
            code, out, err = run([command, f"{flag}={value}", path])
            assert (code, out) == (2, ""), value
            assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n"), value
        assert run([command, f"{flag}=12", path])[0] == 0
    for value in ("\u0661\u0662", "1_2") + odd:
        monkeypatch.setenv("TRISYS_CAP", value)
        assert run(["verify", path]) == (2, "", f"error: TRISYS_CAP must be an integer, got {value!r}\n"), value


def test_json_output_roundtrip(tmp_path):
    path = write(tmp_path, "nf3t.lts", NF3T_TEXT)
    code, out, _ = run(["decompose", "--json", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == [[1, 3], [2]]
    assert doc["covers"] is True
    assert json.dumps(doc, indent=2) + "\n" == out


def test_json_minimal(tmp_path):
    path = write(tmp_path, "nf3t.lts", NF3T_TEXT)
    code, out, _ = run(["minimal", "--json", path])
    doc = json.loads(out)
    assert doc["verdict"] == "not_minimal"
    assert doc["counterexample_ideal"] == [2]
    assert doc["mu_violation"] == "t1=3 pair=(1',1') t2=1"


def test_reports_deterministic(tmp_path):
    path = write(tmp_path, "nf3t.lts", NF3T_TEXT)
    for argv in (["report", path], ["decompose", "--json", path]):
        first = run(argv)
        second = run(argv)
        assert first == second


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "ja.lts", JA_TEXT)
    # the child imports trisys from where this process found it
    src = os.path.dirname(os.path.dirname(ts.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "trisys.cli", "verify", path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert "leibniz: yes" in proc.stdout


# --- argument parsing -------------------------------------------------------------

# each flag's values, good ones first: (good, bad)
_FLAG_VALUES = {
    "--family": (("four", "two", "both"), ("three", "")),
    "--cap": (("2", "12", "-1"), ("x", "", "\u0661\u0662", "1_2")),
    "--mode": (("literal", "restricted"), ("lit", "")),
    "--oracle-cap": (("0", "5"), ("1.5", "\u0661\u0662", "1_2")),
    "--generic": (("1", "2,1", "", "-", "9"), ("x",)),
}
_BARE_TOKENS = (
    "--json", "--each", "--js", "--ea", "--mo", "--he", "--fam", "--c", "--o", "--gen", "-h", "--help",
    "--", "-", "-x", "--unknown", "--json=1", "--each=", "extra",
)
_COMMAND_TOKENS = ("frobnicate", "rep", "ver", "lift", "deco", "", "Report", "report ", "-report")


def _well_formed_argv(rng, files):
    """A known command with some of its own flags, good values, and a file, or two with --each."""
    command = rng.choice(tuple(cli._COMMAND_OPTIONS))
    argv = [command]
    for flag in rng.sample(cli._COMMAND_OPTIONS[command], rng.randint(0, len(cli._COMMAND_OPTIONS[command]))):
        argv += [flag, rng.choice(_FLAG_VALUES[flag][0])]
    argv += ["--json"] * (rng.random() < 0.4)
    if rng.random() < 0.8:  # a file of the right kind: files[3] holds a bracket, files[:3] tables
        files = files[3:4] * 2 if command == "lift-leibniz" else files[:3]
    if rng.random() < 0.2:
        return argv + ["--each", *rng.sample(files, 2)]
    return argv + [rng.choice(files)]


def _argv_corpus(rng, files, count):
    """Random argument lists: known, unknown, prefix and empty commands, every flag with good and bad values."""
    corpus = []
    for _ in range(count):
        if rng.random() < 0.35:
            corpus.append(_well_formed_argv(rng, files))
            continue
        argv = []
        if rng.random() < 0.1:  # an option before the command
            argv.append(rng.choice(("-h", "--help", "--he", "--json", "--", "-x", "--mode")))
        command = rng.choice(_COMMAND_TOKENS if rng.random() < 0.15 else tuple(cli._COMMAND_OPTIONS))
        if rng.random() < 0.95:
            argv.append(command)
        own = cli._COMMAND_OPTIONS.get(command) or tuple(_FLAG_VALUES)
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 4))):
            r = rng.random()
            if r < 0.5:
                flag = rng.choice(own if rng.random() < 0.8 else tuple(_FLAG_VALUES))
                value = rng.choice(_FLAG_VALUES[flag][rng.random() < 0.2])
                argv += [f"{flag}={value}"] if rng.random() < 0.2 else [flag, value]
            elif r < 0.7:
                argv.append(rng.choice(_BARE_TOKENS))
            else:
                argv.append(rng.choice(files))
        if rng.random() < 0.8:
            argv.append(rng.choice(files))
        corpus.append(argv)
    return corpus


def _kind(code, out, err):
    if code == 0 and out.startswith("usage:"):
        return "help"
    if code == 2 and "usage:" in err:
        return "usage error"
    return "input error" if code == 2 else "run"


def test_every_argv_gives_the_bytes_of_the_full_parser(tmp_path, monkeypatch):
    # neither the plain-argv path nor the parser shared across calls changes a byte:
    # argparse alone, with a fresh parser per call, prints alike
    files = [
        write(tmp_path, name, text)
        for name, text in (
            ("ja.lts", JA_TEXT), ("nf3t.lts", NF3T_TEXT), ("bad.lts", BROKEN_TEXT),
            ("nf3.brk", NF3_BRK_TEXT), ("syntax.lts", "dim 2\nprod 1 2 = 1\n"),
        )
    ] + [str(tmp_path / "absent.lts")]
    argvs = _argv_corpus(random.Random(71), files, 2500)
    shared = [run(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    for argv, got in zip(argvs, shared):
        assert got == run(argv), argv
    kinds = [_kind(*result) for result in shared]
    counts = {kind: kinds.count(kind) for kind in ("help", "usage error", "input error", "run")}
    assert min(counts.values()) >= 100, counts
    assert {code for code, _, _ in shared} == {0, 1, 2}


def test_plain_argv_give_the_namespace_of_the_full_parser_or_go_to_it():
    files = ["ja.lts", "nf3t.lts", "bad.lts", "nf3.brk", "syntax.lts", "absent.lts"]
    parser = cli._build_parser()
    taken = 0
    for argv in _argv_corpus(random.Random(71), files, 2500):
        args = cli._plain_args(argv)
        if args is not None:
            taken += 1
            assert args == parser.parse_args(argv), argv
    assert taken > 800
    # the benchmark's four shapes, and argv that only the full parser reads
    for argv in (["report", "f"], ["decompose", "f"], ["minimal", "--generic=1,2", "f"], ["report", "--json", "f"]):
        assert cli._plain_args(argv) == parser.parse_args(argv), argv
    for argv in (
        [], ["-h"], ["report"], ["report", "-h"], ["report", "--", "f"], ["report", "--js", "f"], ["report", "f", "--json"],
        ["report", "--json=1", "f"], ["report", "--cap", "-1", "f"], ["report", "--cap", "x", "f"], ["report", "--cap"],
        ["verify", "--generic", "1", "f"], ["split", "--generic", "-", "f"], ["split", "--generic=", "f"], ["rep", "f"],
        ["--json", "report", "f"],
    ):
        assert cli._plain_args(argv) is None, argv


def test_run_command_reads_sys_argv_by_default(tmp_path, monkeypatch):
    path = write(tmp_path, "ja.lts", JA_TEXT)
    for argv in (["report", "--json", path], ["verify", "--each", path, path], ["rep", path], [], ["-h"]):
        expected = run(argv)
        monkeypatch.setattr(sys, "argv", ["trisys", *argv])
        assert run(None) == expected


def test_parser_is_built_once(tmp_path, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(
        argparse._SubParsersAction, "add_parser", lambda self, name, **kw: added.append(name) or add_parser(self, name, **kw)
    )
    cli._build_parser.cache_clear()
    path = write(tmp_path, "ja.lts", JA_TEXT)
    assert run(["report", path])[0] == 0
    assert added == []  # plain argv are read without the parser
    assert run(["report", "--", path])[0] == 0
    assert added == list(cli._COMMAND_OPTIONS)
    added.clear()
    assert run(["verify", "--", path])[0] == 0
    monkeypatch.setattr(sys, "argv", ["trisys", "report", "--", path])
    assert run(None)[0] == 0
    assert added == []


def test_help_follows_the_terminal_width_under_the_shared_parser(monkeypatch):
    outputs = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        got = run(["report", "-h"])
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            assert run(["report", "-h"]) == got
        outputs.append(got)
    assert outputs[0][0] == 0 and outputs[0] != outputs[1]


# --- robustness ------------------------------------------------------------------


@pytest.mark.parametrize("command", ["decompose", "minimal", "split"])
@pytest.mark.parametrize(
    "text",
    [
        "dim 500\n",
        "dim 500\nprod 1 2 1 = 1 * 2\nprod 2 1 1 = -1 * 2\nprod 300 300 300 = 1 * 499\n",
    ],
    ids=["empty", "three-entries"],
)
def test_wide_sparse_file_finishes_quickly(tmp_path, command, text):
    # the connection layer costs one table scan plus dim, not dim**4
    path = write(tmp_path, "wide.tri", text)
    start = time.perf_counter()
    code, out, err = run([command, path])
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert "dim: 500" in out
    assert elapsed < 20, f"{command} on a dim-500 file took {elapsed:.1f} s"


def run_under_512_mb(*argv):
    """The CLI in a subprocess whose address space is capped at 512 MB, so an allocation fails instead of the machine."""
    src = os.path.dirname(os.path.dirname(ts.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    limited = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))\n"
        "from trisys.cli import main\n"
        "main()\n"
    )
    return subprocess.run(
        [sys.executable, "-c", limited, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


@pytest.mark.parametrize("dim", [20000, 100000])
def test_wide_sparse_decompose_runs_in_bounded_memory(tmp_path, dim):
    # about dim classes, of which only the straddled ones get their own orthogonality row,
    # and the renderer reads each distinct row once
    text = f"dim {dim}\nprod 1 2 1 = 1 * 2\nprod 2 1 1 = -1 * 2\nprod 300 300 300 = 1 * 499\n"
    path = write(tmp_path, "wide.tri", text)
    start = time.perf_counter()
    proc = run_under_512_mb("decompose", path)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "\ncovers: yes\n" in proc.stdout and "\northogonal: yes\n" in proc.stdout
    assert elapsed < 20, f"decompose on a dim-{dim} file took {elapsed:.1f} s"


@pytest.mark.parametrize("command", ["split", "verify", "decompose"])
def test_an_allocation_that_fails_exits_2_naming_the_file(tmp_path, command):
    # every command builds a dim-long labels tuple, which no machine holds at dim 10**12;
    # only ever run this under the address-space limit
    huge = write(tmp_path, "huge.tri", "dim 1000000000000\n")
    proc = run_under_512_mb(command, huge)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {huge}: out of memory\n")


def test_each_goes_on_after_an_allocation_that_fails(tmp_path):
    huge = write(tmp_path, "huge.tri", "dim 1000000000000\n")
    good = write(tmp_path, "ja.lts", JA_TEXT)
    proc = run_under_512_mb("split", "--each", huge, good)
    assert (proc.returncode, proc.stderr) == (2, f"error: {huge}: out of memory\n")
    assert proc.stdout == f"== {huge} ==\n== {good} ==\n" + run(["split", good])[1]


def test_text_decompose_reports_a_non_orthogonal_pair(tmp_path):
    # in restricted mode the straddling entry 5 2 6 -> 5 joins classes {5} and {2}
    path = write(tmp_path, "cross.tri", "dim 6\nprod 5 2 6 = 1 * 5\n")
    code, out, _ = run(["decompose", "--mode", "restricted", path])
    assert code == 1 and "\northogonal: no\n" in out


def test_minimal_counterexample_on_a_wide_file_needs_no_subset_enumeration(tmp_path):
    # the counterexample is the least principal closure, not the first of 2**60 subsets
    path = write(tmp_path, "d60.tri", "dim 60\n")
    start = time.perf_counter()
    code, out, err = run(["minimal", "--oracle-cap", "64", path])
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert "verdict: not_minimal\n" in out and "counterexample_ideal: {1}\n" in out
    assert elapsed < 20, f"minimal on a dim-60 file took {elapsed:.1f} s"


@pytest.mark.parametrize(
    "text, code, expected",
    [
        ("dim 500\n", 0, "dim 500\n"),
        (
            "dim 500\nbrk 1 1 = 1 * 2\nbrk 2 1 = 1 * 3\nbrk 3 1 = 1 * 4\n",
            0,
            "dim 500\nprod 1 1 1 = 1 * 3\nprod 2 1 1 = 1 * 4\n",
        ),
        (
            "dim 500\nbrk 400 400 = 1 * 400\n",
            1,
            "error: NotLeibniz: bracket fails the Leibniz identity at basis triple (400, 400, 400)\n",
        ),
    ],
    ids=["empty", "nf-chain", "not-leibniz"],
)
def test_wide_bracket_lift_finishes_quickly(tmp_path, text, code, expected):
    # the Leibniz check and the lift read their triples off joined bracket keys, not dim**3
    path = write(tmp_path, "wide.brk", text)
    start = time.perf_counter()
    result = run(["lift-leibniz", path])
    elapsed = time.perf_counter() - start
    assert result == (code, expected, "")
    assert elapsed < 20, f"lift-leibniz on a dim-500 bracket took {elapsed:.1f} s"


def test_wide_generic_split_finishes_quickly(tmp_path):
    # a declared ideal spanned by basis vectors is checked on the entry digraph, with no row reduction
    path = write(tmp_path, "wide.tri", "dim 2000\n")
    iset = ",".join(str(i) for i in range(1, 1001))
    start = time.perf_counter()
    code, out, err = run(["split", "--generic", iset, path])
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert f"iset: {{{iset}}}\n" in out and "jset: {1001,1002," in out
    assert elapsed < 20, f"split --generic with 1,000 indices on a dim-2000 file took {elapsed:.1f} s"


def test_generic_split_builds_no_unit_rows(tmp_path, monkeypatch):
    # --generic hands the parsed indices to split_basis: no coordinate space and no basis vector is built
    calls = []
    for module, name in ((ts.exactnum, "coordinate_space"), (ts.jideal, "coordinate_space"), (ts.exactnum, "basis_vector")):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    wide = ",".join(str(i) for i in range(1, 1001))
    cases = [("dim 2000\n", wide, 0), (NF3T_TEXT, "3", 0), (NF3T_TEXT, "1", 1), (JA_TEXT, "2", 1), (JA_TEXT, "", 0)]
    cases += [(NF3T_TEXT, "3,4", 2), (NF3T_TEXT, "-1", 2)]
    for text, iset, code in cases:
        path = write(tmp_path, "t.lts", text)
        for command in ("split", "decompose", "minimal"):
            assert run([command, "--generic", iset, path])[0] == code, (command, text[:20], iset[:20])
    assert calls == []


# split and minimal --generic 1,...,4000 on wide20000.lts, the entry-free dim-20000 file below
WIDE_GENERIC_SHA256 = {
    "split": (108_974, "ad3043082a0f7bbc1a805ff74fb5b9f36e42fe278aee94697145f615c09bc238"),
    "minimal": (156, "1ac76827250a236907ba5c63e396c19668b70294775e9610874d6f2e4eb3dcc0"),
}


def test_wide_generic_split_runs_under_256_mb(tmp_path):
    # 4,000 dense unit rows of 20,000 coordinates would take ~630 MB; the split reads the indices alone
    (tmp_path / "wide20000.lts").write_text("dim 20000\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(ts.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    limited = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 * 2**20, 256 * 2**20))\n"
        "from trisys.cli import main\n"
        "main()\n"
    )
    iset = ",".join(str(i) for i in range(1, 4001))
    for command, (size, digest) in WIDE_GENERIC_SHA256.items():
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", limited, command, "--generic", iset, "wide20000.lts"],
            cwd=tmp_path,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr[-2000:]
        assert (len(proc.stdout), hashlib.sha256(proc.stdout).hexdigest()) == (size, digest), command
        assert elapsed < 10, f"{command} --generic with 4,000 indices on a dim-20000 file took {elapsed:.1f} s"


def test_generic_iset_repeats_and_order_do_not_matter(tmp_path):
    path = write(tmp_path, "nf3t.lts", NF3T_TEXT)
    for command in (["split"], ["split", "--json"], ["decompose"], ["minimal", "--json"]):
        for messy, plain in (("3,1,3", "1,3"), ("3,3", "3"), ("2,3,2", "2,3")):
            assert run([*command, "--generic", messy, path]) == run([*command, "--generic", plain, path])
    assert run(["split", "--generic", "3,4", path]) == (2, "", "error: basis index 4 out of range 1..3\n")
    assert run(["split", "--generic", "-1", path]) == (2, "", "error: basis index -1 out of range 1..3\n")
    assert run(["split", "--generic", " 3, 1 ", path]) == run(["split", "--generic", "1,3", path])
    # the integers of the file format: ASCII digits and an optional '-', which int() alone does not enforce
    for bad in ("1_0", "\u0663", "+3", "3,+1", "1,,3"):
        assert run(["split", "--generic", bad, path]) == (
            2, "", f"error: expected a comma-separated index list, got {bad!r}\n"
        )


def test_cli_closes_input_files(tmp_path):
    path = write(tmp_path, "ja.lts", JA_TEXT)
    src = os.path.dirname(os.path.dirname(ts.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "trisys.cli", "report", "--each", path, path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert "ResourceWarning" not in proc.stderr


# --- one analysis per report -------------------------------------------------------


def _count_calls(monkeypatch, home, fn_name):
    """Count calls of home.fn_name through every trisys module that binds it."""
    original = getattr(home, fn_name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "trisys" or name.startswith("trisys.")) and getattr(module, fn_name, None) is original:
            monkeypatch.setattr(module, fn_name, counted)
    return calls


@pytest.mark.parametrize(
    "flags, text",
    [
        ((), JA_TEXT),
        ((), NF3T_TEXT),
        (("--mode", "restricted"), CONFINE_TEXT),
        ((), UNADAPTED_TEXT),
        (("--generic", "3"), NF3T_TEXT),
        (("--generic", "2"), JA_TEXT),
    ],
    ids=["leibniz", "not-minimal", "restricted", "split-refused", "generic", "generic-refused"],
)
def test_report_parses_and_computes_the_ideal_once(tmp_path, monkeypatch, flags, text):
    parses = _count_calls(monkeypatch, ts.fileformat, "parse_system")
    ideals = _count_calls(monkeypatch, ts.jideal, "compute_jideal")
    for json_flag in ((), ("--json",)):
        parses.clear()
        ideals.clear()
        code, out, _ = run(["report", *json_flag, *flags, write(tmp_path, "t.lts", text)])
        assert code in (0, 1) and out
        assert (len(parses), len(ideals)) == (1, 1)


def test_decompose_partitions_each_mode_once(tmp_path, monkeypatch):
    partitions = _count_calls(monkeypatch, ts.connect, "partition")
    path = write(tmp_path, "nf3t.lts", NF3T_TEXT)
    for mode in ("literal", "restricted"):
        partitions.clear()
        code, _, _ = run(["decompose", "--mode", mode, path])
        assert code == 0
        assert [args[1] for args in partitions] == [mode, "restricted" if mode == "literal" else "literal"]


def test_report_partitions_each_mode_once(tmp_path, monkeypatch):
    # the minimal section reuses the decomposition's partition of the requested mode:
    # its call reads the split's memo and computes nothing
    partitions = _count_calls(monkeypatch, ts.connect, "partition")
    computed = _count_calls(monkeypatch, ts.connect, "_partition")
    for text in (NF3T_TEXT, JA_TEXT, CONFINE_TEXT):
        path = write(tmp_path, "t.lts", text)
        for mode in ("literal", "restricted"):
            other = "restricted" if mode == "literal" else "literal"
            for json_flag in ((), ("--json",)):
                partitions.clear()
                computed.clear()
                code, out, _ = run(["report", *json_flag, "--mode", mode, path])
                assert code in (0, 1) and out
                assert [args[1] for args in computed] == [mode, other]
                assert [args[1] for args in partitions] == [mode, other, mode]


def test_each_command_scans_the_steps_once_and_partitions_each_mode_once(tmp_path, monkeypatch):
    # the partitions and the mu check of both pair domains read one entry pass, kept with the
    # split like its partitions; the per-source step order is built for reachability witnesses only
    scans = _count_calls(monkeypatch, ts.connect, "_scan_entries")
    ordered = _count_calls(monkeypatch, ts.connect, "_ordered_steps")
    partitions = _count_calls(monkeypatch, ts.connect, "_partition")
    for text in (NF3T_TEXT, JA_TEXT, JB_TEXT, CONFINE_TEXT):
        path = write(tmp_path, "t.lts", text)
        for mode, other in (("literal", "restricted"), ("restricted", "literal")):
            for command, computed in (("report", [mode, other]), ("decompose", [mode, other]), ("minimal", [mode])):
                for json_flag in ((), ("--json",)):
                    scans.clear()
                    ordered.clear()
                    partitions.clear()
                    code, out, _ = run([command, *json_flag, "--mode", mode, path])
                    assert code in (0, 1) and out
                    assert len(scans) == 1 and not ordered, (text, command, mode)
                    assert [args[1] for args in partitions] == computed, (text, command, mode)


_SECTION_KEYS = {
    "jideal": ("rank", "rows", "generators", "rounds", "annihilation"),
    "decompose": (
        "mode", "classes", "components", "orthogonality", "ideals", "covers", "confinement_violations",
        "modes_agree", "ok",
    ),
    "minimal": (
        "mu_multiplicative", "mu_violation", "i_connected", "j_connected", "oracle_used", "verdict",
        "counterexample_ideal",
    ),
}


def _composed_report(name, text, args):
    """report as composed from the other commands: a parse, an ideal and a split per section."""
    code, doc = cli._cmd_verify(name, text, args)
    doc["command"] = "report"
    T = ts.parse_system(text)
    doc["jideal"] = {k: cli._cmd_jideal(name, text, args)[1][k] for k in _SECTION_KEYS["jideal"]}
    try:
        S = cli._split_for(T, args)
    except (ts.NotAdapted, ts.NotAdmissible, ts.NotLeibniz, ts.NotMultiplicative) as err:
        doc["split"] = {"error": type(err).__name__, "message": str(err)}
        return 1, doc
    doc["split"] = {"mode": S.mode, "iset": list(S.iset), "jset": list(S.jset)}
    dec_code, dec_doc = cli._cmd_decompose(name, text, args)
    doc["decompose"] = {k: dec_doc[k] for k in _SECTION_KEYS["decompose"]}
    min_doc = cli._cmd_minimal(name, text, args)[1]
    doc["minimal"] = {k: min_doc[k] for k in _SECTION_KEYS["minimal"]}
    return max(code, dec_code), doc


def _report_outputs(argvs):
    """Text and --json output of each report, or the error it raised."""
    outputs = []
    for argv in argvs:
        for json_flag in ((), ("--json",)):
            try:
                outputs.append(run(["report", *json_flag, *argv]))
            except ts.TriSysError as exc:
                outputs.append(repr(exc))
    return outputs


def test_report_matches_composition_of_commands(tmp_path, monkeypatch):
    rng = random.Random(53)
    argvs = []
    for n, T in enumerate(random_verified_corpus(61, 20, max_dim=7)):
        path = write(tmp_path, f"v{n}.lts", ts.serialize_system(T))
        iset = ",".join(map(str, ts.split_system(T).iset))
        subset = ",".join(str(i) for i in range(1, T.dim + 1) if rng.random() < 0.4)
        argvs += [[path], ["--mode", "restricted", path], ["--generic", iset, path], ["--generic", subset, path]]
    for n, dim in enumerate((3, 4) * 3 + (5,)):
        T = random_table(rng, dim, rng.randint(dim**2, dim**3 // 2))
        path = write(tmp_path, f"d{n}.lts", ts.serialize_system(T))
        argvs += [[path], ["--generic", str(rng.randint(1, dim)), path]]
    for n, text in enumerate((JA_TEXT, JB_TEXT, NF3T_TEXT, UNADAPTED_TEXT, CONFINE_TEXT, BROKEN_TEXT)):
        path = write(tmp_path, f"f{n}.lts", text)
        argvs += [[path], ["--mode", "restricted", "--oracle-cap", "2", path], ["--family", "two", path]]
    argvs.append(["--each", *(args[-1] for args in argvs[:12])])
    one_analysis = _report_outputs(argvs)
    monkeypatch.setitem(cli._HANDLERS, "report", _composed_report)
    assert one_analysis == _report_outputs(argvs)
    joined = "".join(map(str, one_analysis))
    assert "error: NotAdapted" in joined and "error: NotAdmissible" in joined
    assert "generic" in joined and "restricted" in joined


# --- sparse violation residuals -------------------------------------------------------


_RATIONAL = (Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(-5, 4), Fraction(7, 6))


def _violation_corpus(name):
    rng = random.Random(131)
    if name == "broken":
        return random_broken_tables(137, 12)
    if name == "random":
        return [random_table(rng, dim, rng.randint(1, dim**3)) for dim in (1, 2, 3, 4) for _ in range(3)]
    if name == "full":
        return [random_table(rng, dim, dim**3) for dim in (1, 2, 3, 4) for _ in range(2)]
    return [random_table(rng, dim, rng.randint(dim, dim**3), _RATIONAL) for dim in (2, 3, 4) for _ in range(3)]


def _dense_violation_docs(T, family):
    """The violations section as rendered from dense residual vectors."""
    return [
        {
            "identity": ident,
            "tuple": list(tup),
            "residual": {str(p + 1): ts.rat_str(c) for p, c in enumerate(vec) if c},
        }
        for ident, tup, vec in dense_check_identities(T, family).violations
    ]


@pytest.mark.parametrize("corpus", ["broken", "random", "full", "rational"])
def test_violation_documents_match_dense_rendering(tmp_path, corpus):
    multi = fractional = 0
    for n, T in enumerate(_violation_corpus(corpus)):
        path = write(tmp_path, f"t{n}.lts", ts.serialize_system(T))
        for family in ("four", "two", "both"):
            expected = _dense_violation_docs(T, family)
            for command in ("verify", "report"):
                code, out, _ = run([command, "--json", "--family", family, path])
                assert code == (1 if expected else 0)
                doc = json.loads(out)
                assert doc["violations"] == expected, (T, family, command)
                assert doc["leibniz"] == (not expected)
            for v in expected:
                multi += len(v["residual"]) > 1
                fractional += any("/" in c for c in v["residual"].values())
    assert multi
    if corpus == "rational":
        assert fractional


def test_cli_builds_no_dense_residual_vector(tmp_path, monkeypatch):
    reports = []
    original = ts.system.check_identities

    def keep(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "check_identities", keep)
    T = random_table(random.Random(139), 4, 30)
    path = write(tmp_path, "dense.lts", ts.serialize_system(T))
    for argv in (["verify", path], ["verify", "--json", path], ["report", "--json", path], ["report", path]):
        assert run(argv)[0] == 1
    assert len(reports) == 4 and all(report.residuals for report in reports)
    assert not any("violations" in vars(report) for report in reports)


def test_json_report_builds_no_violation_records(tmp_path, monkeypatch):
    # --json writes the records straight from the identity cells and decodes
    # no residual; the text renderer decodes only the records it prints and
    # counts the rest without decoding them
    reports, decoded = [], []
    check, records = ts.system.check_identities, ts.IdentityReport._records

    def keep(*args, **kwargs):
        reports.append(check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "check_identities", keep)
    monkeypatch.setattr(ts.IdentityReport, "_records", lambda self: (decoded.append(r) or r for r in records(self)))
    T = random_table(random.Random(139), 4, 30)
    count = len(dense_check_identities(T).violations)
    path = write(tmp_path, "dense.lts", ts.serialize_system(T))
    for argv in (["verify", "--json", path], ["report", "--json", path], ["report", "--each", "--json", path, path]):
        assert run(argv)[0] == 1
    assert decoded == [] and len(reports) == 4
    assert not any("residuals" in vars(report) or "violations" in vars(report) for report in reports)
    assert all(cli._violation_count(report) == count for report in reports)
    for argv in (["verify", path], ["report", path]):
        decoded.clear()
        code, out, _ = run(argv)
        assert code == 1 and f"violations: {count}\n" in out and "more violations" in out
        assert len(decoded) == cli._MAX_TEXT_VIOLATIONS and "residuals" not in vars(reports[-1])
        assert all(f"violation: {i} ({','.join(map(str, t))}) -> " in out for i, t, _ in decoded)


# --- every written violation, replayed ----------------------------------------------
#
# Each identity is written out here as its terms, apart from the library's
# identity table: (a, (b, c, d), f) is {b_a, {b_b, b_c, b_d}, b_f}.

_REPLAY = {
    "four.1": lambda a, b, c, d, f: [(1, (a, (b, c, d), f)), (1, (a, (c, b, d), f))],
    "four.2": lambda a, b, c, d, f: [(1, (a, (b, c, d), f)), (1, (a, (c, d, b), f)), (1, (a, (d, b, c), f))],
    "four.3": lambda a, b, c, d, f: [
        (1, (a, b, (c, d, f))),
        (-1, ((a, b, c), d, f)),
        (1, ((a, b, d), c, f)),
        (-1, ((a, b, f), d, c)),
        (1, ((a, b, f), c, d)),
    ],
    "four.4": lambda a, b, c, d, f: [
        (1, ((c, d, f), b, a)),
        (-1, ((c, d, f), a, b)),
        (-1, ((c, b, a), d, f)),
        (1, ((c, a, b), d, f)),
        (-1, (c, (a, b, d), f)),
        (-1, (c, d, (a, b, f))),
    ],
    "two.1": lambda a, b, c, d, f: [
        (1, (a, (b, c, d), f)),
        (-1, ((a, b, c), d, f)),
        (1, ((a, c, b), d, f)),
        (1, ((a, d, b), c, f)),
        (-1, ((a, d, c), b, f)),
    ],
    "two.2": lambda a, b, c, d, f: [
        (1, (a, b, (c, d, f))),
        (-1, ((a, b, c), d, f)),
        (1, ((a, b, d), c, f)),
        (1, ((a, b, f), c, d)),
        (-1, ((a, b, f), d, c)),
    ],
}


def _replayer(T):
    """(identity, tuple) -> the identity evaluated on the basis 5-tuple with evaluate_product, as a record's residual."""
    basis = [None, *(ts.basis_vector(T.dim, i) for i in range(1, T.dim + 1))]

    @functools.cache
    def product(*args):  # each argument a basis index or an index triple
        return ts.evaluate_product(T, *(basis[x] if type(x) is int else product(*x) for x in args))

    @functools.cache
    def residual(ident, tup):
        total = [Fraction(0)] * T.dim
        for sign, term in _REPLAY[ident](*tup):
            total = [s + sign * x for s, x in zip(total, product(*term))]
        return {str(p + 1): ts.rat_str(c) for p, c in enumerate(total) if c}

    return residual


def _replay_corpus():
    rng = random.Random(167)
    return [
        *random_broken_tables(137, 12),
        *(S.sys for S in random_split_systems(71, 12)),
        *(random_table(rng, dim, rng.randint(dim, dim**3 // 2), _RATIONAL) for dim in (2, 3, 4)),
        *(
            random_table(rng, dim, rng.randint(dim**2 // 2, dim**2), coeffs)
            for dim, coeffs in ((5, COEFFS), (5, _RATIONAL), (6, COEFFS))
        ),
    ]


def test_every_written_violation_replays(tmp_path):
    records = 0
    for n, T in enumerate(_replay_corpus()):
        path = write(tmp_path, f"t{n}.lts", ts.serialize_system(T))
        replayed = _replayer(T)
        oracle = [ident for ident, _, _ in dense_check_identities(T).violations]
        for family in ("four", "two", "both"):
            count = sum(family in ("both", ident.split(".")[0]) for ident in oracle)
            for command in ("verify", "report"):
                doc = json.loads(run([command, "--json", "--family", family, path])[1])
                assert len(doc["violations"]) == count, (T, family, command)
                for v in doc["violations"]:
                    assert v["residual"] == replayed(v["identity"], tuple(v["tuple"])), (T, v)
            records += count
    assert records > 5000


# --- text truncation of the violation list ---------------------------------------------

_TRUNCATION_TABLES = (
    JA_TEXT,  # a Leibniz system: no violations
    "dim 3\nprod 1 3 2 = -1 * 3\n",  # --family two: 1 violation
    "dim 3\nprod 1 3 2 = 2 * 2\nprod 3 1 3 = 2 * 1\n",  # --family both: 20
    "dim 3\nprod 2 3 2 = -2 * 2\nprod 3 2 3 = 2 * 2\n",  # --family four: 21
    ts.serialize_system(random_table(random.Random(163), 5, 60)),  # thousands
    ts.serialize_system(random_table(random.Random(163), 5, 60, _RATIONAL)),  # thousands, rational residuals
)


def _dense_verify_lines(T, family):
    """The text verify section's violation lines, rendered from dense residual vectors."""
    docs = _dense_violation_docs(T, family)
    lines = [f"violations: {len(docs)}"]
    for v in docs[: cli._MAX_TEXT_VIOLATIONS]:
        residual = " ".join(f"{m}={c}" for m, c in v["residual"].items())
        lines.append(f"violation: {v['identity']} ({','.join(map(str, v['tuple']))}) -> {residual}")
    if len(docs) > cli._MAX_TEXT_VIOLATIONS:
        lines.append(f"... {len(docs) - cli._MAX_TEXT_VIOLATIONS} more violations")
    return lines


def test_text_violation_list_is_truncated_after_twenty(tmp_path):
    counts = set()
    for n, text in enumerate(_TRUNCATION_TABLES):
        path = write(tmp_path, f"t{n}.lts", text)
        for family in ("four", "two", "both"):
            expected = _dense_verify_lines(ts.parse_system(text), family)
            counts.add(int(expected[0].split()[1]))
            for command, after in (("verify", []), ("report", ["[jideal]"])):
                code, out, _ = run([command, "--family", family, path])
                lines = out.splitlines()
                start = lines.index(expected[0])
                assert lines[start:start + len(expected) + len(after)] == expected + after, (text, family, command)
                assert command == "report" or start + len(expected) == len(lines)
                assert code == 1 or expected == ["violations: 0"]
    assert {0, 1, 20, 21} <= counts and max(counts) > 1000
    assert "/" in run(["verify", path])[1]  # the last table's printed residuals include fractions
