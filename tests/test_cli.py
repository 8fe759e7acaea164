import io
import json
import os
import random
import subprocess
import sys

import pytest

import trisys as ts
from trisys.cli import run_command
from conftest import make_nf3_lift, random_table

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
    assert T.table[(1, 2, 1)] == (ts.rat_canon(1), 2)


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
    assert T.table[(1, 2, 1)] == (ts.rat_canon(-1, 2), 2)


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
    assert L.table[(1, 1)] == ((ts.rat_canon(1), 2),)


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
