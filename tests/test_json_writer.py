"""The CLI's JSON writer against json.dumps(indent=2), byte for byte."""

import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import trisys as ts
from trisys import cli
from trisys.system import DEFAULT_IDENTITY_CAP, FOUR_FAMILY, IDENTITIES, TWO_FAMILY
from conftest import COEFFS, dense_check_identities, random_broken_tables, random_table, random_verified_corpus

COMMANDS = ("verify", "jideal", "split", "decompose", "minimal", "report")
FLAGS = {
    "verify": ((), ("--family", "two")),
    "jideal": ((),),
    "split": ((), ("--generic", "1")),
    "decompose": ((), ("--mode", "restricted"), ("--generic", "1")),
    "minimal": ((), ("--mode", "restricted"), ("--generic", "1")),
    "report": ((), ("--mode", "restricted"), ("--generic", "1")),
}
TEXTS = (
    "dim 3\nprod 1 1 1 = 1 * 3\n",  # nf3 lift: not minimal, mu violation
    "dim 4\nprod 3 4 3 = 1 * 1\nprod 4 3 3 = 1 * 2\n",  # NotAdapted
    "dim 3\nprod 3 1 2 = 1 * 3\n",  # restricted confinement violations
    "dim 2\nlabel 1 x\nprod 1 2 1 = -3/6 * 2\nprod 2 1 1 = 1/2 * 2\n",
)


def _records(report):
    """The reference for a report's violations as the writer writes them: dict records from its residuals."""
    return [
        {"identity": i, "tuple": t, "residual": {str(m): ts.rat_str(Fraction(n, report.denominator)) for m, n in r}}
        for i, t, r in report.residuals
    ]


def _json_dumps(value):
    """json.dumps(value, indent=2) with each IdentityReport in it written as its reference records."""
    return json.dumps(value, indent=2, default=_records)


def _corpus_texts():
    rng = random.Random(17)
    systems = random_verified_corpus(23, 12, max_dim=6) + random_broken_tables(29, 8)
    systems += [random_table(rng, d, d**3 // 2) for d in (2, 3, 4)]
    return list(TEXTS) + [ts.serialize_system(T) for T in systems]


def _stdout(argv):
    out = io.StringIO()
    cli.run_command(argv, out=out, err=io.StringIO())
    return out.getvalue()


def _files(tmp_path):
    paths = []
    for n, text in enumerate(_corpus_texts()):
        path = tmp_path / f"s{n}.lts"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


def test_every_command_document_matches_json_dumps():
    parser = cli._build_parser()
    documents = 0
    for n, text in enumerate(_corpus_texts()):
        path = f"s{n}.lts"
        for command in COMMANDS:
            for flags in FLAGS[command]:
                args = parser.parse_args([command, *flags, path])
                if getattr(args, "cap", 0) is None:
                    args.cap = DEFAULT_IDENTITY_CAP
                try:
                    _, doc = cli._HANDLERS[command](path, text, args)
                except ts.TriSysError:
                    continue  # error documents are covered through run_command below
                assert cli._dumps(doc) == _json_dumps(doc)
                documents += 1
    assert documents > 200


def test_cli_json_output_is_json_dumps_of_itself(tmp_path):
    # json.loads keeps key order and every value type a document holds, so
    # this compares the emitted bytes with json.dumps(indent=2) of the same
    # document; it covers check-error documents and --each batch arrays
    paths = _files(tmp_path)
    lift = tmp_path / "nf3.lbr"
    lift.write_text("dim 3\nbrk 1 1 = 1 * 2\nbrk 2 1 = 1 * 3\n", encoding="utf-8")
    argvs = [[command, "--json", *flags, path] for path in paths for command in COMMANDS for flags in FLAGS[command]]
    argvs.append(["lift-leibniz", "--json", str(lift)])
    argvs += [[command, "--each", "--json", *paths] for command in COMMANDS]
    errors = batches = 0
    for argv in argvs:
        out = _stdout(argv)
        if not out:
            continue  # usage errors write nothing to stdout
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n", argv
        batches += isinstance(doc, list)
        errors += any("error" in d for d in (doc if isinstance(doc, list) else [doc]))
    assert batches == len(COMMANDS)
    assert errors > 10


_TEXT_POOL = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "ß", "中", " ", "\U0001f600", "\U00010348", "a", " ", "key"]


def _random_str(rng):
    return "".join(rng.choice(_TEXT_POOL) for _ in range(rng.randint(0, 6)))


def _random_value(rng, depth=0):
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind == 1:
        return rng.choice([0, -1, 1, 2**63, -(2**64) - 1, 10**30, -(10**40)]) + rng.randint(-3, 3)
    if kind == 2:
        return rng.randint(-(2**70), 2**70)
    if kind in (3, 4, 5):
        return _random_str(rng)
    if kind in (6, 7):
        items = [_random_value(rng, depth + 1) for _ in range(rng.choice([0, 0, 1, 3, 5]))]
        return tuple(items) if kind == 7 else items
    return {_random_str(rng): _random_value(rng, depth + 1) for _ in range(rng.choice([0, 0, 1, 3, 5]))}


def test_random_nested_values_match_json_dumps():
    rng = random.Random(41)
    values = [_random_value(rng) for _ in range(3000)]
    values += [[], {}, [[]], [{}], {"": {}}, {"a": []}, ((),), [[[]], {}], (), "", 0, True, None]
    for value in values:
        assert cli._dumps(value) == json.dumps(value, indent=2), value


@pytest.mark.parametrize(
    "value",
    [{1, 2}, {"a": {"b": frozenset()}}, {"a": [b"bytes"]}],
    ids=["set", "nested-frozenset", "bytes"],
)
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError):
        cli._dumps(value)
    with pytest.raises(TypeError):
        cli._dumps([value, ts.IdentityReport("both", (), 3)])


@pytest.mark.parametrize(
    "value",
    [1.5, [1, 2.0], {1: "int key"}],
    ids=["float", "nested-float", "int-key"],
)
def test_floats_and_int_keys_match_json_dumps(value):
    # json.dumps writes them; only reports and what json.dumps refuses are the writer's own
    assert cli._dumps(value) == json.dumps(value, indent=2)
    report = ts.IdentityReport("four", (("four.1", (1, 2, 3, 4, 5), ((1, -12), (3, 1))),), 5, 6)
    assert cli._dumps({"x": value, "v": report}) == _json_dumps({"x": value, "v": report})


def test_the_writer_keeps_no_reference_to_a_report():
    # json.dumps leaves its encoder in a reference cycle: a report held there would stay until a collection
    report = ts.IdentityReport("four", (("four.1", (1, 2, 3, 4, 5), ((1, 1),)),), 5)
    values = ({"v": report}, [report, {"w": [report]}])
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = sys.getrefcount(report)
        for value in values:
            cli._dumps(value)
            assert sys.getrefcount(report) == before
    finally:
        if enabled:
            gc.enable()


def test_a_document_with_the_string_nul_and_a_report_is_refused():
    # json.dumps writes a report as the string "\0" first: any other "\0" string or key is refused, not written wrong
    report = ts.IdentityReport("four", (("four.1", (1, 2, 3, 4, 5), ((1, 1),)),), 5)
    for value in ({"a": "\0", "v": report}, [report, "\0"], {"\0": 1, "v": [report]}):
        with pytest.raises(ValueError):
            cli._dumps(value)
    for value in ({"a": "\0"}, ["\0", "a\0b"], {"v": report, "a": "a\0", "b": "\0\0"}):
        assert cli._dumps(value) == _json_dumps(value)


# --- violation records --------------------------------------------------------------

_IDENTITY_NAMES = tuple(IDENTITIES)
_RATIONAL = (Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(-5, 4), Fraction(7, 6))


def _residual_tables():
    """Dense failing tables, dim 3-6, with integer and with rational coefficients."""
    rng = random.Random(151)
    return [
        random_table(rng, dim, rng.randint(dim**2 // 2, dim**2), coeffs)
        for dim in (3, 4, 5, 6)
        for coeffs in (COEFFS, _RATIONAL)
    ]


def test_violation_record_documents_match_json_dumps():
    parser = cli._build_parser()
    multi = negative = fractional = 0
    for n, T in enumerate(_residual_tables()):
        text, path = ts.serialize_system(T), f"r{n}.lts"
        for command, family in (("verify", "four"), ("verify", "two"), ("report", "both")):
            args = parser.parse_args([command, "--family", family, path])
            args.cap = DEFAULT_IDENTITY_CAP
            _, doc = cli._HANDLERS[command](path, text, args)
            report = doc["violations"]
            assert type(report) is ts.IdentityReport and not report.ok
            assert cli._dumps(doc) == _json_dumps(doc)
            nested = [report, {"v": [report], "w": report}, {"x": {"y": [report, {"z": report}]}}]
            assert cli._dumps(nested) == _json_dumps(nested)
            for v in _records(report):
                values = v["residual"].values()
                multi += len(values) > 1
                negative += any(c.startswith("-") for c in values)
                fractional += any("/" in c for c in values)
    assert multi and negative and fractional


def _two_digit_tables():
    """Dense failing tables of dim 10-12, so tuple entries and targets reach two digits."""
    rng = random.Random(173)
    return [
        random_table(rng, dim, rng.randint(dim * 4, dim * dim // 2), coeffs)
        for dim, coeffs in ((10, COEFFS), (11, _RATIONAL), (12, COEFFS))
    ]


def test_two_digit_violation_records_match_json_dumps():
    parser = cli._build_parser()
    digits = set()
    for n, T in enumerate(_two_digit_tables()):
        text, path = ts.serialize_system(T), f"w{n}.lts"
        for command, family in (("verify", "four"), ("verify", "two"), ("report", "both")):
            args = parser.parse_args([command, "--family", family, path])
            args.cap = DEFAULT_IDENTITY_CAP
            _, doc = cli._HANDLERS[command](path, text, args)
            report = doc["violations"]
            assert not report.ok
            assert cli._dumps(doc) == _json_dumps(doc)
            digits.update(x for _, t, pairs in report.residuals for x in (*t, *(m for m, _ in pairs)) if x >= 10)
    assert digits == {10, 11, 12}


def test_each_json_over_two_digit_and_dim_3_files_is_json_dumps_of_itself(tmp_path):
    # single documents write records at one indent and a batch at the next, over radices 11, 12 and 4
    rng = random.Random(179)
    tables = _two_digit_tables()[:2] + [random_table(rng, 3, 12)]
    paths = []
    for n, T in enumerate(tables):
        assert not ts.check_identities(T).ok
        path = tmp_path / f"e{n}.lts"
        path.write_text(ts.serialize_system(T), encoding="utf-8")
        paths.append(str(path))
    singles = [_stdout(["report", "--json", path]) for path in paths]
    out = _stdout(["report", "--each", "--json", *paths])
    docs = json.loads(out)
    assert out == json.dumps(docs, indent=2) + "\n"
    assert docs == [json.loads(single) for single in singles] and [d["dim"] for d in docs] == [10, 11, 3]


def test_writer_peak_memory_stays_under_twice_its_output():
    # the writer's traced peak on the largest report here, its output included
    parser = cli._build_parser()
    docs = []
    for n, T in enumerate(_two_digit_tables() + _residual_tables()):
        path = f"m{n}.lts"
        args = parser.parse_args(["report", path])
        args.cap = DEFAULT_IDENTITY_CAP
        docs.append(cli._HANDLERS["report"](path, ts.serialize_system(T), args)[1])
    doc = max(docs, key=lambda d: len(cli._dumps(d)))
    tracemalloc.start()
    try:
        written = cli._dumps(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(written) > 1_000_000 and peak < 2 * len(written), peak / len(written)


def _random_report(rng):
    """A hand-built report: every identity name, 1-5 targets, big ints, negative numerators."""
    ints = (1, 7, 3, 12, 2**70, 2**65 + 1)
    residuals = {
        (rng.choice(_IDENTITY_NAMES), tuple(rng.choice(ints) for _ in range(5))): tuple(
            (m, rng.choice((1, -1, 5, -36, 2**80, -(3**50)))) for m in sorted(rng.sample(range(1, 2**40), rng.randint(1, 5)))
        )
        for _ in range(rng.choice((0, 1, 2, 5)))
    }
    return ts.IdentityReport("both", [(i, t, r) for (i, t), r in residuals.items()], 6, rng.choice((1, 1, 6, 36, 2**64)))


def test_hand_built_violation_records_match_json_dumps():
    rng = random.Random(157)
    names = set()
    for _ in range(500):
        report = _random_report(rng)
        names.update(ident for ident, _, _ in report.residuals)
        for value in (report, {"violations": report, "x": [report]}, [[report]]):
            assert cli._dumps(value) == _json_dumps(value), value
    assert names == set(_IDENTITY_NAMES)
    empty = ts.IdentityReport("both", (), 3)
    assert cli._dumps(empty) == "[]" and cli._dumps({"v": [empty]}) == json.dumps({"v": [[]]}, indent=2)
    one = ts.IdentityReport("four", (("four.1", (1, 2, 3, 4, 5), ((1, -12), (3, 1))),), 5, 6)
    written = [{"identity": "four.1", "tuple": [1, 2, 3, 4, 5], "residual": {"1": "-2", "3": "1/6"}}]
    assert _records(one) == [{**written[0], "tuple": (1, 2, 3, 4, 5)}]
    assert cli._dumps({"v": one}) == json.dumps({"v": written}, indent=2)


_FAMILIES = {"four": FOUR_FAMILY, "two": TWO_FAMILY, "both": _IDENTITY_NAMES}


def _family_report(rng, family, dim):
    """A hand-built report with every identity of the family and digits up to dim.

    Its radices are K = len(family) and R = dim + 1; 5-tuples come from a
    small pool, so several identities share one.
    """
    names = _FAMILIES[family]
    pool = [tuple(rng.choices(range(1, dim + 1), k=5)) for _ in range(rng.randint(1, 4))]
    cells = [(name, rng.choice(pool)) for name in names]
    cells += [(rng.choice(names), rng.choice(pool)) for _ in range(rng.randint(0, 12))]
    cells = list(dict.fromkeys(cells))
    rng.shuffle(cells)
    numerators = (1, -1, 5, -36, 2**80, -(3**50))
    residuals = []
    for name, tup in cells:
        targets = sorted(rng.sample(range(1, dim + 1), rng.randint(1, min(5, dim))))
        residuals.append((name, tup, tuple((m, rng.choice(numerators)) for m in targets)))
    return ts.IdentityReport(family, residuals, dim, rng.choice((1, 6, 36, 2**64)))


def test_radix_openings_match_json_dumps_for_every_family_and_dim():
    # a record's opening is read off cell // (R*K) and cell % (R*K); every family's K against every R
    rng = random.Random(163)
    radices, targets, shared = set(), set(), 0
    for family in _FAMILIES:
        for dim in range(1, 10):
            for _ in range(12):
                report = _family_report(rng, family, dim)
                R, idents = report._cells[:2]
                assert (R, len(idents)) == (dim + 1, len(_FAMILIES[family]))
                radices.add((family, R))
                tuples = [t for _, t, _ in report.residuals]
                shared += len(set(tuples)) < len(tuples)
                targets.update(len(pairs) for _, _, pairs in report.residuals)
                assert cli._violation_count(report) == len(report.residuals)
                for value in (report, {"violations": report, "x": [report]}, [[report]]):
                    assert cli._dumps(value) == _json_dumps(value), (family, dim)
    assert {("two", 2), ("four", 4), ("both", 6)} <= radices  # R == K
    assert targets == {1, 2, 3, 4, 5} and shared > 100


def test_hand_built_reports_equal_computed_ones():
    # rebuilt from a computed report's residuals, or from the dense oracle's
    # Fraction residuals over denominator 1: equal, same hash, same bytes
    for T in _residual_tables()[:6]:
        for family in ("four", "two", "both"):
            report = ts.check_identities(T, family)
            for hand in (
                ts.IdentityReport(family, report.residuals, T.dim, report.denominator),
                dense_check_identities(T, family),
            ):
                assert hand == report and hash(hand) == hash(report)
                assert cli._dumps({"v": hand}) == cli._dumps({"v": report}) == _json_dumps({"v": report})
                assert cli._violation_count(hand) == cli._violation_count(report) == len(report.residuals)


@pytest.mark.parametrize(
    "residuals",
    [
        [("four.1", (1, 2, 3, 4, 5), ())],  # no target
        [("four.1", (1, 2, 3, 4, 0), ((1, 1),))],  # index 0
        [("four.1", (1, 2, 3, 4, 5), ((-1, 1),))],  # negative target
        [("four.1", (1, 2, 3, 4), ((1, 1),))],  # not a 5-tuple
        [("four.1", (1, 2, 3, 4, 5), ((1, 1),)), ("four.2", (1, 2, 3, 4, 5), ((1, 1),)), ("four.1", (1, 2, 3, 4, 5), ((2, 1),))],
    ],
    ids=["empty", "zero", "negative", "short", "twice"],
)
def test_malformed_hand_built_residuals_are_refused(residuals):
    with pytest.raises(ValueError):
        ts.IdentityReport("four", residuals, 5)


# --- the write path -----------------------------------------------------------------


class _Recorder:
    """An output stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def _dense_files(tmp_path):
    """Dense failing dim-5 tables, one file each."""
    rng = random.Random(167)
    paths = []
    for n in range(3):
        T = random_table(rng, 5, rng.randint(40, 62))
        assert not ts.check_identities(T).ok
        path = tmp_path / f"dense{n}.lts"
        path.write_text(ts.serialize_system(T), encoding="utf-8")
        paths.append(str(path))
    return paths


def test_each_json_document_and_batch_is_one_write(tmp_path):
    paths = _dense_files(tmp_path) + _files(tmp_path)[:4]
    argvs = [[command, "--json", *flags, path] for path in paths for command in COMMANDS for flags in FLAGS[command]]
    argvs += [[command, "--each", "--json", *paths] for command in COMMANDS]
    for argv in argvs:
        out = _Recorder()
        cli.run_command(argv, out=out, err=io.StringIO())
        assert len(out.writes) == 1 and out.writes[0].endswith("\n"), argv
        assert out.writes[0] == _stdout(argv)


def test_each_json_batch_with_two_reports_and_a_check_error_document(tmp_path):
    dense = _dense_files(tmp_path)[:2]
    unadapted = tmp_path / "unadapted.lts"
    unadapted.write_text(TEXTS[1], encoding="utf-8")
    error = json.loads(_stdout(["split", "--json", str(unadapted)]))
    assert list(error) == ["command", "file", "error"] and error["error"]["kind"] == "NotAdapted"
    # report keeps its split error in the document; the batch holds two reports and that document
    out = _stdout(["report", "--each", "--json", *dense, str(unadapted)])
    docs = json.loads(out)
    assert out == json.dumps(docs, indent=2) + "\n"
    assert [bool(d["violations"]) for d in docs] == [True, True, False] and "error" in docs[2]["split"]
    # no command with a report raises a check error, so run_command's own check-error document goes in by hand
    parser = cli._build_parser()
    args = parser.parse_args(["report", *dense])
    args.cap = DEFAULT_IDENTITY_CAP
    reports = [cli._HANDLERS["report"](path, Path(path).read_text(encoding="utf-8"), args)[1] for path in dense]
    batch = [reports[0], error, reports[1]]
    assert cli._dumps(batch, "\n") == _json_dumps(batch) + "\n"
    assert json.loads(cli._dumps(batch)) == [docs[0], error, docs[1]]


def test_json_stdout_bytes_of_the_console_match_run_command(tmp_path):
    paths = _dense_files(tmp_path)
    src = os.path.dirname(os.path.dirname(ts.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in (["report", "--json", paths[0]], ["report", "--each", "--json", *paths[:2]]):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "trisys.cli", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        out, err = io.StringIO(), io.StringIO()
        code = cli.run_command(argv, out=out, err=err)
        assert (proc.returncode, proc.stderr) == (code, b"") == (1, b"")
        assert proc.stdout == out.getvalue().encode("utf-8") and len(proc.stdout) > 100_000
