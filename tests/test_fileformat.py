"""The one-pass parse of canonical system files against the general parse.

A file exactly as serialize_system writes it is parsed in one regex pass;
every other file takes the general line walk.  Both give the same system,
and every other file the same error, byte for byte.
"""

import gc
import io
import random
import weakref
from fractions import Fraction

import pytest

import trisys as ts
from trisys import cli, fileformat
from conftest import random_broken_tables, random_table, random_verified_corpus

NF3T = "dim 3\nprod 1 1 1 = 1 * 3\n"


def general_parse(text):
    """The general path alone: the line walk, then construct_system."""
    dim, entries, labels = fileformat._parse_body(text, "prod")
    return ts.construct_system(dim, entries, labels=labels)


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # a parse's outcome is its system or its error, by type and message
        return type(exc).__name__, str(exc)


def corpus():
    rng = random.Random(93)
    coeffs = [Fraction(p, q) for p in (-12, -3, -1, 1, 2, 5, 100) for q in (1, 2, 3, 7)]
    rational = [random_table(rng, rng.randint(1, 14), rng.randint(0, 40), coeffs) for _ in range(60)]
    systems = random_verified_corpus(91, 40, max_dim=8) + random_broken_tables(92, 40) + rational
    labelled = [ts.construct_system(T.dim, T.entries, labels={1: "x", T.dim: "y"}) for T in systems[::10]]
    return systems + labelled


def _edit_token(lines, rng, position, change):
    """Change one token of one entry line (or of the dim line when there is none)."""
    k = rng.randrange(1, len(lines)) if len(lines) > 1 else 0
    tokens = lines[k].split(" ")
    position = position if k else 1
    tokens[position] = change(tokens[position])
    lines[k] = " ".join(tokens)


def _coefficient(change):
    return lambda lines, rng: _edit_token(lines, rng, 5, change)


def _index(change):
    return lambda lines, rng: _edit_token(lines, rng, rng.choice((1, 2, 3, 7)), change)


def _line(change):
    def edit(lines, rng):
        k = rng.randrange(len(lines))
        lines[k:k + 1] = change(lines[k])
    return edit


def _swap(lines, rng):
    if len(lines) > 2:
        a, b = rng.sample(range(1, len(lines)), 2)
        lines[a], lines[b] = lines[b], lines[a]


def _non_ascii_digit(lines, rng):
    k = rng.randrange(len(lines))
    digits = [i for i, ch in enumerate(lines[k]) if ch.isdigit()]
    i = rng.choice(digits)
    lines[k] = lines[k][:i] + rng.choice(("\u0663", "\u00b2")) + lines[k][i + 1:]  # Arabic-Indic three, superscript two


def _out_of_range(lines, rng):
    if len(lines) > 1:  # an empty table has no index to raise
        dim = int(lines[0].split()[1])
        _index(lambda token: str(dim + 1))(lines, rng)


# single edits of a canonical file: each leaves the format canonical no longer
LINE_EDITS = {
    "space": _line(lambda line: [line.replace(" ", "  ", 1)]),
    "tab": _line(lambda line: [line.replace(" ", "\t", 1)]),
    "trailing space": _line(lambda line: [line + " "]),
    "comment": _line(lambda line: [line + " # note"]),
    "comment line": _line(lambda line: [line, "# note"]),
    "blank line": _line(lambda line: [line, ""]),
    "label": lambda lines, rng: lines.insert(1, "label 1 b1"),
    "leading zero": _index(lambda token: "0" + token),
    "unreduced": _coefficient(lambda c: f"{2 * Fraction(c).numerator}/{2 * Fraction(c).denominator}"),
    "over one": _coefficient(lambda c: c if "/" in c else c + "/1"),
    "minus zero": _coefficient(lambda c: "-0"),
    "zero": _coefficient(lambda c: "0"),
    "plus": _coefficient(lambda c: "+" + c.lstrip("-")),
    "unsorted": _swap,
    "duplicate": _line(lambda line: [line, line]),
    "index > dim": _out_of_range,
    "dim 0": lambda lines, rng: lines.__setitem__(0, "dim 0"),
    "5,000 digits": _index(lambda token: "1" * 5000),
    "non-ASCII digit": _non_ascii_digit,
}
TEXT_EDITS = {
    "CRLF": lambda text: text.replace("\n", "\r\n"),
    "no final newline": lambda text: text[:-1],
    "unended last line": lambda text: text + "# note",
    "line separator": lambda text: text.replace("\n", "\u2028", 1),
}


def mutants(text, rng):
    for name, edit in LINE_EDITS.items():
        lines = text.split("\n")[:-1]
        edit(lines, rng)
        yield name, "\n".join(lines) + "\n"
    for name, edit in TEXT_EDITS.items():
        yield name, edit(text)


def check_one_pass(text):
    """The one-pass parse declines text or returns the general path's system, and text is its serialization."""
    fast = fileformat._canonical_system(text)
    expected = outcome(general_parse, text)
    assert outcome(ts.parse_system, text) == expected
    if fast is not None:
        # the text it accepted is recorded as its serialization, which an equal system built afresh writes
        fresh = ts.construct_system(fast.dim, fast.entries)
        assert vars(fast)["_text"] is text and "_text" not in vars(fresh)
        assert fast == fresh == expected and ts.serialize_system(fresh) == text
        assert all(type(c) is Fraction for _, _, _, c, _ in fast.entries)
    if isinstance(expected, ts.TripleSystem):  # the header hashes the serialization either way
        _, header = cli._parsed("verify", "f", text)
        assert header["hash"] == ts.content_hash(ts.serialize_system(expected))
    return fast


def test_one_pass_parse_takes_every_unlabelled_serialization():
    for T in corpus():
        text = ts.serialize_system(T)
        fast = check_one_pass(text)
        assert (fast is None) == any(T.labels), text
        assert fast is None or fast == T


def test_one_pass_parse_declines_every_single_edit():
    rng = random.Random(94)
    seen = set()
    for T in corpus():
        if any(T.labels):  # declined already
            continue
        text = ts.serialize_system(T)
        for name, mutant in mutants(text, rng):
            if mutant != text:
                seen.add(name)
                assert check_one_pass(mutant) is None, (name, mutant)
    assert seen == set(LINE_EDITS) | set(TEXT_EDITS)


def _cli_stderr(tmp_path, command, text):
    """run_command's exit code, stdout and stderr on a file holding text."""
    path = tmp_path / "input.lts"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    return cli.run_command([command, str(path)], out, err), out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "text, line, column, cause",
    [
        ("dim " + "1" * 5000 + "\n", 1, 5, "integer of 5000 digits"),
        ("dim 2\nprod 1 " + "1" * 5000 + " 1 = 1 * 2\n", 2, 8, "integer of 5000 digits"),
        ("dim 2\nlabel " + "2" * 5000 + " x\n", 2, 7, "integer of 5000 digits"),
        ("dim 2\nprod 1 1 1 = " + "1" * 5000 + " * 2\n", 2, 14, "coefficient part of 5000 digits"),
        ("dim 2\nprod 1 1 1 = -" + "2" * 4500 + "/3 * 2\n", 2, 14, "coefficient part of 4500 digits"),
        ("dim 2\nprod 1 1 1 = 3/" + "7" * 5000 + " * 2\n", 2, 14, "coefficient part of 5000 digits"),
        ("dim 2\nprod 1 1 1 = 1/" + "0" * 5000 + " * 2\n", 2, 14, "coefficient part of 5000 digits"),
        ("dim 2\nbrk 2 1 = " + "9" * 4400 + " * 2\n", 2, 11, "coefficient part of 4400 digits"),
    ],
    ids=["dim", "index", "label", "numerator", "negative", "denominator", "zero-denominator", "bracket"],
)
def test_integer_beyond_the_digit_limit_is_a_parse_error_with_its_position(tmp_path, text, line, column, cause):
    # the cause and the position, without the token itself
    message = f"line {line}, column {column}: {cause} is too long"
    parse, command = (ts.parse_leibniz, "lift-leibniz") if "\nbrk " in text else (ts.parse_system, "verify")
    with pytest.raises(ts.ParseError) as exc:
        parse(text)
    assert str(exc.value) == message
    assert _cli_stderr(tmp_path, command, text) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("dim 2\nlabel 1\n", "line 2, column 1: expected 'label K NAME'"),
        ("dim 2\n# x\nlabel 1 x y\n", "line 3, column 1: expected 'label K NAME'"),
        ("", "line 1: missing 'dim' line"),
        ("# a comment\n\n   \n", "line 1: missing 'dim' line"),
    ],
    ids=["label-short", "label-long", "empty", "comments-only"],
)
def test_label_shape_and_missing_dim_are_parse_errors(tmp_path, text, message):
    for parse in (ts.parse_system, ts.parse_leibniz):
        with pytest.raises(ts.ParseError) as exc:
            parse(text)
        assert str(exc.value) == message
    for command in ("verify", "lift-leibniz"):
        assert _cli_stderr(tmp_path, command, text) == (2, "", f"error: {message}\n")


def test_two_parses_of_one_text_share_no_state(tmp_path, monkeypatch):
    # each parse builds its own system and views; no cache keeps one past its op
    for text in (NF3T, "dim 3\n# a comment\nprod 1 1 1 = 1 * 3\n"):
        first, second = ts.parse_system(text), ts.parse_system(text)
        assert first == second and first is not second
        views = ("table", "_successors", "_scaled")
        for v in views:
            getattr(first, v)  # built on the first system only
        assert set(views).isdisjoint(vars(second))
        assert all(getattr(second, v) == getattr(first, v) and getattr(second, v) is not getattr(first, v) for v in views)
    parsed, parse = [], cli.parse_system

    def weakly_recorded(text):
        T = parse(text)
        parsed.append(weakref.ref(T))
        return T

    monkeypatch.setattr(cli, "parse_system", weakly_recorded)
    path = tmp_path / "nf3t.lts"
    path.write_text(NF3T, encoding="utf-8")
    for argv in (["verify", str(path)], ["report", "--json", str(path)], ["report", str(path)]):
        assert cli.run_command(argv, io.StringIO(), io.StringIO()) == 0
        gc.collect()
        assert parsed[-1]() is None, argv
    assert len(parsed) == 3
