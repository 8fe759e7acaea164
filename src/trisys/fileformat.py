"""Line-oriented text format for triple systems and bilinear brackets.

Grammar (UTF-8, '#' starts a comment, blank lines ignored):

    dim N
    label K NAME            optional, one per labeled index
    prod I J K = C * M      triple-system files
    brk I J = C * M         bracket files

Coefficients C are rationals written "p" or "p/q" with q > 0.  The
serializers emit a canonical form (entries sorted by key), so
parse(serialize(x)) round-trips byte for byte.
"""

from __future__ import annotations

import hashlib

from .errors import ParseError
from .exactnum import rat_parse, rat_str
from .system import (
    BilinearTable,
    TripleSystem,
    construct_bilinear,
    construct_system,
)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _column_of(line: str, token_pos: int) -> int:
    # Best effort: character offset of the token at token_pos, 1-based.
    tokens = line.split()
    offset = 0
    for t in tokens[:token_pos]:
        offset = line.index(t, offset) + len(t)
    try:
        return line.index(tokens[token_pos], offset) + 1
    except (ValueError, IndexError):
        return len(line)


def _is_int(token: str) -> bool:
    """ASCII digits with an optional leading '-': int() also reads '+', '_' and every Unicode decimal digit."""
    return token.isascii() and (token.isdecimal() or token[:1] == "-" and token[1:].isdecimal())


def _parse_int(token: str, lineno: int, line: str, pos: int) -> int:
    if not _is_int(token):
        raise ParseError(f"expected an integer, got {token!r}", lineno, _column_of(line, pos))
    return int(token)


def _parse_coeff(token: str, lineno: int, line: str, pos: int):
    try:
        return rat_parse(token)
    except ValueError:
        raise ParseError(
            f"expected a rational 'p' or 'p/q', got {token!r}", lineno, _column_of(line, pos)
        ) from None
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {token!r}", lineno, _column_of(line, pos)) from None


def _parse_body(text: str, kind: str):
    """Shared walk over dim/label/entry lines; kind is 'prod' or 'brk'."""
    dim = None
    labels: dict[int, str] = {}
    entries = []
    arity = 3 if kind == "prod" else 2
    for lineno, line in _content_lines(text):
        tokens = line.split()
        word = tokens[0]
        if dim is None:
            if word != "dim":
                raise ParseError(f"expected 'dim', got {word!r}", lineno, 1)
            if len(tokens) != 2:
                raise ParseError("expected 'dim N'", lineno, 1)
            dim = _parse_int(tokens[1], lineno, line, 1)
            continue
        if word == "dim":
            raise ParseError("duplicate 'dim' line", lineno, 1)
        if word == "label":
            if len(tokens) != 3:
                raise ParseError("expected 'label K NAME'", lineno, 1)
            k = _parse_int(tokens[1], lineno, line, 1)
            if k in labels:
                raise ParseError(f"duplicate label for index {k}", lineno, 1)
            labels[k] = tokens[2]
            continue
        if word != kind:
            raise ParseError(f"expected {kind!r} line, got {word!r}", lineno, 1)
        # kind I .. = C * M
        want = 1 + arity + 1 + 1 + 1 + 1
        if len(tokens) != want or tokens[1 + arity] != "=" or tokens[3 + arity] != "*":
            shape = "I J K" if kind == "prod" else "I J"
            raise ParseError(f"expected '{kind} {shape} = C * M'", lineno, 1)
        idx = [_parse_int(tokens[1 + t], lineno, line, 1 + t) for t in range(arity)]
        coeff = _parse_coeff(tokens[2 + arity], lineno, line, 2 + arity)
        target = _parse_int(tokens[4 + arity], lineno, line, 4 + arity)
        entries.append((*idx, coeff, target))
    if dim is None:
        raise ParseError("missing 'dim' line", 1)
    return dim, entries, labels or None


def parse_system(text: str) -> TripleSystem:
    """Parse a triple-system file; construction errors are forwarded."""
    dim, entries, labels = _parse_body(text, "prod")
    return construct_system(dim, entries, labels=labels)


def parse_leibniz(text: str) -> BilinearTable:
    """Parse a bracket file; construction errors are forwarded."""
    dim, entries, labels = _parse_body(text, "brk")
    return construct_bilinear(dim, entries, labels=labels)


def _label_lines(labels) -> list[str]:
    return [
        f"label {i} {name}"
        for i, name in enumerate(labels, start=1)
        if name is not None
    ]


def serialize_system(T: TripleSystem) -> str:
    lines = [f"dim {T.dim}"]
    lines += _label_lines(T.labels)
    lines += [f"prod {i} {j} {k} = {rat_str(c)} * {m}" for i, j, k, c, m in T.entries]
    return "\n".join(lines) + "\n"


def serialize_leibniz(L: BilinearTable) -> str:
    lines = [f"dim {L.dim}"]
    lines += _label_lines(L.labels)
    lines += [f"brk {i} {j} = {rat_str(c)} * {m}" for i, j, c, m in L.entries]
    return "\n".join(lines) + "\n"


def content_hash(canonical_text: str) -> str:
    """Short provenance hash of the canonical serialization."""
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()[:12]
