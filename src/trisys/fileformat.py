"""Line-oriented text format for triple systems and bilinear brackets.

Grammar (UTF-8, '#' starts a comment, blank lines ignored):

    dim N
    label K NAME            optional, one per labeled index
    prod I J K = C * M      triple-system files
    brk I J = C * M         bracket files

Coefficients C are rationals written "p" or "p/q" with q > 0.  The
serializers emit a canonical form (entries sorted by key), so
parse(serialize(x)) round-trips byte for byte, and a canonical system file
is parsed in one regex pass.
"""

from __future__ import annotations

import hashlib
import re
from itertools import chain
from operator import lt

from .errors import ParseError
from .exactnum import _RAT_RE, _memo, rat_parse, rat_str
from .system import (
    BilinearTable,
    TripleSystem,
    construct_bilinear,
    construct_system,
)

# serialize_system's lines: positive integers have no leading zero, coefficients are nonzero
_POSITIVE = "([1-9][0-9]*)"
_DIM_LINE = re.compile(rf"dim {_POSITIVE}\n")
_PROD_LINE = re.compile(
    rf"^prod {_POSITIVE} {_POSITIVE} {_POSITIVE} = (-?[1-9][0-9]*(?:/[1-9][0-9]*)?) \* {_POSITIVE}$", re.M
)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _column_of(line: str, token_pos: int) -> int:
    # The 1-based character offset of the token at token_pos of line.split().
    tokens = line.split()
    offset = 0
    for t in tokens[:token_pos]:
        offset = line.index(t, offset) + len(t)
    return line.index(tokens[token_pos], offset) + 1


def _is_int(token: str) -> bool:
    """ASCII digits with an optional leading '-': int() also reads '+', '_' and every Unicode decimal digit."""
    return token.isascii() and (token.isdecimal() or token[:1] == "-" and token[1:].isdecimal())


def _parse_int(token: str, lineno: int, line: str, pos: int) -> int:
    if not _is_int(token):
        raise ParseError(f"expected an integer, got {token!r}", lineno, _column_of(line, pos))
    try:
        return int(token)
    except ValueError:  # beyond int()'s digit limit
        raise ParseError(f"integer of {len(token)} digits is too long", lineno, _column_of(line, pos)) from None


def _parse_coeff(token: str, lineno: int, line: str, pos: int):
    try:
        return rat_parse(token)
    except ValueError:
        if not _RAT_RE.fullmatch(token):
            raise ParseError(f"expected a rational 'p' or 'p/q', got {token!r}", lineno, _column_of(line, pos)) from None
        digits = max(len(part.lstrip("-")) for part in token.split("/"))  # a part beyond int()'s digit limit
        raise ParseError(f"coefficient part of {digits} digits is too long", lineno, _column_of(line, pos)) from None
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


def _canonical_system(text: str) -> TripleSystem | None:
    """The system of a file that is exactly serialize_system's output, from one regex pass; None for any other text.

    That output is a 'dim N' line and entry lines only, with single spaces,
    integers without leading zeros, nonzero rat_str coefficients, strictly
    ascending keys, indices at most N and a final newline.  Declining is
    always safe: parse_system then takes the general path.  The system
    returned records text as its serialization.
    """
    head = _DIM_LINE.match(text)
    if head is None or text[-1] != "\n":
        return None
    rows = _PROD_LINE.findall(text, head.end())
    if len(rows) != text.count("\n", head.end()):  # some line is not a canonical entry
        return None
    n = len(rows)
    I, J, K, C, M = list(zip(*rows)) or [()] * 5
    try:
        dim, *ints = map(int, chain((head[1],), I, J, K, M))
        coeffs = {c: rat_parse(c) for c in set(C)}  # one Fraction per distinct token
    except ValueError:  # beyond int()'s digit limit
        return None
    ijk = ints[:n], ints[n : 2 * n], ints[2 * n : 3 * n]
    keys = list(zip(*ijk))
    if max(ints, default=0) > dim or not all(map(lt, keys, keys[1:])):
        return None
    if any(rat_str(f) != c for c, f in coeffs.items()):  # '2/4' or '3/1'
        return None
    entries = list(zip(*ijk, map(coeffs.__getitem__, C), ints[3 * n :]))  # a tuple at its exact size: see exactnum
    T = TripleSystem(dim, tuple(entries), (None,) * dim)
    vars(T)["_text"] = text  # serialize_system's slot
    return T


def parse_system(text: str) -> TripleSystem:
    """Parse a triple-system file; construction errors are forwarded."""
    T = _canonical_system(text)
    if T is None:
        dim, entries, labels = _parse_body(text, "prod")
        T = construct_system(dim, entries, labels=labels)
    return T


def parse_leibniz(text: str) -> BilinearTable:
    """Parse a bracket file; construction errors are forwarded."""
    dim, entries, labels = _parse_body(text, "brk")
    return construct_bilinear(dim, entries, labels=labels)


def _file_text(X: TripleSystem | BilinearTable, rows: list[str]) -> str:
    """A file's dim line, its label lines, then its entry rows."""
    labels = [f"label {i} {name}" for i, name in enumerate(X.labels, start=1) if name is not None]
    return "\n".join([f"dim {X.dim}", *labels, *rows]) + "\n"


def serialize_system(T: TripleSystem) -> str:
    """The canonical text of T, built once per system and kept on it."""
    return _memo(T, "_text", _system_text)


def _system_text(T: TripleSystem) -> str:
    return _file_text(T, [f"prod {i} {j} {k} = {rat_str(c)} * {m}" for i, j, k, c, m in T.entries])


def serialize_leibniz(L: BilinearTable) -> str:
    return _file_text(L, [f"brk {i} {j} = {rat_str(c)} * {m}" for i, j, c, m in L.entries])


def content_hash(canonical_text: str) -> str:
    """Short provenance hash of the canonical serialization."""
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()[:12]
