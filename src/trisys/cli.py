"""Command-line surface for the full pipeline.

Exit codes: 0 success, 1 a check ran and failed (identity violations, an
ideal that cannot be split, a bracket that does not lift), 2 the input
could not be processed (syntax, range, duplicate, cap, usage).  Reports
are deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, compress, islice, repeat
from operator import floordiv, mod, ne

from .decompose import (
    DEFAULT_ORACLE_CAP,
    check_decomposition,
    is_minimal,
)
from .errors import (
    CapExceeded,
    DimensionError,
    DuplicateEntry,
    NotAdapted,
    NotAdmissible,
    NotLeibniz,
    NotMultiplicative,
    ParseError,
    ZeroCoefficient,
)
from .exactnum import rat_str
from .fileformat import _is_int, content_hash, parse_leibniz, parse_system
from .fileformat import serialize_leibniz, serialize_system
from .connect import partition
from .jideal import check_annihilation, compute_jideal, split_basis, split_system
from .system import DEFAULT_IDENTITY_CAP, IdentityReport, check_identities, lift_from_leibniz

USAGE_ERROR = 2
CHECK_FAILED = 1

_INPUT_ERRORS = (
    OSError,
    ParseError,
    ValueError,
    OverflowError,
    IndexError,
    ZeroDivisionError,
    DuplicateEntry,
    ZeroCoefficient,
    DimensionError,
    CapExceeded,
)
_CHECK_ERRORS = (NotAdapted, NotAdmissible, NotLeibniz, NotMultiplicative)


def _int(text: str) -> int:
    """An integer as the file format writes it: ASCII digits and an optional leading '-', else ValueError."""
    if not _is_int(text):
        raise ValueError(f"invalid literal for an integer: {text!r}")
    return int(text)  # ValueError beyond int()'s digit limit


def _int_option(text: str) -> int:
    """_int for argparse, refusing with the message that type=int gives."""
    try:
        return _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _fmt_set(ids) -> str:
    return "{" + ",".join(map(str, ids)) + "}"


_fmt_bool = ("no", "yes").__getitem__  # of a bool, with no Python-level call


def _parse_iset(text: str) -> tuple[int, ...]:
    if text in ("", "-"):
        return ()
    with contextlib.suppress(ValueError):
        return tuple([_int(tok.strip()) for tok in text.split(",")])
    raise ValueError(f"expected a comma-separated index list, got {text!r}")


def _entry_doc(entry) -> list:
    i, j, k, c, m = entry
    return [i, j, k, rat_str(c), m]


def _parsed(command: str, name: str, text: str):
    """The file's system and its document header."""
    T = parse_system(text)
    digest = content_hash(serialize_system(T))
    return T, {"command": command, "file": name, "hash": digest, "dim": T.dim, "entries": len(T.entries)}


def _split_for(T, args, witness=None):
    generic = getattr(args, "generic", None)
    if generic is None:
        return split_system(T, witness)
    return split_basis(T, _parse_iset(generic))


# --- report sections: built once per input and shared by the commands -------


def _verify_section(T, args) -> tuple[int, dict]:
    report = check_identities(T, args.family, cap=args.cap)
    section = {
        "family": report.checked,
        "multiplicative": True,
        "leibniz": report.ok,
        "violations": report,
    }
    return (0 if report.ok else CHECK_FAILED), section


def _jideal_section(T, witness) -> dict:
    return {
        "rank": witness.subspace.rank,
        "rows": [[rat_str(c) for c in row] for row in witness.subspace.rows],
        "generators": len(witness.generators),
        "rounds": witness.closure_rounds,
        "annihilation": check_annihilation(T, witness.subspace),
    }


def _split_section(S) -> dict:
    return {"mode": S.mode, "iset": S.iset, "jset": S.jset}


def _decompose_section(S, args) -> tuple[int, dict]:
    report = check_decomposition(S, args.mode)
    # the components' indices are the requested mode's partition, so
    # modes_agree partitions only the other mode
    classes = tuple([comp.indices for comp in report.components])
    other = "restricted" if args.mode == "literal" else "literal"
    section = {
        "classes": classes,
        "components": [
            {"indices": comp.indices, "iset": comp.iset_part, "jset": comp.jset_part,
             "entries": [*map(_entry_doc, comp.entries)]}
            for comp in report.components
        ],
        "orthogonality": report.orthogonality,
        "ideals": report.ideal_flags,
        "covers": report.covers,
        "confinement_violations": [_entry_doc(e) for e in report.confinement_violations],
        "modes_agree": classes == partition(S, other).classes,
        "ok": report.ok,
    }
    return (0 if report.ok else CHECK_FAILED), section


def _minimal_section(S, args) -> dict:
    verdict = is_minimal(S, args.mode, oracle_cap=args.oracle_cap)
    return {
        "mu_multiplicative": verdict.mu_multiplicative,
        "mu_violation": str(verdict.mu_violation) if verdict.mu_violation else None,
        "i_connected": verdict.i_connected,
        "j_connected": verdict.j_connected,
        "oracle_used": verdict.oracle_used,
        "verdict": verdict.verdict,
        "counterexample_ideal": verdict.counterexample_ideal,
    }


# --- command handlers: each parses once and returns (exit_code, doc) -------


def _cmd_verify(name: str, text: str, args) -> tuple[int, dict]:
    T, header = _parsed("verify", name, text)
    code, section = _verify_section(T, args)
    return code, {**header, **section}


def _cmd_jideal(name: str, text: str, args) -> tuple[int, dict]:
    T, header = _parsed("jideal", name, text)
    return 0, {**header, **_jideal_section(T, compute_jideal(T))}


def _cmd_split(name: str, text: str, args) -> tuple[int, dict]:
    T, header = _parsed("split", name, text)
    return 0, {**header, **_split_section(_split_for(T, args))}


def _cmd_decompose(name: str, text: str, args) -> tuple[int, dict]:
    T, header = _parsed("decompose", name, text)
    S = _split_for(T, args)
    code, section = _decompose_section(S, args)
    return code, {**header, "mode": args.mode, "split_mode": S.mode, **section}


def _cmd_minimal(name: str, text: str, args) -> tuple[int, dict]:
    T, header = _parsed("minimal", name, text)
    S = _split_for(T, args)
    return 0, {**header, "mode": args.mode, **_minimal_section(S, args)}


def _cmd_lift(name: str, text: str, args) -> tuple[int, dict]:
    L = parse_leibniz(text)
    lifted = lift_from_leibniz(L)
    doc = {
        "command": "lift-leibniz",
        "file": name,
        "hash": content_hash(serialize_leibniz(L)),
        "dim": lifted.dim,
        "entries": [_entry_doc(e) for e in lifted.entries],
        "text": serialize_system(lifted),
    }
    return 0, doc


def _cmd_report(name: str, text: str, args) -> tuple[int, dict]:
    """The whole pipeline on one parse, one deviation ideal and one split."""
    T, header = _parsed("report", name, text)
    code, section = _verify_section(T, args)
    doc = {**header, **section}
    witness = compute_jideal(T)
    doc["jideal"] = _jideal_section(T, witness)
    try:
        S = _split_for(T, args, witness)
    except _CHECK_ERRORS as err:
        doc["split"] = {"error": type(err).__name__, "message": str(err)}
        return CHECK_FAILED, doc
    doc["split"] = _split_section(S)
    dec_code, section = _decompose_section(S, args)
    doc["decompose"] = {"mode": args.mode, **section}
    doc["minimal"] = _minimal_section(S, args)
    return max(code, dec_code), doc


_HANDLERS = {
    "verify": _cmd_verify,
    "jideal": _cmd_jideal,
    "split": _cmd_split,
    "decompose": _cmd_decompose,
    "minimal": _cmd_minimal,
    "lift-leibniz": _cmd_lift,
    "report": _cmd_report,
}

_MAX_TEXT_VIOLATIONS = 20


# --- text renderers ---------------------------------------------------------


def _render_header(doc: dict) -> list[str]:
    return [
        f"file: {doc['file']}",
        f"hash: {doc['hash']}",
        f"dim: {doc['dim']}",
    ]


def _violation_count(report) -> int:
    """The number of violation records: the distinct key // R of the report's cells."""
    R, _, keys, _ = report._cells
    return len(set(map(R.__rfloordiv__, keys)))


def _render_verify(doc: dict) -> list[str]:
    lines = _render_header(doc)
    lines.append(f"entries: {doc['entries']}")
    lines.append(f"family: {doc['family']}")
    lines.append(f"multiplicative: {_fmt_bool(doc['multiplicative'])}")
    lines.append(f"leibniz: {_fmt_bool(doc['leibniz'])}")
    report = doc["violations"]
    count = _violation_count(report)
    lines.append(f"violations: {count}")
    for ident, tup, pairs in islice(report._records(), _MAX_TEXT_VIOLATIONS):  # the only records decoded for text
        residual = " ".join(f"{m}={rat_str(Fraction(n, report.denominator))}" for m, n in pairs)
        lines.append(f"violation: {ident} ({','.join(map(str, tup))}) -> {residual}")
    if count > _MAX_TEXT_VIOLATIONS:
        lines.append(f"... {count - _MAX_TEXT_VIOLATIONS} more violations")
    return lines


def _render_jideal(doc: dict) -> list[str]:
    lines = _render_header(doc)
    lines.append(f"rank: {doc['rank']}")
    for row in doc["rows"]:
        lines.append("row: " + " ".join(row))
    lines.append(f"generators: {doc['generators']}")
    lines.append(f"rounds: {doc['rounds']}")
    lines.append(f"annihilation: {_fmt_bool(doc['annihilation'])}")
    return lines


def _split_lines(doc: dict) -> list[str]:
    return [f"mode: {doc['mode']}", f"iset: {_fmt_set(doc['iset'])}", f"jset: {_fmt_set(doc['jset'])}"]


def _decompose_lines(doc: dict) -> list[str]:
    lines = [f"mode: {doc['mode']}"]
    lines.append("classes: " + " ".join(map(_fmt_set, doc["classes"])))
    for comp in doc["components"]:
        lines.append(
            f"component {_fmt_set(comp['indices'])}: "
            f"iset={_fmt_set(comp['iset'])} jset={_fmt_set(comp['jset'])} "
            f"entries={len(comp['entries'])}"
        )
        for i, j, k, c, m in comp["entries"]:
            lines.append(f"entry: prod {i} {j} {k} = {c} * {m}")
    # each row that no straddler touches is one shared tuple, so each distinct row is read once, not c² cells
    rows = {id(row): row for row in doc["orthogonality"]}.values()
    lines.append(f"orthogonal: {_fmt_bool(all(map(all, rows)))}")
    lines.append(f"ideals: {_fmt_bool(all(doc['ideals']))}")
    lines.append(f"covers: {_fmt_bool(doc['covers'])}")
    lines.append(f"modes_agree: {_fmt_bool(doc['modes_agree'])}")
    if doc["confinement_violations"]:
        lines.append(f"confinement_violations: {len(doc['confinement_violations'])}")
        for i, j, k, c, m in doc["confinement_violations"]:
            lines.append(f"violation: prod {i} {j} {k} = {c} * {m}")
    return lines


def _minimal_lines(mode: str, doc: dict) -> list[str]:
    lines = [f"mode: {mode}"]
    lines.append(f"mu_multiplicative: {_fmt_bool(doc['mu_multiplicative'])}")
    if doc["mu_violation"]:
        lines.append(f"mu_violation: {doc['mu_violation']}")
    lines.append(f"i_connected: {_fmt_bool(doc['i_connected'])}")
    lines.append(f"j_connected: {_fmt_bool(doc['j_connected'])}")
    lines.append(f"oracle_used: {_fmt_bool(doc['oracle_used'])}")
    lines.append(f"verdict: {doc['verdict']}")
    if doc["counterexample_ideal"]:
        lines.append(f"counterexample_ideal: {_fmt_set(doc['counterexample_ideal'])}")
    return lines


def _render_report(doc: dict) -> list[str]:
    lines = ["[verify]", *_render_verify(doc), "[jideal]"]
    j = doc["jideal"]
    lines.append(f"rank: {j['rank']}")
    lines += ["row: " + " ".join(row) for row in j["rows"]]
    lines.append(f"annihilation: {_fmt_bool(j['annihilation'])}")
    lines.append("[split]")
    s = doc["split"]
    if "error" in s:
        lines.append(f"error: {s['error']}: {s['message']}")
        return lines
    lines += [*_split_lines(s), "[decompose]", *_decompose_lines(doc["decompose"]), "[minimal]"]
    return lines + _minimal_lines(doc["decompose"]["mode"], doc["minimal"])


_RENDERERS = {
    "verify": _render_verify,
    "jideal": _render_jideal,
    "split": lambda doc: _render_header(doc) + _split_lines(doc),
    "decompose": lambda doc: _render_header(doc) + _decompose_lines(doc),
    "minimal": lambda doc: _render_header(doc) + _minimal_lines(doc["mode"], doc),
    "lift-leibniz": lambda doc: [doc["text"].rstrip("\n")],
    "report": _render_report,
}


_OPTIONS = {
    "--family": dict(choices=("four", "two", "both"), default="both"),
    "--cap": dict(type=_int_option, default=None),
    "--mode": dict(choices=("literal", "restricted"), default="literal"),
    "--oracle-cap": dict(type=_int_option, default=DEFAULT_ORACLE_CAP),
    "--generic": dict(metavar="ISET", default=None),
}
_COMMAND_OPTIONS = {
    "verify": ("--family", "--cap"),
    "jideal": (),
    "split": ("--generic",),
    "decompose": ("--mode", "--generic"),
    "minimal": ("--mode", "--oracle-cap", "--generic"),
    "lift-leibniz": (),
    "report": ("--family", "--cap", "--mode", "--oracle-cap", "--generic"),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The `trisys` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="trisys",
        description="Exact computer algebra for triple systems with multiplicative bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("files", nargs="+", metavar="FILE")
        p.add_argument("--each", action="store_true", help="process several files")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def _plain_args(argv) -> argparse.Namespace | None:
    """The Namespace that argparse builds for `COMMAND [--each|--json|--OPT=VALUE|--OPT VALUE]... FILE...`, or None.

    Options are the command's own, spelled in full, with nonempty values
    argparse takes that do not start with '-'.  Anything else (help, errors,
    abbreviations, '--', an option after a file) is left to argparse.
    """
    flags = _COMMAND_OPTIONS.get(argv[0]) if argv else None
    if flags is None:
        return None
    values = {"command": argv[0], "each": False, "json": False}
    values.update({flag[2:].replace("-", "_"): _OPTIONS[flag]["default"] for flag in flags})
    i = 1
    while i < len(argv) and argv[i][:1] == "-":
        flag, eq, value = argv[i].partition("=")
        i += 1
        if flag in ("--each", "--json") and not eq:
            values[flag[2:]] = True
            continue
        if flag not in flags or (not eq and i == len(argv)):
            return None
        if not eq:
            value, i = argv[i], i + 1
        spec = _OPTIONS[flag]
        if value[:1] in ("", "-") or value not in spec.get("choices", (value,)):
            return None
        try:
            values[flag[2:].replace("-", "_")] = spec.get("type", str)(value)
        except argparse.ArgumentTypeError:
            return None
    files = argv[i:]
    if not files or any(f[:1] == "-" for f in files):
        return None
    return argparse.Namespace(files=files, **values)


_encode_str = json.encoder.encode_basestring_ascii
_MARK = _encode_str("\0")  # how the encoder writes a report, before its records replace it
_BATCH = 4096  # encoder chunks, or violation keys, joined into one write


class _Table(dict):
    """A dict that stores build(key) for each missing key it is asked for."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


@lru_cache(maxsize=8)
def _openings(R: int, idents: tuple, indent: str):
    """A record's opening tables at this indent, in radix R over idents: head, ab and cdf, filled per key read."""
    inner = indent + "  "
    key, item = inner + "  ", inner + "    "
    sep, K = "," + item, len(idents)
    heads = [f'{key}}}{inner}}},{inner}{{{key}"identity": {_encode_str(name)},{key}"tuple": [{item}' for name in idents]
    tail = f'{key}],{key}"residual": {{{item}'  # from the 5-tuple's end to the residual's first pair
    cdfs = _Table(lambda code: "{}{sep}{}{sep}{}".format(*divmod(code // R, R), code % R, sep=sep) + tail)
    ab = _Table(lambda code: "{}{sep}{}{sep}".format(*divmod(code, R), sep=sep))
    return _Table(lambda low: heads[low % K]), ab, _Table(lambda low: cdfs[low // K])  # one string per c, d, f


def _write_violations(report, indent: str, write) -> None:
    """Write the report's violations as json.dumps(indent=2) writes a list of records at this indent.

    A record, {"identity", "tuple", "residual"}, is four pieces: head[low],
    ab[cell // Q] and cdf[low], where its keys are cell·R + target, cell =
    ((a·R + b)·R³ + (c·R + d)·R + f)·K + identity, Q = R³·K and low = cell %
    Q, then its body, the (target, numerator) strings of its keys.  The keys
    go out in slices of about _BATCH that each end on a record; in a slice, a
    NUL, which no pair string holds, ends each body but the last: one join,
    one split and one write per slice.
    """
    R, idents, keys, nums = report._cells
    if not keys:
        write("[]")
        return
    Q, inner, sep = R**3 * len(idents), indent + "  ", "," + indent + "      "
    head, ab, cdf = (table.__getitem__ for table in _openings(R, idents, indent))
    text = cache(lambda n: rat_str(Fraction(n, report.denominator)))  # one string per numerator
    pair = _Table(lambda key: f'"{key[1]}": "{text(key[0])}"' + "\0" * key[2])  # key: (numerator, target, ends)
    start, total = 0, len(keys)
    while start < total:
        stop = min(start + _BATCH, total)
        last = keys[stop - 1] // R
        while stop < total and keys[stop] // R == last:  # each slice ends on a record
            stop += 1
        slice_keys = keys[start:stop]
        cells = [*map(floordiv, slice_keys, repeat(R))]
        # a key ends a record when the next key's cell differs; no NUL after the slice's last key
        ends = [*map(ne, islice(cells, 1, None), cells), False]
        targets = map(mod, slice_keys, repeat(R))
        bodies = sep.join(map(pair.__getitem__, zip(nums[start:stop], targets, ends))).split("\0" + sep)
        lasts = [*compress(cells, ends), last]  # each record's cell
        lows = list(map(mod, lasts, repeat(Q)))
        opens = map(head, lows), map(ab, map(floordiv, lasts, repeat(Q))), map(cdf, lows)
        pieces = [*chain.from_iterable(zip(*opens, bodies))]
        if not start:
            pieces[0] = "[" + pieces[0].partition(",")[2]  # a head's first "," ends the close of the record before it
        write("".join(pieces))
        start = stop
    write(f"{inner}  }}{inner}}}{indent}]")


def _line_end(line: str, text: str) -> str:
    """The open line, the text after the last newline, once text is written after the open line `line`."""
    _, newline, rest = text.rpartition("\n")
    return rest if newline else line + rest


def _dump(obj, out, end: str = "") -> None:
    """Write json.dumps(obj, indent=2) to out, each IdentityReport in it as its violation records, then end.

    The encoder's chunks are joined and written _BATCH at a time, so no whole
    document is ever held.  The encoder writes each report as the string
    "\\0"; a batch in which it met reports is split at those marks and each
    report's records go in its place, at the indent of the mark's line, which
    may have begun in an earlier batch.  A batch with a report that also
    holds the string "\\0" is refused with ValueError, not written wrong.
    That refusal, and the TypeError on a value json.dumps cannot write (a
    set, bytes), can come after some pieces are written; no CLI document
    reaches either.
    """
    reports = []

    def mark(value):
        if type(value) is not IdentityReport:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        reports.append(value)
        return "\0"

    write, line = out.write, ""  # line: the text written since the last newline
    chunks = json.JSONEncoder(indent=2, default=mark).iterencode(obj)
    try:
        for batch in iter(lambda: "".join(islice(chunks, _BATCH)), ""):
            pieces = batch.split(_MARK) if reports else (batch,)
            if len(pieces) != len(reports) + 1:
                raise ValueError('a document with an identity report cannot also hold the string "\\0"')
            for before, report in zip(pieces, reports):
                write(before)
                line = _line_end(line, before)
                indent = line[: len(line) - len(line.lstrip())]
                _write_violations(report, "\n" + indent, write)
                line = indent + "]"  # the records end on a line at the mark's indent
            reports.clear()
            write(pieces[-1])
            line = _line_end(line, pieces[-1])
        write(end)
    finally:
        reports.clear()  # the encoder's closures form a reference cycle that holds mark and so this list


def run_command(argv, out=None, err=None) -> int:
    """Run one command; returns the exit code without calling sys.exit."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:  # argparse prints help and usage errors to the process's streams
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                args = _build_parser().parse_args(argv)
        except SystemExit as stop:
            return stop.code if isinstance(stop.code, int) else USAGE_ERROR
    if hasattr(args, "cap") and args.cap is None:
        env = os.environ.get("TRISYS_CAP")
        try:
            args.cap = _int(env) if env else DEFAULT_IDENTITY_CAP
        except ValueError:
            err.write(f"error: TRISYS_CAP must be an integer, got {env!r}\n")
            return USAGE_ERROR
    if len(args.files) > 1 and not args.each:
        err.write("error: several files given without --each\n")
        return USAGE_ERROR
    handler = _HANDLERS[args.command]
    # in batch mode --json emits one document: an array of per-file reports
    batch = [] if (args.json and args.each) else None
    worst = 0
    for path in args.files:
        if args.each and batch is None:
            out.write(f"== {path} ==\n")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            code, doc = handler(path, text, args)
        except _CHECK_ERRORS as exc:
            error = {"kind": type(exc).__name__, "message": str(exc)}
            code, doc = CHECK_FAILED, {"command": args.command, "file": path, "error": error}
        except _INPUT_ERRORS as exc:
            err.write(f"error: {exc}\n")
            worst = max(worst, USAGE_ERROR)
            continue
        except MemoryError:  # no dim cap yet: a few-byte file can ask for a dim-long allocation
            err.write(f"error: {path}: out of memory\n")
            worst = max(worst, USAGE_ERROR)
            continue
        if batch is not None:
            batch.append(doc)
        elif args.json:
            _dump(doc, out, "\n")
        elif "error" in doc:  # a check that could not run
            out.write(f"error: {doc['error']['kind']}: {doc['error']['message']}\n")
        else:
            out.write("\n".join(_RENDERERS[doc["command"]](doc)) + "\n")
        worst = max(worst, code)
    if batch is not None:
        _dump(batch, out, "\n")
    return worst


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
