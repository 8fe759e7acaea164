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
    TriSysError,
    ZeroCoefficient,
)
from .exactnum import basis_vector, rat_str, rowspace_from
from .fileformat import (
    content_hash,
    parse_leibniz,
    parse_system,
    serialize_leibniz,
    serialize_system,
)
from .connect import partition
from .jideal import check_annihilation, compute_jideal, split_basis, split_system
from .system import DEFAULT_IDENTITY_CAP, check_identities, lift_from_leibniz

USAGE_ERROR = 2
CHECK_FAILED = 1

_INPUT_ERRORS = (
    ParseError,
    ValueError,
    IndexError,
    ZeroDivisionError,
    DuplicateEntry,
    ZeroCoefficient,
    DimensionError,
    CapExceeded,
)
_CHECK_ERRORS = (NotAdapted, NotAdmissible, NotLeibniz, NotMultiplicative)


def _default_cap() -> int:
    env = os.environ.get("TRISYS_CAP")
    return int(env) if env else DEFAULT_IDENTITY_CAP


def _fmt_set(ids) -> str:
    return "{" + ",".join(str(i) for i in ids) + "}"


def _fmt_bool(b: bool) -> str:
    return "yes" if b else "no"


def _parse_iset(text: str) -> tuple[int, ...]:
    if text in ("", "-"):
        return ()
    try:
        return tuple(sorted(int(tok) for tok in text.split(",")))
    except ValueError:
        raise ValueError(f"expected a comma-separated index list, got {text!r}") from None


def _entry_doc(entry) -> list:
    i, j, k, c, m = entry
    return [i, j, k, rat_str(c), m]


def _header(command: str, name: str, T) -> dict:
    return {
        "command": command,
        "file": name,
        "hash": content_hash(serialize_system(T)),
        "dim": T.dim,
        "entries": len(T.entries),
    }


def _split_for(T, args):
    generic = getattr(args, "generic", None)
    if generic is None:
        return split_system(T)
    iset = _parse_iset(generic)
    space = rowspace_from(T.dim, (basis_vector(T.dim, i) for i in iset))
    return split_basis(T, space, "generic")


# --- command handlers: each returns (exit_code, doc) -----------------------


def _cmd_verify(name: str, text: str, args) -> tuple[int, dict]:
    T = parse_system(text)
    report = check_identities(T, args.family, cap=args.cap)
    doc = _header("verify", name, T)
    doc["family"] = report.checked
    doc["multiplicative"] = True
    doc["leibniz"] = report.ok
    doc["violations"] = [
        {
            "identity": ident,
            "tuple": list(tup),
            "residual": {str(p + 1): rat_str(c) for p, c in enumerate(res) if c},
        }
        for ident, tup, res in report.violations
    ]
    return (0 if report.ok else CHECK_FAILED), doc


def _cmd_jideal(name: str, text: str, args) -> tuple[int, dict]:
    T = parse_system(text)
    witness = compute_jideal(T)
    doc = _header("jideal", name, T)
    doc["rank"] = witness.subspace.rank
    doc["rows"] = [[rat_str(c) for c in row] for row in witness.subspace.rows]
    doc["generators"] = len(witness.generators)
    doc["rounds"] = witness.closure_rounds
    doc["annihilation"] = check_annihilation(T, witness.subspace)
    return 0, doc


def _cmd_split(name: str, text: str, args) -> tuple[int, dict]:
    T = parse_system(text)
    S = _split_for(T, args)
    doc = _header("split", name, T)
    doc["mode"] = S.mode
    doc["iset"] = list(S.iset)
    doc["jset"] = list(S.jset)
    return 0, doc


def _cmd_decompose(name: str, text: str, args) -> tuple[int, dict]:
    T = parse_system(text)
    S = _split_for(T, args)
    report = check_decomposition(S, args.mode)
    doc = _header("decompose", name, T)
    doc["mode"] = report.mode
    doc["split_mode"] = S.mode
    doc["classes"] = [list(comp.indices) for comp in report.components]
    doc["components"] = [
        {
            "indices": list(comp.indices),
            "iset": list(comp.iset_part),
            "jset": list(comp.jset_part),
            "entries": [
                _entry_doc((comp.indices[i - 1], comp.indices[j - 1], comp.indices[k - 1], c, comp.indices[m - 1]))
                for i, j, k, c, m in comp.subsystem.entries
            ],
        }
        for comp in report.components
    ]
    doc["orthogonality"] = [list(row) for row in report.orthogonality]
    doc["ideals"] = list(report.ideal_flags)
    doc["covers"] = report.covers
    doc["confinement_violations"] = [_entry_doc(e) for e in report.confinement_violations]
    doc["modes_agree"] = partition(S, "literal").classes == partition(S, "restricted").classes
    doc["ok"] = report.ok
    return (0 if report.ok else CHECK_FAILED), doc


def _cmd_minimal(name: str, text: str, args) -> tuple[int, dict]:
    T = parse_system(text)
    S = _split_for(T, args)
    verdict = is_minimal(S, args.mode, oracle_cap=args.oracle_cap)
    doc = _header("minimal", name, T)
    doc["mode"] = args.mode
    doc["mu_multiplicative"] = verdict.mu_multiplicative
    doc["mu_violation"] = str(verdict.mu_violation) if verdict.mu_violation else None
    doc["i_connected"] = verdict.i_connected
    doc["j_connected"] = verdict.j_connected
    doc["oracle_used"] = verdict.oracle_used
    doc["verdict"] = verdict.verdict
    doc["counterexample_ideal"] = (
        list(verdict.counterexample_ideal) if verdict.counterexample_ideal else None
    )
    return 0, doc


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
    code, doc = _cmd_verify(name, text, args)
    doc["command"] = "report"
    T = parse_system(text)
    jideal_code, jideal_doc = _cmd_jideal(name, text, args)
    doc["jideal"] = {k: jideal_doc[k] for k in ("rank", "rows", "generators", "rounds", "annihilation")}
    try:
        S = _split_for(T, args)
    except _CHECK_ERRORS as err:
        doc["split"] = {"error": type(err).__name__, "message": str(err)}
        return CHECK_FAILED, doc
    doc["split"] = {"mode": S.mode, "iset": list(S.iset), "jset": list(S.jset)}
    dec_code, dec_doc = _cmd_decompose(name, text, args)
    doc["decompose"] = {
        k: dec_doc[k]
        for k in (
            "mode",
            "classes",
            "components",
            "orthogonality",
            "ideals",
            "covers",
            "confinement_violations",
            "modes_agree",
            "ok",
        )
    }
    min_code, min_doc = _cmd_minimal(name, text, args)
    doc["minimal"] = {
        k: min_doc[k]
        for k in (
            "mu_multiplicative",
            "mu_violation",
            "i_connected",
            "j_connected",
            "oracle_used",
            "verdict",
            "counterexample_ideal",
        )
    }
    return max(code, dec_code, min_code), doc


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


def _render_verify(doc: dict) -> list[str]:
    lines = _render_header(doc)
    lines.append(f"entries: {doc['entries']}")
    lines.append(f"family: {doc['family']}")
    lines.append(f"multiplicative: {_fmt_bool(doc['multiplicative'])}")
    lines.append(f"leibniz: {_fmt_bool(doc['leibniz'])}")
    lines.append(f"violations: {len(doc['violations'])}")
    for v in doc["violations"][:_MAX_TEXT_VIOLATIONS]:
        residual = " ".join(f"{i}={c}" for i, c in v["residual"].items())
        tup = ",".join(str(t) for t in v["tuple"])
        lines.append(f"violation: {v['identity']} ({tup}) -> {residual}")
    hidden = len(doc["violations"]) - _MAX_TEXT_VIOLATIONS
    if hidden > 0:
        lines.append(f"... {hidden} more violations")
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


def _render_split(doc: dict) -> list[str]:
    lines = _render_header(doc)
    lines.append(f"mode: {doc['mode']}")
    lines.append(f"iset: {_fmt_set(doc['iset'])}")
    lines.append(f"jset: {_fmt_set(doc['jset'])}")
    return lines


def _render_decompose(doc: dict) -> list[str]:
    lines = _render_header(doc)
    lines.append(f"mode: {doc['mode']}")
    lines.append("classes: " + " ".join(_fmt_set(cls) for cls in doc["classes"]))
    for comp in doc["components"]:
        lines.append(
            f"component {_fmt_set(comp['indices'])}: "
            f"iset={_fmt_set(comp['iset'])} jset={_fmt_set(comp['jset'])} "
            f"entries={len(comp['entries'])}"
        )
        for i, j, k, c, m in comp["entries"]:
            lines.append(f"entry: prod {i} {j} {k} = {c} * {m}")
    lines.append(f"orthogonal: {_fmt_bool(all(all(row) for row in doc['orthogonality']))}")
    lines.append(f"ideals: {_fmt_bool(all(doc['ideals']))}")
    lines.append(f"covers: {_fmt_bool(doc['covers'])}")
    lines.append(f"modes_agree: {_fmt_bool(doc['modes_agree'])}")
    if doc["confinement_violations"]:
        lines.append(f"confinement_violations: {len(doc['confinement_violations'])}")
        for i, j, k, c, m in doc["confinement_violations"]:
            lines.append(f"violation: prod {i} {j} {k} = {c} * {m}")
    return lines


def _render_minimal(doc: dict) -> list[str]:
    lines = _render_header(doc)
    lines.append(f"mode: {doc['mode']}")
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


def _render_lift(doc: dict) -> list[str]:
    return [doc["text"].rstrip("\n")]


def _render_report(doc: dict) -> list[str]:
    lines = ["[verify]"]
    lines += _render_verify(doc)
    lines.append("[jideal]")
    j = doc["jideal"]
    lines.append(f"rank: {j['rank']}")
    for row in j["rows"]:
        lines.append("row: " + " ".join(row))
    lines.append(f"annihilation: {_fmt_bool(j['annihilation'])}")
    lines.append("[split]")
    s = doc["split"]
    if "error" in s:
        lines.append(f"error: {s['error']}: {s['message']}")
        return lines
    lines.append(f"mode: {s['mode']}")
    lines.append(f"iset: {_fmt_set(s['iset'])}")
    lines.append(f"jset: {_fmt_set(s['jset'])}")
    lines.append("[decompose]")
    d = dict(doc["decompose"])
    d.update({k: doc[k] for k in ("file", "hash", "dim")})
    lines += _render_decompose(d)[3:]
    lines.append("[minimal]")
    m = dict(doc["minimal"])
    m.update({k: doc[k] for k in ("file", "hash", "dim")})
    m["mode"] = doc["decompose"]["mode"]
    lines += _render_minimal(m)[3:]
    return lines


_RENDERERS = {
    "verify": _render_verify,
    "jideal": _render_jideal,
    "split": _render_split,
    "decompose": _render_decompose,
    "minimal": _render_minimal,
    "lift-leibniz": _render_lift,
    "report": _render_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisys",
        description="Exact computer algebra for triple systems with multiplicative bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **extra):
        p = sub.add_parser(name)
        p.add_argument("files", nargs="+", metavar="FILE")
        p.add_argument("--each", action="store_true", help="process several files")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("verify")
    p.add_argument("--family", choices=("four", "two", "both"), default="both")
    p.add_argument("--cap", type=int, default=None)

    add("jideal")

    p = add("split")
    p.add_argument("--generic", metavar="ISET", default=None)

    p = add("decompose")
    p.add_argument("--mode", choices=("literal", "restricted"), default="literal")
    p.add_argument("--generic", metavar="ISET", default=None)

    p = add("minimal")
    p.add_argument("--mode", choices=("literal", "restricted"), default="literal")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--generic", metavar="ISET", default=None)

    add("lift-leibniz")

    p = add("report")
    p.add_argument("--family", choices=("four", "two", "both"), default="both")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--mode", choices=("literal", "restricted"), default="literal")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--generic", metavar="ISET", default=None)

    return parser


def _emit(out, args, code: int, doc: dict) -> None:
    if args.json:
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write("\n".join(_RENDERERS[doc["command"]](doc)) + "\n")


def run_command(argv, out=None, err=None) -> int:
    """Run one command; returns the exit code without calling sys.exit."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else USAGE_ERROR
    if hasattr(args, "cap") and args.cap is None:
        try:
            args.cap = _default_cap()
        except ValueError:
            err.write(f"error: TRISYS_CAP must be an integer, got {os.environ['TRISYS_CAP']!r}\n")
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
            text = open(path, "r", encoding="utf-8").read()
        except OSError as exc:
            err.write(f"error: {exc}\n")
            worst = max(worst, USAGE_ERROR)
            continue
        try:
            code, doc = handler(path, text, args)
        except _CHECK_ERRORS as exc:
            doc = {
                "command": args.command,
                "file": path,
                "error": {"kind": type(exc).__name__, "message": str(exc)},
            }
            if batch is not None:
                batch.append(doc)
            elif args.json:
                out.write(json.dumps(doc, indent=2) + "\n")
            else:
                out.write(f"error: {type(exc).__name__}: {exc}\n")
            worst = max(worst, CHECK_FAILED)
            continue
        except _INPUT_ERRORS as exc:
            err.write(f"error: {exc}\n")
            worst = max(worst, USAGE_ERROR)
            continue
        if batch is not None:
            batch.append(doc)
        else:
            _emit(out, args, code, doc)
        worst = max(worst, code)
    if batch is not None:
        out.write(json.dumps(batch, indent=2) + "\n")
    return worst


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
