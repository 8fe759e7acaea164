"""The three benchmark workloads: corpus layout, CLI ops and output checks.

A workload's corpus is one cycle of ops.  The layout of a cycle (how many
systems of each dimension and kind, or of each dimension and entry count) is
fixed and only the content is seeded, so a run that measures whole cycles
measures the same mix of work on every seed.  Each op is one call of
`trisys.cli.run_command`; its check returns None or a one-line complaint.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable

import corpus
from corpus import System

# Every cycle has at least 100 ops, so that ten lie beyond the 90th
# percentile, and takes 7-20 s, so that a 30 s run repeats it up to five times.
#
# (dim, count) per cycle; kinds alternate within a dimension.  The identity
# check costs dim**5, so latency steps by dimension; these counts put the
# median in the middle of the dim-4 ops and the 90th percentile in the middle
# of the dim-6 ops, away from a step.
SPARSE_LAYOUT = ((3, 30), (4, 40), (5, 14), (6, 12), (7, 1), (8, 1), (9, 1), (10, 1))
SPARSE_KINDS = ("blocks", "nf_lift", "blocks", "empty")
# (dim, count) per cycle; two ops per file.  Connection cost grows with the
# jset size, so each file slot has a fixed block multiset (drawn once from the
# slot's own generator); the seed only orders and relabels the blocks.  Counts
# fall with dimension so that the cheaper dims hold most files.
WIDE_LAYOUT = ((13, 8), (14, 8), (15, 6), (16, 6), (17, 4), (18, 4), (19, 3), (20, 3), (21, 2), (22, 2), (23, 2), (24, 2))
# (dim, count) per cycle; entry counts spread evenly over [dim**2, dim**3 // 2],
# so latency rises smoothly; the median falls among the dim-4 ops and the 90th
# percentile where the dim-5 and dim-6 ops overlap.
DENSE_LAYOUT = ((3, 36), (4, 36), (5, 16), (6, 12))


@dataclass(frozen=True)
class Op:
    key: str  # stable name: file number and command
    system: System
    file: str  # file name inside the work directory
    argv: tuple[str, ...]  # command and options; the file path is appended
    expect_code: int
    check: Callable[[System, str], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    systems: Callable[[random.Random], list[System]]  # one cycle, in layout order
    ops_for: Callable[[System], list[tuple[str, tuple[str, ...], int, Callable]]]


# --- output parsing -----------------------------------------------------------


def _fmt_set(ids) -> str:
    return "{" + ",".join(str(i) for i in ids) + "}"


def _lines(out: str) -> dict[str, str]:
    """First value of each 'key: value' line."""
    found: dict[str, str] = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in found:
            found[key] = value
    return found


def _expect(fields: dict[str, str], **want: str) -> str | None:
    for key, value in want.items():
        got = fields.get(key)
        if got != value:
            return f"{key}: expected {value!r}, got {got!r}"
    return None


def _jset(s: System) -> list[int]:
    return [i for i in range(1, s.dim + 1) if i not in s.iset]


def _classes_line(s: System) -> str:
    return " ".join(_fmt_set(c) for c in s.components())


def _connected(s: System) -> tuple[str, str]:
    """(i_connected, j_connected) under the literal partition, i.e. hyperedge components."""
    comp_of = {i: n for n, comp in enumerate(s.components()) for i in comp}

    def within_one(ids) -> str:
        return "yes" if len({comp_of[i] for i in ids}) <= 1 else "no"

    return within_one(s.iset), within_one(_jset(s))


# --- report-sparse ---------------------------------------------------------------


def _sparse_systems(rng: random.Random) -> list[System]:
    out = []
    for dim, count in SPARSE_LAYOUT:
        for n in range(count):
            kind = SPARSE_KINDS[n % len(SPARSE_KINDS)] if count > 1 else "blocks"
            out.append(corpus.verified_system(rng, dim, kind))
    return out


def _check_sparse_report(s: System, out: str) -> str | None:
    f = _lines(out)
    return _expect(
        f,
        dim=str(s.dim),
        entries=str(len(s.entries)),
        leibniz="yes",
        violations="0",
        iset=_fmt_set(s.iset),
        jset=_fmt_set(_jset(s)),
        classes=_classes_line(s),
        covers="yes",
        ideals="yes",
        orthogonal="yes",
    )


def _sparse_ops(s: System):
    return [("report", ("report",), 0, _check_sparse_report)]


# --- structure-wide ----------------------------------------------------------------


def _wide_systems(rng: random.Random) -> list[System]:
    out = []
    for dim, count in WIDE_LAYOUT:
        for n in range(count):
            blocks = corpus.random_blocks(random.Random(f"wide-slot:{dim}:{n}"), dim)
            rng.shuffle(blocks)
            out.append(corpus.relabel(rng, corpus.block_sum(blocks)))
    return out


def _check_decompose(s: System, out: str) -> str | None:
    f = _lines(out)
    return _expect(
        f,
        dim=str(s.dim),
        mode="literal",
        classes=_classes_line(s),
        covers="yes",
        ideals="yes",
        orthogonal="yes",
    )


def _check_minimal(s: System, out: str) -> str | None:
    f = _lines(out)
    i_conn, j_conn = _connected(s)
    bad = _expect(f, dim=str(s.dim), mode="literal", i_connected=i_conn, j_connected=j_conn)
    if bad:
        return bad
    if f.get("verdict") not in ("minimal", "not_minimal", "criterion_inapplicable"):
        return f"verdict: unexpected {f.get('verdict')!r}"
    return None


def _wide_ops(s: System):
    iset = ",".join(str(i) for i in s.iset)
    return [
        ("decompose", ("decompose",), 0, _check_decompose),
        ("minimal", ("minimal", f"--generic={iset}"), 0, _check_minimal),
    ]


# --- report-dense -----------------------------------------------------------------


def _dense_systems(rng: random.Random) -> list[System]:
    out = []
    for dim, count in DENSE_LAYOUT:
        lo, hi = dim * dim, dim**3 // 2
        for n in range(count):
            entries = lo + (hi - lo) * (2 * n + 1) // (2 * count)
            out.append(corpus.dense_table(rng, dim, entries))
    return out


_SPLIT_REFUSED = re.compile(r'"split": \{\s*"error": "NotAdmissible"')


def _check_dense_report(s: System, out: str) -> str | None:
    head = out[:400]
    for want in (f'"dim": {s.dim},', f'"entries": {len(s.entries)},', '"command": "report"'):
        if want not in head:
            return f"header lacks {want}"
    if '"leibniz": false' not in out:
        return "identities reported to hold on a random dense table"
    if f'"rank": {s.dim},' not in out:
        return "deviation ideal is not the whole space"
    if not _SPLIT_REFUSED.search(out):
        return "split not refused with NotAdmissible"
    if not out.endswith("}\n"):
        return "truncated JSON document"
    return None


def _dense_ops(s: System):
    return [("report-json", ("report", "--json"), 1, _check_dense_report)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-sparse", _sparse_systems, _sparse_ops),
        Workload("structure-wide", _wide_systems, _wide_ops),
        Workload("report-dense", _dense_systems, _dense_ops),
    )
}


def build_ops(workload: Workload, seed: int) -> list[Op]:
    """One cycle of the workload's seeded ops; the same seed gives the same ops."""
    rng = random.Random(f"{workload.name}:{seed}")
    systems = workload.systems(rng)
    rng.shuffle(systems)
    return [
        Op(f"{n:03d}-{tag}", s, f"{n:03d}.tri", argv, code, check)
        for n, s in enumerate(systems)
        for tag, argv, code, check in workload.ops_for(s)
    ]
