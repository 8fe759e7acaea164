"""Triple systems given by sparse structure tables over a multiplicative basis.

A table maps an ordered index triple (i, j, k) to a pair (coeff, target),
meaning {b_i, b_j, b_k} = coeff * b_target; absent keys are zero products.
This module evaluates the trilinear product, verifies the defining
identities of a Leibniz triple system (in the four-identity and the
equivalent two-identity form), and lifts bilinear Leibniz brackets to
triple systems via {x, y, z} = [[x, y], z].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    CapExceeded,
    DimensionError,
    DuplicateEntry,
    NotLeibniz,
    NotMultiplicative,
    ZeroCoefficient,
)
from .exactnum import Sparse, Vector, sparse_add, sparse_to_vector

Key = tuple[int, int, int]
Term = tuple[Fraction, int]
Entry = tuple[int, int, int, Fraction, int]
BracketEntry = tuple[int, int, Fraction, int]

DEFAULT_IDENTITY_CAP = 12


def _normalize_labels(dim: int, labels) -> tuple[str | None, ...]:
    if labels is None:
        return (None,) * dim
    if isinstance(labels, Mapping):
        for k in labels:
            if not 1 <= k <= dim:
                raise IndexError(f"label index {k} out of range 1..{dim}")
        return tuple(labels.get(i) for i in range(1, dim + 1))
    out = tuple(labels)
    if len(out) != dim:
        raise DimensionError(f"expected {dim} labels, got {len(out)}")
    return out


@dataclass(frozen=True)
class TripleSystem:
    """Immutable triple system; build through construct_system."""

    dim: int
    entries: tuple[Entry, ...]
    labels: tuple[str | None, ...]

    @cached_property
    def table(self) -> dict[Key, Term]:
        return {(i, j, k): (c, m) for i, j, k, c, m in self.entries}

    def product(self, i: int, j: int, k: int) -> Term | None:
        """Basis product {b_i, b_j, b_k} as (coeff, target), or None if zero."""
        return self.table.get((i, j, k))


@dataclass(frozen=True)
class BilinearTable:
    """A bilinear bracket [. , .]; entries may sum over several targets."""

    dim: int
    entries: tuple[BracketEntry, ...]
    labels: tuple[str | None, ...]

    @cached_property
    def table(self) -> dict[tuple[int, int], tuple[Term, ...]]:
        out: dict[tuple[int, int], list[Term]] = {}
        for i, j, c, m in self.entries:
            out.setdefault((i, j), []).append((c, m))
        return {k: tuple(v) for k, v in out.items()}


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of an identity check; empty violations means all hold."""

    checked: str
    violations: tuple[tuple[str, tuple[int, ...], Vector], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def construct_system(dim: int, entries: Iterable[Sequence], labels=None) -> TripleSystem:
    """Validate and build a triple system from (i, j, k, coeff, target) rows."""
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    seen: dict[Key, None] = {}
    rows: list[Entry] = []
    for raw in entries:
        i, j, k, coeff, target = raw
        for idx in (i, j, k, target):
            if not 1 <= idx <= dim:
                raise IndexError(f"index {idx} out of range 1..{dim} in entry {tuple(raw)}")
        c = Fraction(coeff)
        if c == 0:
            raise ZeroCoefficient(f"zero coefficient at {(i, j, k)}; omit zero products")
        if (i, j, k) in seen:
            raise DuplicateEntry(f"duplicate table key {(i, j, k)}")
        seen[(i, j, k)] = None
        rows.append((i, j, k, c, target))
    rows.sort(key=lambda e: e[:3])
    return TripleSystem(dim, tuple(rows), _normalize_labels(dim, labels))


def construct_bilinear(dim: int, entries: Iterable[Sequence], labels=None) -> BilinearTable:
    """Validate and build a bilinear bracket from (i, j, coeff, target) rows."""
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    seen: set[tuple[int, int, int]] = set()
    rows: list[BracketEntry] = []
    for raw in entries:
        i, j, coeff, target = raw
        for idx in (i, j, target):
            if not 1 <= idx <= dim:
                raise IndexError(f"index {idx} out of range 1..{dim} in entry {tuple(raw)}")
        c = Fraction(coeff)
        if c == 0:
            raise ZeroCoefficient(f"zero coefficient at {(i, j)}; omit zero brackets")
        if (i, j, target) in seen:
            raise DuplicateEntry(f"duplicate bracket term {(i, j)} -> {target}")
        seen.add((i, j, target))
        rows.append((i, j, c, target))
    rows.sort(key=lambda e: (e[0], e[1], e[3]))
    return BilinearTable(dim, tuple(rows), _normalize_labels(dim, labels))


def evaluate_product(T: TripleSystem, x: Vector, y: Vector, z: Vector) -> Vector:
    """Trilinear extension of the table to arbitrary coordinate vectors."""
    for v in (x, y, z):
        if len(v) != T.dim:
            raise DimensionError(f"vector of length {len(v)} in system of dimension {T.dim}")
    acc = [Fraction(0)] * T.dim
    for (i, j, k), (c, m) in T.table.items():
        f = x[i - 1] * y[j - 1] * z[k - 1]
        if f:
            acc[m - 1] += f * c
    return tuple(acc)


# --- identity check --------------------------------------------------------
#
# An identity is a signed sum of terms over a basis 5-tuple (a, b, c, d, f),
# written without braces: "+a(bcd)f" is +{a, {b, c, d}, f}.  A term is stored
# as (sign, slot, inner, outer): the product of the arguments at positions
# `inner` sits in outer slot `slot`, and the arguments at positions `outer`
# fill the other two outer slots in order.

IdentityTerm = tuple[int, int, tuple[int, ...], tuple[int, ...]]


def _term(text: str) -> IdentityTerm:
    body = text[1:]
    slot = body.index("(")
    pos = ["abcdf".index(x) for x in body.replace("(", "").replace(")", "")]
    inner = tuple(pos[slot : slot + 3])
    return (-1 if text[0] == "-" else 1, slot, inner, tuple(pos[:slot] + pos[slot + 3 :]))


IDENTITIES: dict[str, tuple[IdentityTerm, ...]] = {
    name: tuple(_term(t) for t in terms.split())
    for name, terms in {
        "four.1": "+a(bcd)f +a(cbd)f",
        "four.2": "+a(bcd)f +a(cdb)f +a(dbc)f",
        "four.3": "+ab(cdf) -(abc)df +(abd)cf -(abf)dc +(abf)cd",
        "four.4": "+(cdf)ba -(cdf)ab -(cba)df +(cab)df -c(abd)f -cd(abf)",
        "two.1": "+a(bcd)f -(abc)df +(acb)df +(adb)cf -(adc)bf",
        "two.2": "+ab(cdf) -(abc)df +(abd)cf +(abf)cd -(abf)dc",
    }.items()
}
FOUR_FAMILY = ("four.1", "four.2", "four.3", "four.4")
TWO_FAMILY = ("two.1", "two.2")


def _joins(T: TripleSystem, scale: int) -> list[list[tuple[Key, int, int, int, int]]]:
    """joins[s]: every pair of entries, the first one's target in slot s of the second.

    A pair is (first key, u, v, n, target) with u, v, target from the second
    entry and n = scale**2 * c1 * c2, an integer as scale clears denominators.
    """
    scaled = [(key, c.numerator * (scale // c.denominator), t) for key, (c, t) in T.table.items()]
    by_slot: tuple[dict[int, list[tuple[int, int, int, int]]], ...] = ({}, {}, {})
    for (i, j, k), n, m in scaled:
        by_slot[0].setdefault(i, []).append((j, k, n, m))
        by_slot[1].setdefault(j, []).append((i, k, n, m))
        by_slot[2].setdefault(k, []).append((i, j, n, m))
    return [
        [(key, u, v, n1 * n2, m) for key, n1, t in scaled for u, v, n2, m in index.get(t, ())]
        for index in by_slot
    ]


def _identity_residuals(terms, joins) -> dict[tuple[int, ...], dict[int, int]]:
    """Scaled residual of one identity at every 5-tuple with a nonzero term.

    A term is nonzero only where its inner and outer triples are both keys,
    that is on the pairs of joins[slot], placed by the term's positions.
    """
    out: dict[tuple[int, ...], dict[int, int]] = {}
    for sign, slot, inner, outer in terms:
        order = inner + outer
        place = itemgetter(*(order.index(p) for p in range(5)))
        for key, u, v, n, m in joins[slot]:
            acc = out.setdefault(place(key + (u, v)), {})
            acc[m] = acc.get(m, 0) + sign * n
    return out


def check_identities(
    T: TripleSystem, family: str = "both", cap: int = DEFAULT_IDENTITY_CAP
) -> IdentityReport:
    """Report every violated identity instance on basis 5-tuples.

    Multilinearity makes basis tuples sufficient.  Only nonzero terms are
    evaluated, so the cost follows their number, not dim**5; violations come
    in (tuple, identity) order.  The dimension cap stays as a contract.
    """
    if family not in ("four", "two", "both"):
        raise ValueError(f"family must be 'four', 'two', or 'both', got {family!r}")
    if T.dim > cap:
        raise CapExceeded(
            f"dimension {T.dim} exceeds identity-check cap {cap}; raise the cap to force"
        )
    idents: tuple[str, ...] = ()
    if family in ("four", "both"):
        idents += FOUR_FAMILY
    if family in ("two", "both"):
        idents += TWO_FAMILY
    scale = math.lcm(*(c.denominator for c, _ in T.table.values()))
    joins = _joins(T, scale)
    exact = cache(lambda n: Fraction(n, scale * scale))  # one Fraction per numerator
    found = []
    for ident in idents:
        for tup, scaled in _identity_residuals(IDENTITIES[ident], joins).items():
            sparse = {m: exact(n) for m, n in scaled.items() if n}
            if sparse:
                found.append((ident, tup, sparse_to_vector(T.dim, sparse)))
    found.sort(key=itemgetter(1))  # stable, so each tuple keeps the family's identity order
    return IdentityReport(family, tuple(found))


# --- bilinear brackets and the lift ----------------------------------------


def _bracket_basis(L: BilinearTable, i: int, j: int) -> Sparse:
    out: Sparse = {}
    for c, m in L.table.get((i, j), ()):
        sparse_add(out, m, c)
    return out


def _bracket_left(L: BilinearTable, v: Sparse, k: int) -> Sparse:
    """[v, b_k] for a sparse vector v."""
    out: Sparse = {}
    for m, c in v.items():
        for c2, t in L.table.get((m, k), ()):
            sparse_add(out, t, c * c2)
    return out


def _bracket_right(L: BilinearTable, i: int, v: Sparse) -> Sparse:
    """[b_i, v] for a sparse vector v."""
    out: Sparse = {}
    for m, c in v.items():
        for c2, t in L.table.get((i, m), ()):
            sparse_add(out, t, c * c2)
    return out


def check_leibniz(L: BilinearTable) -> tuple[Key, Vector] | None:
    """First basis triple violating [[x,y],z] = [[x,z],y] + [x,[y,z]], or None.

    Bilinearity of every term makes basis triples sufficient.
    """
    indices = range(1, L.dim + 1)
    for i, j, k in itertools.product(indices, repeat=3):
        res: Sparse = {}
        for m, c in _bracket_left(L, _bracket_basis(L, i, j), k).items():
            sparse_add(res, m, c)
        for m, c in _bracket_left(L, _bracket_basis(L, i, k), j).items():
            sparse_add(res, m, -c)
        for m, c in _bracket_right(L, i, _bracket_basis(L, j, k)).items():
            sparse_add(res, m, -c)
        if res:
            return (i, j, k), sparse_to_vector(L.dim, res)
    return None


def lift_from_leibniz(L: BilinearTable) -> TripleSystem:
    """Triple system {x,y,z} = [[x,y],z] of a Leibniz bracket.

    The bracket must pass the Leibniz check and every lifted basis product
    must be a scaled basis vector, otherwise the multiplicative table does
    not exist.
    """
    bad = check_leibniz(L)
    if bad is not None:
        raise NotLeibniz(bad[0])
    entries: list[Entry] = []
    indices = range(1, L.dim + 1)
    for i, j, k in itertools.product(indices, repeat=3):
        w = _bracket_left(L, _bracket_basis(L, i, j), k)
        if not w:
            continue
        if len(w) > 1:
            raise NotMultiplicative((i, j, k), sparse_to_vector(L.dim, w))
        ((m, c),) = w.items()
        entries.append((i, j, k, c, m))
    return construct_system(L.dim, entries, labels=L.labels)
