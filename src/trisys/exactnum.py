"""Exact rational scalars, coordinate vectors, and canonical row spaces.

Everything is computed over the rationals with exact arithmetic, so rank,
membership, and subspace equality are decided with zero tolerance.  A
RowSpace is kept in reduced row echelon form with unit pivots, each row
sparse; since that form is unique per subspace, two RowSpaces are equal as
subspaces if and only if they are equal as values.  Insertion touches only
nonzeros (Gustavson, ACM TOMS 4(3), 1978), never all dim coordinates.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Iterable

from .errors import DimensionError

Rational = Fraction
Vector = tuple[Fraction, ...]

_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # ASCII digits only: \d matches every Unicode digit

ZERO = Fraction(0)
ONE = Fraction(1)


def rat_parse(text: str) -> Fraction:
    """Parse "p" or "p/q" with an optional leading minus on p only."""
    m = _RAT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"invalid rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    return Fraction(num, den)


def rat_str(x: Fraction) -> str:
    """Serialize as "p" or "p/q" with q > 0 and no whitespace, as str writes a Fraction (or an int)."""
    return str(x)


# Tuples built on every call are built at their exact size, from a list.
# tuple(<generator>) starts at 10 slots and grows by realloc, so it never
# takes a tuple from CPython's free list of its final size, yet joins that
# list when freed; the lists of sizes below 20 then fill (up to 2,000 each)
# until a full collection clears them, and peak memory grows with them.


class cached(cached_property):
    """functools.cached_property without the lock that CPython 3.11 and older take on each first read."""

    def __get__(self, instance, owner=None):
        return self if instance is None else vars(instance).setdefault(self.attrname, self.func(instance))


def _memo(obj, key: str, build, *args):
    """build(obj, *args), computed once per object and kept in its __dict__ under key.

    For a view of obj that another module derives.  The dataclass fields, and
    so equality, hash and repr, do not see it.
    """
    memo = vars(obj)
    if key not in memo:
        memo[key] = build(obj, *args)
    return memo[key]


def basis_vector(dim: int, index: int) -> Vector:
    """Standard basis vector for a 1-based index."""
    if not 1 <= index <= dim:
        raise IndexError(f"basis index {index} out of range 1..{dim}")
    out = [ZERO] * dim
    out[index - 1] = ONE
    return tuple(out)


def coordinate_space(dim: int, indices: Iterable[int]) -> RowSpace:
    """Canonical row space spanned by basis vectors, from sorted, distinct 1-based indices."""
    return RowSpace(dim, tuple([((i, ONE),) for i in indices]))


Sparse = dict[int, Fraction]  # 1-based index -> nonzero coefficient


def sparse_add(acc: Sparse, index: int, value: Fraction) -> None:
    """acc[index] += value, dropping the coordinate when it cancels."""
    val = acc.get(index, ZERO) + value
    if val:
        acc[index] = val
    else:
        acc.pop(index, None)


def sparse_to_vector(dim: int, sparse: Sparse, zero=ZERO) -> Vector:
    out = [zero] * dim
    for index, c in sparse.items():
        out[index - 1] = c
    return tuple(out)


@dataclass(frozen=True)
class RowSpace:
    """A subspace by its reduced row echelon rows in pivot order, each its nonzero (index, coefficient) pairs ascending."""

    dim: int
    sparse_rows: tuple[tuple[tuple[int, Fraction], ...], ...] = ()

    @property
    def rank(self) -> int:
        return len(self.sparse_rows)

    @cached
    def rows(self) -> tuple[Vector, ...]:
        """The rows as dim-long vectors, decoded on first read."""
        return tuple([sparse_to_vector(self.dim, dict(row)) for row in self.sparse_rows])

    def basis_indices(self) -> tuple[int, ...] | None:
        """1-based indices when every row is a standard basis vector, else None; read in O(rank)."""
        rows = self.sparse_rows
        return tuple([row[0][0] for row in rows]) if sum(map(len, rows)) == len(rows) else None


def sparse_insert(space: RowSpace, v: Sparse) -> RowSpace:
    """Canonical row space of span(space ∪ {v}) for v's nonzero coordinates; space itself if v lies in it."""
    rows = space.sparse_rows
    if len(rows) == space.dim:
        return space
    w = dict(v)
    for row in rows:  # less v[p]·row_p for each pivot p: reduced echelon form keeps v[p] final
        c = v.get(row[0][0])
        if c:
            for i, b in row:
                sparse_add(w, i, -c * b)
    if not w:
        return space
    lead = min(w)
    inv = ONE / w[lead]
    new = tuple([(i, inv * w[i]) for i in sorted(w)])
    out = [new]
    for row in rows:  # clear the new pivot's column from the rows that hold it
        k = bisect_left(row, (lead,))
        if k < len(row) and row[k][0] == lead:
            acc, c = dict(row), row[k][1]
            for i, b in new:
                sparse_add(acc, i, -c * b)
            row = tuple(sorted(acc.items()))
        out.append(row)
    return RowSpace(space.dim, tuple(sorted(out)))  # by pivot: the rows' first pairs differ in their indices


def span_insert(space: RowSpace, v: Vector) -> RowSpace:
    """Canonical row space of span(space ∪ {v}); rank grows by at most one."""
    if len(v) != space.dim:
        raise DimensionError(f"vector of length {len(v)} in space of dimension {space.dim}")
    return sparse_insert(space, {i: c for i, c in enumerate(v, 1) if c})


def rowspace_from(dim: int, vectors: Iterable[Vector]) -> RowSpace:
    return reduce(span_insert, vectors, RowSpace(dim))
