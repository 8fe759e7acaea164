"""Exact rational scalars, coordinate vectors, and canonical row spaces.

Everything is computed over the rationals with exact arithmetic, so rank,
membership, and subspace equality are decided with zero tolerance.  A
RowSpace is kept in reduced row echelon form with unit pivots; since that
form is unique per subspace, two RowSpaces are equal as subspaces if and
only if they are equal as values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, repeat
from operator import is_not
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
    indices = tuple(indices)
    space = RowSpace(dim, tuple([basis_vector(dim, i) for i in indices]))
    vars(space)["_basis"] = indices  # its basis_indices, known without a scan
    return space


Sparse = dict[int, Fraction]  # 1-based index -> nonzero coefficient


def sparse_add(acc: Sparse, index: int, value: Fraction) -> None:
    """acc[index] += value, dropping the coordinate when it cancels."""
    val = acc.get(index, ZERO) + value
    if val:
        acc[index] = val
    else:
        acc.pop(index, None)


def sparse_to_vector(dim: int, sparse: Sparse) -> Vector:
    out = [ZERO] * dim
    for index, c in sparse.items():
        out[index - 1] = c
    return tuple(out)


@dataclass(frozen=True)
class RowSpace:
    """A subspace represented by its reduced row echelon spanning rows."""

    dim: int
    rows: tuple[Vector, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis_indices(self) -> tuple[int, ...] | None:
        """1-based indices when every row is a standard basis vector, else None; found once per space."""
        return self._basis

    @cached
    def _basis(self) -> tuple[int, ...] | None:  # coordinate_space records it
        # only coordinates that are not the shared ZERO object can be nonzero
        nonzero = [[p + 1 for p in compress(count(), map(is_not, row, repeat(ZERO))) if row[p]] for row in self.rows]
        return None if any(len(p) != 1 for p in nonzero) else tuple([p for p, in nonzero])


def _reduce(rows: tuple[Vector, ...], v: Vector) -> list[Fraction]:
    w = list(v)
    for row in rows:
        p = next(q for q, c in enumerate(row) if c)
        if w[p]:
            c = w[p]
            w = [a - c * b for a, b in zip(w, row)]
    return w


def span_insert(space: RowSpace, v: Vector) -> RowSpace:
    """Canonical row space of span(space ∪ {v}); rank grows by at most one."""
    if len(v) != space.dim:
        raise DimensionError(f"vector of length {len(v)} in space of dimension {space.dim}")
    if space.rank == space.dim:
        return space
    w = _reduce(space.rows, v)
    lead = next((p for p, c in enumerate(w) if c), None)
    if lead is None:
        return space
    inv = ONE / w[lead]
    new = tuple([inv * c for c in w])
    adjusted = [
        tuple([a - row[lead] * b for a, b in zip(row, new)]) if row[lead] else row
        for row in space.rows
    ]
    adjusted.append(new)
    adjusted.sort(key=lambda row: next(p for p, c in enumerate(row) if c))
    return RowSpace(space.dim, tuple(adjusted))


def rowspace_from(dim: int, vectors: Iterable[Vector]) -> RowSpace:
    space = RowSpace(dim)
    for v in vectors:
        space = span_insert(space, v)
    return space
