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
from typing import Iterable

from .errors import DimensionError

Rational = Fraction
Vector = tuple[Fraction, ...]

_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")

ZERO = Fraction(0)
ONE = Fraction(1)


def rat_canon(num: int, den: int = 1) -> Fraction:
    """Canonical rational num/den: reduced, positive denominator, zero as 0/1.

    Raises ZeroDivisionError when den is 0.
    """
    return Fraction(num, den)


def rat_parse(text: str) -> Fraction:
    """Parse "p" or "p/q" with an optional leading minus on p only."""
    m = _RAT_RE.match(text)
    if m is None:
        raise ValueError(f"invalid rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    return Fraction(num, den)


def rat_str(x: Fraction) -> str:
    """Serialize as "p" or "p/q" with q > 0 and no whitespace."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def zero_vector(dim: int) -> Vector:
    return (ZERO,) * dim


def basis_vector(dim: int, index: int) -> Vector:
    """Standard basis vector for a 1-based index."""
    if not 1 <= index <= dim:
        raise IndexError(f"basis index {index} out of range 1..{dim}")
    return tuple(ONE if p == index - 1 else ZERO for p in range(dim))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return not any(v)


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

    def pivots(self) -> tuple[int, ...]:
        """0-based pivot column of each row."""
        return tuple(next(p for p, c in enumerate(row) if c) for row in self.rows)

    def basis_indices(self) -> tuple[int, ...] | None:
        """1-based indices when every row is a standard basis vector, else None."""
        out = []
        for row in self.rows:
            nonzero = [p for p, c in enumerate(row) if c]
            if len(nonzero) != 1:
                return None
            out.append(nonzero[0] + 1)
        return tuple(out)


def _check_dim(space: RowSpace, v: Vector) -> None:
    if len(v) != space.dim:
        raise DimensionError(f"vector of length {len(v)} in space of dimension {space.dim}")


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
    _check_dim(space, v)
    w = _reduce(space.rows, v)
    lead = next((p for p, c in enumerate(w) if c), None)
    if lead is None:
        return space
    inv = ONE / w[lead]
    new = tuple(inv * c for c in w)
    adjusted = [vec_sub(row, vec_scale(row[lead], new)) for row in space.rows]
    adjusted.append(new)
    adjusted.sort(key=lambda row: next(p for p, c in enumerate(row) if c))
    return RowSpace(space.dim, tuple(adjusted))


def span_contains(space: RowSpace, v: Vector) -> bool:
    """True iff v lies in the span."""
    _check_dim(space, v)
    return not any(_reduce(space.rows, v))


def rowspace_from(dim: int, vectors: Iterable[Vector]) -> RowSpace:
    space = RowSpace(dim)
    for v in vectors:
        space = span_insert(space, v)
    return space
