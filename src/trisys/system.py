"""Triple systems given by sparse structure tables over a multiplicative basis.

A table maps an ordered index triple (i, j, k) to a pair (coeff, target),
meaning {b_i, b_j, b_k} = coeff * b_target; absent keys are zero products.
This module evaluates the trilinear product, verifies the defining
identities of a Leibniz triple system (in the four-identity and the
equivalent two-identity form), and lifts bilinear Leibniz brackets to
triple systems via {x, y, z} = [[x, y], z].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
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
from .exactnum import Sparse, Vector, cached, sparse_add, sparse_to_vector

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
        out = tuple([labels.get(i) for i in range(1, dim + 1)])
    else:
        out = tuple(labels)
        if len(out) != dim:
            raise DimensionError(f"expected {dim} labels, got {len(out)}")
    for label in out:
        # a label is one file token: nonempty, no whitespace, no comment mark
        if label is not None and not (isinstance(label, str) and label.split() == [label] and "#" not in label):
            raise ValueError(f"label {label!r} is not a nonempty string free of whitespace and '#'")
    return out


@dataclass(frozen=True)
class TripleSystem:
    """Immutable triple system; build through construct_system."""

    dim: int
    entries: tuple[Entry, ...]
    labels: tuple[str | None, ...]

    @cached
    def table(self) -> dict[Key, Term]:
        return {(i, j, k): (c, m) for i, j, k, c, m in self.entries}

    @cached
    def _successors(self) -> dict[int, list[int]]:
        """The entry digraph: x -> m for every entry with factor x and target m."""
        succ: dict[int, list[int]] = {}
        for i, j, k, _, m in self.entries:
            for x in (i, j, k):
                succ.setdefault(x, []).append(m)
        return succ

    @cached
    def _scaled(self) -> tuple[int, tuple[tuple[int, int, int, int, int], ...]]:
        """The coefficients' common denominator `scale`, and the entries (i, j, k, n, target) with n = coeff * scale."""
        ratios = [c.as_integer_ratio() for _, _, _, c, _ in self.entries]
        scale = math.lcm(*list(map(itemgetter(1), ratios)))  # from a list, at its exact size: see exactnum
        return scale, tuple([(i, j, k, p * (scale // q), m) for (i, j, k, _, m), (p, q) in zip(self.entries, ratios)])

    def product(self, i: int, j: int, k: int) -> Term | None:
        """Basis product {b_i, b_j, b_k} as (coeff, target), or None if zero."""
        return self.table.get((i, j, k))


@dataclass(frozen=True)
class BilinearTable:
    """A bilinear bracket [. , .]; entries may sum over several targets."""

    dim: int
    entries: tuple[BracketEntry, ...]
    labels: tuple[str | None, ...]

    @cached
    def table(self) -> dict[tuple[int, int], tuple[Term, ...]]:
        out: dict[tuple[int, int], list[Term]] = {}
        for i, j, c, m in self.entries:
            out.setdefault((i, j), []).append((c, m))
        return {k: tuple(v) for k, v in out.items()}


@dataclass(frozen=True, eq=False, init=False)
class IdentityReport:
    """Outcome of an identity check; ok when every identity instance holds.

    A report keeps its check's nonzero cells: ascending integer keys that
    spell (a, b, c, d, f, identity, target), the identity digit in radix
    len(identities) and the others in radix R = dim + 1, and numerators over
    `denominator`.  `residuals`, as (identity, tuple, ((target, n), ...)), and
    the dense `violations` are decoded from the cells when first read.  Built
    by hand from residuals, a report encodes them into cells once, in their
    order; each (identity, tuple) may appear once, with at least one target,
    each target once and with a nonzero numerator, and tuple entries and
    targets are positive.  Reports compare by checked and by their residuals'
    exact values, and by dim when they have a residual.
    """

    checked: str
    dim: int
    denominator: int

    def __init__(self, checked: str, residuals, dim: int, denominator: int = 1):
        residuals = tuple(residuals)
        digits = [x for _, tup, pairs in residuals for x in (*tup, *(m for m, _ in pairs))]
        if min(digits, default=1) < 1 or not all(pairs for _, _, pairs in residuals):
            raise ValueError("a residual needs a target, and its indices must be positive")
        idents = tuple(dict.fromkeys(ident for ident, _, _ in residuals))
        R, K = max([dim, *digits]) + 1, len(idents)
        keys, nums = [], []
        for ident, (a, b, c, d, f), pairs in residuals:
            cell = (((((a * R + b) * R + c) * R + d) * R + f) * K + idents.index(ident)) * R
            keys += [cell + m for m, _ in pairs]
            nums += [n for _, n in pairs]
        if len({key // R for key in keys}) != len(residuals) or len(set(keys)) != len(keys) or not all(nums):
            raise ValueError("an (identity, tuple) has two residuals, a target twice or a zero numerator")
        # the given residuals are kept, so they are not decoded again
        cells = (R, idents, keys, nums)
        vars(self).update(checked=checked, dim=dim, denominator=denominator, _cells=cells, residuals=residuals)

    @classmethod
    def _from_cells(cls, checked: str, dim: int, denominator: int, idents: tuple[str, ...], keys: list, nums: list):
        report = cls.__new__(cls)
        vars(report).update(checked=checked, dim=dim, denominator=denominator, _cells=(dim + 1, idents, keys, nums))
        return report

    def _records(self):
        """The residuals in cell order; each 5-tuple is decoded once, for all its identities."""
        R, idents, keys, nums = self._cells
        K = len(idents)
        head = last = -1
        pairs: list[tuple[int, int]] = []
        for key, n in zip(keys, nums):
            cell = key // R
            if cell != head:
                if pairs:
                    yield idents[at], tup, tuple(pairs)
                    pairs = []
                head = cell
                code, at = divmod(cell, K)
                if code != last:
                    last = code
                    q, f = divmod(code, R)
                    q, d = divmod(q, R)
                    q, c = divmod(q, R)
                    tup = (*divmod(q, R), c, d, f)
            pairs.append((key - cell * R, n))
        if pairs:
            yield idents[at], tup, tuple(pairs)

    @cached
    def residuals(self) -> tuple[tuple[str, tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
        return tuple(self._records())

    @cached
    def violations(self) -> tuple[tuple[str, tuple[int, ...], Vector], ...]:
        exact = cache(lambda n: Fraction(n, self.denominator))  # one Fraction per numerator
        return tuple((i, t, sparse_to_vector(self.dim, {m: exact(n) for m, n in r})) for i, t, r in self.residuals)

    @property
    def ok(self) -> bool:
        return not self._cells[2]

    def _key(self):
        den = self.denominator
        residuals = tuple([(i, t, frozenset([(m, Fraction(n, den)) for m, n in r])) for i, t, r in self.residuals])
        return self.checked, self.dim if residuals else None, residuals

    def __eq__(self, other) -> bool:
        return isinstance(other, IdentityReport) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


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
        c = coeff if type(coeff) is Fraction else Fraction(coeff)
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
        c = coeff if type(coeff) is Fraction else Fraction(coeff)
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
# identity -> an identity with the same terms; checked together, the first copies the second's cells
SAME_TERMS = {"two.2": "four.3"}  # two.2 is four.3 with its last two terms swapped
if any(sorted(IDENTITIES[copy]) != sorted(IDENTITIES[source]) for copy, source in SAME_TERMS.items()):
    raise AssertionError(f"the identities paired in {SAME_TERMS} no longer have the same terms")


def _plan(idents: tuple[str, ...]) -> tuple[tuple[int, tuple[tuple[int, ...], ...], int], ...]:
    """The identities a family joins, as (digit, terms, shift), each term flat: (sign, slot, *outer, *inner).

    A SAME_TERMS copy of an identity in the family is not joined; its source's shift is the copy's digit minus its own.
    """
    copies = {source: idents.index(copy) for copy, source in SAME_TERMS.items() if copy in idents}
    return tuple([(at, tuple([(sign, slot, *outer, *inner) for sign, slot, inner, outer in IDENTITIES[ident]]),
                   copies.get(ident, at) - at)
                  for at, ident in enumerate(idents) if SAME_TERMS.get(ident) not in idents])


# family -> its identities and their plan, compiled once, at import
_PLANS = {name: (idents, _plan(idents)) for name, idents in
          {"four": FOUR_FAMILY, "two": TWO_FAMILY, "both": FOUR_FAMILY + TWO_FAMILY}.items()}


def check_identities(
    T: TripleSystem, family: str = "both", cap: int = DEFAULT_IDENTITY_CAP
) -> IdentityReport:
    """Report every violated identity instance on basis 5-tuples.

    Multilinearity makes basis tuples sufficient.  A term is nonzero only
    where its inner and outer triples are both keys, that is on the pairs of
    entries whose first target sits in the term's slot of the second, so the
    cost follows their number, not dim**5; a term whose slot no target
    reaches is skipped.  Every scaled contribution is added under one
    integer that spells (a, b, c, d, f, identity, target) in mixed radix
    R = dim + 1, so one sort of the nonzero cells puts the violations in
    (tuple, identity) order with targets ascending.  Checking both
    families, two.2 is not joined: it has four.3's terms, so the plan
    copies four.3's cells to its identity digit.  The report keeps the
    sorted cells, with numerators over the common denominator scale**2
    (scale clears the coefficients' denominators); its residuals and dense
    violations are decoded only when first read.  The dimension cap stays
    as a contract.
    """
    if family not in _PLANS:
        raise ValueError(f"family must be 'four', 'two', or 'both', got {family!r}")
    if T.dim > cap:
        raise CapExceeded(
            f"dimension {T.dim} exceeds identity-check cap {cap}; raise the cap to force"
        )
    idents, plan = _PLANS[family]
    scale, scaled = T._scaled
    R, K = T.dim + 1, len(idents)
    weight = (K * R**5, K * R**4, K * R**3, K * R**2, K * R)  # of the 5-tuple positions a..f
    by_slot: tuple[dict[int, list[tuple[int, int, int, int]]], ...] = ({}, {}, {})
    for i, j, k, n, m in scaled:
        by_slot[0].setdefault(i, []).append((j, k, n, m))
        by_slot[1].setdefault(j, []).append((i, k, n, m))
        by_slot[2].setdefault(k, []).append((i, j, n, m))
    unreached = [*map({*map(itemgetter(4), scaled)}.isdisjoint, by_slot)]  # per slot: no target is a slot value
    seconds: dict[tuple[int, int, int], dict[int, list[tuple[int, int]]]] = {}
    acc: dict[int, int] = {}
    get = acc.get
    for at, terms, shift in plan:
        first = len(acc)  # the cells this identity adds are the dict's last ones
        for sign, slot, o1, o2, p1, p2, p3 in terms:
            if unreached[slot]:
                continue
            # second entries by slot value, as (code of outer positions and target, n)
            index = seconds.get((slot, o1, o2))
            if index is None:
                w, v = weight[o1], weight[o2]
                index = seconds[slot, o1, o2] = {
                    t: [(u * w + y * v + m, n) for u, y, n, m in rows] for t, rows in by_slot[slot].items()
                }
            wi, wj, wk = weight[p1], weight[p2], weight[p3]
            for i, j, k, n1, t in scaled:
                codes = index.get(t)
                if codes:
                    base = i * wi + j * wj + k * wk + at * R
                    n1 *= sign
                    for low, n2 in codes:
                        key = base + low
                        acc[key] = get(key, 0) + n1 * n2
        if shift:  # to the copy's identity digit
            acc.update({key + shift * R: n for key, n in islice(acc.items(), first, None)})
    keys = sorted([key for key, n in acc.items() if n])
    return IdentityReport._from_cells(family, T.dim, scale * scale, idents, keys, list(map(acc.__getitem__, keys)))


# --- bilinear brackets and the lift ----------------------------------------


def _compositions(L: BilinearTable) -> tuple[dict[Key, Sparse], dict[Key, Sparse]]:
    """[[b_i,b_j],b_k] ("left") and [b_i,[b_j,b_k]] ("right") by triple (i, j, k).

    Only triples where the target m of one key starts (left: key (m, k)) or
    ends (right: key (i, m)) another key appear, so the cost follows these
    joined key pairs, not dim**3.  A sum that cancels stays as an empty vector.
    """
    by_first: dict[int, list[tuple[int, tuple[Term, ...]]]] = {}
    by_second: dict[int, list[tuple[int, tuple[Term, ...]]]] = {}
    for (i, j), terms in L.table.items():
        by_first.setdefault(i, []).append((j, terms))
        by_second.setdefault(j, []).append((i, terms))
    left: dict[Key, Sparse] = {}
    right: dict[Key, Sparse] = {}
    for (i, j), terms in L.table.items():
        for c1, m in terms:
            for k, outer in by_first.get(m, ()):
                acc = left.setdefault((i, j, k), {})
                for c2, t in outer:
                    sparse_add(acc, t, c1 * c2)
            for h, outer in by_second.get(m, ()):
                acc = right.setdefault((h, i, j), {})
                for c2, t in outer:
                    sparse_add(acc, t, c1 * c2)
    return left, right


def check_leibniz(L: BilinearTable) -> tuple[Key, Vector] | None:
    """First basis triple violating [[x,y],z] = [[x,z],y] + [x,[y,z]], or None.

    Bilinearity of every term makes basis triples sufficient.  At (i, j, k)
    the three terms can be nonzero only at a left key, a left key with its
    last two slots swapped, or a right key of the composition join; every
    other triple has a zero residual.  So scanning the sorted union of those
    candidates finds the lexicographically first violation.
    """
    return _first_violation(L.dim, *_compositions(L))


def _first_violation(dim: int, left: dict[Key, Sparse], right: dict[Key, Sparse]) -> tuple[Key, Vector] | None:
    """check_leibniz on one composition join, shared with the lift."""
    for i, j, k in sorted({*left, *((i, k, j) for i, j, k in left), *right}):
        res = dict(left.get((i, j, k), {}))
        for term in (left.get((i, k, j), {}), right.get((i, j, k), {})):
            for m, c in term.items():
                sparse_add(res, m, -c)
        if res:
            return (i, j, k), sparse_to_vector(dim, res)
    return None


def lift_from_leibniz(L: BilinearTable) -> TripleSystem:
    """Triple system {x,y,z} = [[x,y],z] of a Leibniz bracket.

    The bracket must pass the Leibniz check and every lifted basis product
    must be a scaled basis vector, otherwise the multiplicative table does
    not exist.  Only the left keys of the composition join can be nonzero.
    """
    left, right = _compositions(L)
    bad = _first_violation(L.dim, left, right)
    if bad is not None:
        raise NotLeibniz(bad[0])
    entries: list[Entry] = []
    for key, w in sorted(left.items()):
        if len(w) > 1:
            raise NotMultiplicative(key, sparse_to_vector(L.dim, w))
        for m, c in w.items():  # at most one term; none when the sum cancels
            entries.append(key + (c, m))
    return construct_system(L.dim, entries, labels=L.labels)
