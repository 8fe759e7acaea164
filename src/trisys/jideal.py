"""The deviation ideal, ideal closures, and the adapted basis split.

The deviation ideal is generated by all {x,y,z} - {x,z,y} + {y,z,x}; it is
zero exactly when the system multiplies like a Lie triple system, and for a
verified Leibniz triple system it annihilates the whole space whenever it
occupies the second or third slot.  The split partitions the basis indices
into iset (spanning the ideal) and jset (spanning a complement); it exists
only when the ideal is spanned by basis vectors.

A product of a basis vector with two basis vectors is a multiple of one basis
vector, so a span of basis vectors closes and is checked on the entry digraph
(x -> m for each entry with factor x and target m): one table scan plus dim
per round.  Any other subspace keeps the exact row-space closure on sparse rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, repeat

from .errors import DimensionError, InconsistentSplit, NotAdapted, NotAdmissible
from .exactnum import RowSpace, Sparse, Vector, cached, coordinate_space, sparse_add, sparse_insert, sparse_to_vector
from .system import Key, TripleSystem


@dataclass(frozen=True)
class IdealWitness:
    """An ideal with the generators and rounds that produced it."""

    subspace: RowSpace
    generators: tuple[Key, ...]
    closure_rounds: int


@dataclass(frozen=True)
class SplitSystem:
    """A triple system with an adapted index split, checked on construction.

    iset spans the ideal (computed by split_system, declared to split_basis)
    and is strictly ascending within 1..dim, else InconsistentSplit; jset, the
    other indices, spans a complement.  The span of iset is an ideal whose
    slot-2 and slot-3 products all vanish, else NotAdmissible: no entry with a
    factor in iset targets outside it, and none has slot 2 or 3 in iset.
    """

    sys: TripleSystem
    iset: tuple[int, ...]
    mode: str

    def __post_init__(self) -> None:
        n, in_i = self.sys.dim, self.in_i  # with iset empty, no entry can break either law
        if not _ascending(self.iset, n):
            raise InconsistentSplit(f"iset is not strictly ascending within 1..{n}")
        if in_i and not in_i.issuperset(chain.from_iterable(map(self.sys._successors.get, self.iset, repeat(())))):
            raise NotAdmissible("declared subspace is not an ideal")
        if in_i and not _annihilates(self.sys, in_i):
            raise NotAdmissible("ideal has a nonzero product in the second or third slot")

    @cached
    def in_i(self) -> frozenset[int]:
        return frozenset(self.iset)

    @cached
    def jset(self) -> tuple[int, ...]:  # the runs strictly between consecutive iset indices, 0 and dim + 1
        t = self.iset
        return tuple([*chain.from_iterable(map(range, map((1).__add__, chain((0,), t)), chain(t, (self.sys.dim + 1,))))])


def _ascending(t: tuple[int, ...], n: int) -> bool:
    """True iff t is strictly ascending within 1..n; builds no copy of t."""
    return all(map(operator.lt, chain((0,), t), chain(t, (n + 1,))))


def _generator_items(T: TripleSystem) -> list[tuple[Key, Sparse]]:
    """Nonzero g(i,j,k) = {i,j,k} - {i,k,j} + {j,k,i} in lexicographic order, as sparse sums.

    g(i,j,k) has a term only if (i,j,k), (i,k,j) or (j,k,i) is a key, so a
    key (p,q,r) makes only g(p,q,r), g(p,r,q) and g(r,p,q) candidates.  The
    sums are of integer numerators over the common denominator `scale`, as in
    the identity check; a Fraction is built only for a nonzero coefficient.
    """
    scale, rows = T._scaled
    scaled = {(i, j, k): (n, m) for i, j, k, n, m in rows}
    candidates = set()
    for p, q, r in scaled:
        candidates.update(((p, q, r), (p, r, q), (r, p, q)))
    out = []
    for i, j, k in sorted(candidates):
        acc: dict[int, int] = {}
        for sign, key in ((1, (i, j, k)), (-1, (i, k, j)), (1, (j, k, i))):
            term = scaled.get(key)
            if term is not None:
                n, m = term
                acc[m] = acc.get(m, 0) + sign * n
        coeffs = {m: Fraction(n, scale) for m, n in acc.items() if n}
        if coeffs:
            out.append(((i, j, k), coeffs))
    return out


def generator_vectors(T: TripleSystem) -> list[Vector]:
    """The nonzero generators of the deviation ideal, one per basis triple."""
    return [sparse_to_vector(T.dim, acc) for _, acc in _generator_items(T)]


def _slot_products(T: TripleSystem, v: Sparse, slots=(0, 1, 2)) -> list[Sparse]:
    """Products {v,b,b'}, {b,v,b'}, {b,b',v} (in `slots`) over basis pairs, nonzero only, as sparse sums.

    One scan of the table accumulates every pair's product, which keeps a
    closure round at O(rank * |table|) instead of O(rank * dim^2).
    """
    acc: dict[tuple[int, ...], Sparse] = {}
    for key, (c, m) in T.table.items():
        for slot in slots:
            f = v.get(key[slot])
            if f:
                sparse_add(acc.setdefault((slot, *key[:slot], *key[slot + 1:]), {}), m, f * c)
    return [acc[p] for p in sorted(acc) if acc[p]]


def _successor_closure(T: TripleSystem, indices) -> tuple[list[int], int]:
    """Indices reachable from `indices` in the entry digraph T._successors, sorted, and the closure rounds.

    A closure round is one breadth-first layer; the rounds are the productive
    layers plus one, the round that adds nothing or starts at full rank.
    """
    succ = T._successors
    seen = set(indices)
    layer, rounds = seen, 1
    while len(seen) < T.dim:
        layer = {m for x in layer for m in succ.get(x, ())} - seen
        if not layer:
            break
        seen |= layer
        rounds += 1
    return sorted(seen), rounds


def ideal_closure(T: TripleSystem, seed: RowSpace) -> IdealWitness:
    """Least ideal containing the seed.

    A seed spanned by basis vectors closes on the entry digraph into unit
    rows.  Any other seed closes semi-naively: each round multiplies only the
    vectors inserted in the round before (first the seed rows) against all
    basis pairs in all three slots, which spans what multiplying every row
    would.  The rank only grows, so at most dim productive rounds plus one
    stable round are run.
    """
    if seed.dim != T.dim:
        raise DimensionError(f"seed dimension {seed.dim} does not match system dimension {T.dim}")
    indices = seed.basis_indices()
    if indices is not None:
        closed, rounds = _successor_closure(T, indices)
        return IdealWitness(seed if len(closed) == seed.rank else coordinate_space(T.dim, closed), (), rounds)
    space, frontier, rounds = seed, [dict(row) for row in seed.sparse_rows], 0
    while True:
        rounds += 1
        if space.rank == T.dim:  # a round that starts at full rank is the stable round: counted, not run
            break
        inserted = []
        for w in [w for row in frontier for w in _slot_products(T, row)]:
            grown = sparse_insert(space, w)
            if grown is not space:
                space = grown
                inserted.append(w)
        if not inserted:
            break
        frontier = inserted
    return IdealWitness(space, (), rounds)


def compute_jideal(T: TripleSystem) -> IdealWitness:
    """The deviation ideal: the ideal closure of the generator span.

    If every generator's support lies in the one-index generators' indices,
    the span is theirs and is built from unit rows, with no row reduction.
    """
    items = _generator_items(T)
    units = {next(iter(acc)) for _, acc in items if len(acc) == 1}
    if all(acc.keys() <= units for _, acc in items):
        seed = coordinate_space(T.dim, sorted(units))
    else:
        seed = reduce(sparse_insert, [acc for _, acc in items], RowSpace(T.dim))
    closed = ideal_closure(T, seed)
    return IdealWitness(closed.subspace, tuple([key for key, _ in items]), closed.closure_rounds)


def check_annihilation(T: TripleSystem, J: RowSpace) -> bool:
    """True iff every product with J in the second or third slot vanishes.

    On J spanned by basis vectors: no entry has slot 2 or 3 in J's indices.
    Otherwise it is checked on spanning rows against all basis pairs;
    bilinearity in the remaining slots makes that sufficient.
    """
    if J.dim != T.dim:
        raise DimensionError(f"subspace dimension {J.dim} does not match system dimension {T.dim}")
    indices = J.basis_indices()
    if indices is not None:
        return _annihilates(T, set(indices))
    return not any(_slot_products(T, dict(row), (1, 2)) for row in J.sparse_rows)


def _annihilates(T: TripleSystem, inside: set[int]) -> bool:
    """True iff no entry has slot 2 or 3 in `inside`: the span of those basis vectors annihilates there."""
    return inside.isdisjoint(chain.from_iterable(map(operator.itemgetter(1, 2), T.table)))


def split_basis(T: TripleSystem, iset) -> SplitSystem:
    """Split along a declared ideal, given by the indices of the basis vectors that span it.

    Their order and repeats do not matter; an index outside 1..dim raises
    IndexError.  Any declared ideal is accepted as long as it is an ideal and
    its slot-2/slot-3 products vanish; the split checks both laws on
    construction, since the downstream connection machinery relies on them.
    """
    iset = tuple(sorted(set(iset)))
    if iset and not (iset[0] >= 1 and iset[-1] <= T.dim):
        bad = next(i for i in iset if not 1 <= i <= T.dim)
        raise IndexError(f"basis index {bad} out of range 1..{T.dim}")
    return SplitSystem(T, iset, "generic")


def split_system(T: TripleSystem, witness: IdealWitness | None = None) -> SplitSystem:
    """Split along the deviation ideal: witness if given (it must be compute_jideal(T)), else computed."""
    J = (witness or compute_jideal(T)).subspace
    iset = J.basis_indices()
    if iset is None:
        raise NotAdapted(sparse_to_vector(T.dim, dict(next(row for row in J.sparse_rows if len(row) != 1))))
    return SplitSystem(T, iset, "leibniz")
