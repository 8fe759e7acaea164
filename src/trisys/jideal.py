"""The deviation ideal, ideal closures, and the adapted basis split.

The deviation ideal is generated by all {x,y,z} - {x,z,y} + {y,z,x}; it is
zero exactly when the system multiplies like a Lie triple system, and for a
verified Leibniz triple system it annihilates the whole space whenever it
occupies the second or third slot.  The split partitions the basis indices
into iset (spanning the ideal) and jset (spanning a complement); it exists
only when the ideal is spanned by basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionError, NotAdapted, NotAdmissible
from .exactnum import RowSpace, Sparse, Vector, rowspace_from, sparse_add, sparse_to_vector, span_insert
from .system import Key, TripleSystem

MODES = ("leibniz", "generic")


@dataclass(frozen=True)
class IdealWitness:
    """An ideal with the generators and rounds that produced it."""

    subspace: RowSpace
    generators: tuple[Key, ...]
    closure_rounds: int


@dataclass(frozen=True)
class SplitSystem:
    """A triple system with a validated index split.

    iset spans the (computed or declared) ideal, jset the complement; the
    span of iset is an ideal whose slot-2 and slot-3 products all vanish.
    """

    sys: TripleSystem
    iset: tuple[int, ...]
    jset: tuple[int, ...]
    mode: str

    @cached_property
    def in_i(self) -> frozenset[int]:
        return frozenset(self.iset)

    @cached_property
    def in_j(self) -> frozenset[int]:
        return frozenset(self.jset)


def _generator_items(T: TripleSystem) -> list[tuple[Key, Vector]]:
    """Nonzero g(i,j,k) = {i,j,k} - {i,k,j} + {j,k,i} in lexicographic order.

    g(i,j,k) has a term only if (i,j,k), (i,k,j) or (j,k,i) is a key, so a
    key (p,q,r) makes only g(p,q,r), g(p,r,q) and g(r,p,q) candidates.
    """
    candidates = set()
    for p, q, r in T.table:
        candidates.update(((p, q, r), (p, r, q), (r, p, q)))
    out = []
    for i, j, k in sorted(candidates):
        acc: Sparse = {}
        for sign, key in ((1, (i, j, k)), (-1, (i, k, j)), (1, (j, k, i))):
            term = T.table.get(key)
            if term is not None:
                sparse_add(acc, term[1], sign * term[0])
        if acc:
            out.append(((i, j, k), sparse_to_vector(T.dim, acc)))
    return out


def generator_vectors(T: TripleSystem) -> list[Vector]:
    """The nonzero generators of the deviation ideal, one per basis triple."""
    return [vec for _, vec in _generator_items(T)]


def _slot_products(T: TripleSystem, v: Vector) -> list[Vector]:
    """All products {v,b,b'}, {b,v,b'}, {b,b',v} over basis pairs, nonzero only.

    One scan of the table per slot accumulates every pair's product, which
    keeps a closure round at O(rank * |table|) instead of O(rank * dim^2).
    """
    acc: list[dict[tuple[int, int], Sparse]] = [{}, {}, {}]
    for (i, j, k), (c, m) in T.table.items():
        for slot, idx, pair in ((0, i, (j, k)), (1, j, (i, k)), (2, k, (i, j))):
            f = v[idx - 1]
            if f:
                sparse_add(acc[slot].setdefault(pair, {}), m, f * c)
    return [
        sparse_to_vector(T.dim, acc[slot][pair])
        for slot in range(3)
        for pair in sorted(acc[slot])
        if acc[slot][pair]
    ]


def ideal_closure(T: TripleSystem, seed: RowSpace) -> IdealWitness:
    """Least ideal containing the seed.

    Each round multiplies the current spanning rows against all basis pairs
    in all three slot placements; the rank can only grow, so the loop stops
    after at most dim productive rounds plus one stable round.
    """
    if seed.dim != T.dim:
        raise DimensionError(f"seed dimension {seed.dim} does not match system dimension {T.dim}")
    space = seed
    rounds = 0
    while True:
        rounds += 1
        before = space.rank
        for row in space.rows:
            for w in _slot_products(T, row):
                space = span_insert(space, w)
        if space.rank == before:
            break
    return IdealWitness(space, (), rounds)


def compute_jideal(T: TripleSystem) -> IdealWitness:
    """The deviation ideal: the ideal closure of the generator span."""
    items = _generator_items(T)
    seed = rowspace_from(T.dim, (vec for _, vec in items))
    closed = ideal_closure(T, seed)
    return IdealWitness(closed.subspace, tuple(key for key, _ in items), closed.closure_rounds)


def check_annihilation(T: TripleSystem, J: RowSpace) -> bool:
    """True iff every product with J in the second or third slot vanishes.

    Checked on spanning rows against all basis pairs; bilinearity in the
    remaining slots makes that sufficient.
    """
    if J.dim != T.dim:
        raise DimensionError(f"subspace dimension {J.dim} does not match system dimension {T.dim}")
    for row in J.rows:
        acc: dict[tuple[int, int, int], Sparse] = {}
        for (i, j, k), (c, m) in T.table.items():
            for slot, idx, pair in ((1, j, (i, k)), (2, k, (i, j))):
                f = row[idx - 1]
                if f:
                    sparse_add(acc.setdefault((slot,) + pair, {}), m, f * c)
        if any(coords for coords in acc.values()):
            return False
    return True


def is_ideal(T: TripleSystem, S: RowSpace) -> bool:
    """True iff S is already closed under products with the whole system."""
    return ideal_closure(T, S).subspace == S


def split_basis(T: TripleSystem, J: RowSpace, mode: str = "leibniz") -> SplitSystem:
    """Split the basis indices along an ideal spanned by basis vectors.

    In leibniz mode J must be the computed deviation ideal; in generic mode
    any caller-declared ideal is accepted as long as it is an ideal and its
    slot-2/slot-3 products vanish.  Either way the annihilation law is
    verified, since the downstream connection machinery relies on it.
    """
    if J.dim != T.dim:
        raise DimensionError(f"subspace dimension {J.dim} does not match system dimension {T.dim}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "leibniz" and J != compute_jideal(T).subspace:
        raise ValueError("leibniz mode requires the computed deviation ideal")
    iset = J.basis_indices()
    if iset is None:
        bad = next(row for row in J.rows if sum(1 for c in row if c) != 1)
        raise NotAdapted(bad)
    if mode == "generic" and not is_ideal(T, J):
        raise NotAdmissible("declared subspace is not an ideal")
    if not check_annihilation(T, J):
        raise NotAdmissible("ideal has a nonzero product in the second or third slot")
    inside = set(iset)
    jset = tuple(i for i in range(1, T.dim + 1) if i not in inside)
    return SplitSystem(T, tuple(sorted(iset)), jset, mode)


def split_system(T: TripleSystem) -> SplitSystem:
    """Compute the deviation ideal and split along it."""
    return split_basis(T, compute_jideal(T).subspace, "leibniz")
