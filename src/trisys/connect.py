"""Connections in the index set of a split system.

Every index k gets a barred twin k'; the maps a and b read multiplicative
relations off the table (b through the barred symbols, answering "which
factor produces this target"), mu symmetrizes them, and phi extends mu to
index sets.  Chains of phi-steps are connections; the partition groups
indices into connection classes.

Two pair domains are supported.  Literal mode lets step pairs range over
all plain and barred indices, which makes the component decomposition work
by construction.  Restricted mode confines pairs to jset indices and their
bars; it is the domain on which connections are reversible.

The basis is multiplicative and a split fits every entry, so each entry
gives mu-steps and nothing else.  The partitions union the plain steps, the
entry digraph's edges factor -> target, straight from the entries.  Labeled
steps are scanned per domain and split where a label is read: the mu check
looks the restricted ones up among the products, and reachability sorts its
domain's by source for witnesses, which the pointwise maps replay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .errors import InternalError, NotReversible
from .exactnum import _memo, cached
from .jideal import SplitSystem

PARTITION_MODES = ("literal", "restricted")


class MarkedIndex(NamedTuple):
    index: int
    barred: bool

    def __str__(self) -> str:
        return f"{self.index}'" if self.barred else str(self.index)


def plain(i: int) -> MarkedIndex:
    return MarkedIndex(i, False)


def barred(i: int) -> MarkedIndex:
    return MarkedIndex(i, True)


def bar(m: MarkedIndex) -> MarkedIndex:
    """The bar involution."""
    return MarkedIndex(m.index, not m.barred)


@dataclass(frozen=True)
class ConnectionWitness:
    """An odd-length chain (source, p1, q1, p2, q2, ...) reaching a target.

    Replaying phi along consecutive pairs keeps every stage nonempty and
    puts the target in the final stage.
    """

    elements: tuple[MarkedIndex, ...]
    target: int

    @property
    def source(self) -> int:
        return self.elements[0].index

    @property
    def pairs(self) -> tuple[tuple[MarkedIndex, MarkedIndex], ...]:
        rest = self.elements[1:]
        return tuple((rest[t], rest[t + 1]) for t in range(0, len(rest), 2))

    def __str__(self) -> str:
        chain = ",".join(str(e) for e in self.elements)
        return f"({chain})->{self.target}"


@dataclass(frozen=True)
class Partition:
    """Connection classes, each identified by its minimum member."""

    classes: tuple[tuple[int, ...], ...]
    mode: str

    @cached
    def class_of(self) -> dict[int, int]:
        return {i: cls[0] for cls in self.classes for i in cls}


def map_a(S: SplitSystem, k1: int, k2: int, k3: int) -> frozenset[int]:
    """Direct product relation on plain indices: the target of the entry at (k1, k2, k3), if any.

    The split fits every entry: an iset index sits in slot one only, and its product lands in iset.
    """
    entry = S.sys.table.get((k1, k2, k3))
    return frozenset() if entry is None else frozenset((entry[1],))


def map_b(S: SplitSystem, k: int, m1: MarkedIndex, m2: MarkedIndex) -> frozenset[int]:
    """Reverse product relation: which indices produce k using the barred pair.

    Nonempty only for barred jset pairs: s produces k when an entry with s
    in one slot and the pair in the other two targets k.  An index outside
    1..dim is in no entry, so its pairs give the empty set too.
    """
    in_i = S.in_i
    if not (m1.barred and m2.barred) or m1.index in in_i or m2.index in in_i:
        return frozenset()
    r1, r2 = m1.index, m2.index
    table = S.sys.table
    found = set()
    for s in range(1, S.sys.dim + 1):
        for key in ((s, r1, r2), (r1, s, r2), (r1, r2, s)):
            term = table.get(key)
            if term is not None and term[1] == k:
                found.add(s)
                break
    return frozenset(found)


def mu(S: SplitSystem, k: int, m1: MarkedIndex, m2: MarkedIndex) -> frozenset[int]:
    """Symmetrized step relation.

    Plain pairs union map_a over all six argument permutations; barred
    pairs union map_b over both orders; mixed or barred-iset pairs give
    the empty set.
    """
    if not m1.barred and not m2.barred:
        a, b, c = k, m1.index, m2.index
        out: set[int] = set()
        for p, q, r in ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
            out |= map_a(S, p, q, r)
        return frozenset(out)
    if m1.barred and m2.barred:
        return map_b(S, k, m1, m2) | map_b(S, k, m2, m1)
    return frozenset()


def phi(S: SplitSystem, K, p: MarkedIndex, q: MarkedIndex) -> frozenset[int]:
    """Union of mu over a set of source indices."""
    out: set[int] = set()
    for k in K:
        out |= mu(S, k, p, q)
    return frozenset(out)


def _check_mode(mode: str) -> None:
    if mode not in PARTITION_MODES:
        raise ValueError(f"mode must be one of {PARTITION_MODES}, got {mode!r}")


MuStep = tuple[int, bool, int, int, int]  # (x, barred, p, q, y): y in mu(x, p, q), p <= q


def _scan_entries(S: SplitSystem, mode: str) -> set[MuStep]:
    """The mode's nonzero mu-steps, once each with the pair ascending (mu is symmetric in it).

    Each entry (i,j,k) -> m, slot by slot as (s, a, b), gives the plain step
    s -(a,b)-> m in literal mode, and in restricted mode too when a, b lie in
    jset; then also the barred step m -(a',b')-> s (map_b) in both domains.
    """
    in_i, literal = S.in_i, mode == "literal"
    steps: set[MuStep] = set()
    for (i, j, k), (_, m) in S.sys.table.items():
        for s, a, b in ((i, j, k), (j, i, k), (k, i, j)):
            if b < a:
                a, b = b, a
            if a not in in_i and b not in in_i:  # the entry's indices lie in 1..dim, so outside iset is jset
                steps.add((s, False, a, b, m))
                steps.add((m, True, a, b, s))
            elif literal:
                steps.add((s, False, a, b, m))
    return steps


def _ordered_steps(S: SplitSystem, mode: str) -> dict[int, list[tuple[bool, int, int, int]]]:
    """The mode's steps (barred, p, q, y) of each source, in the pointwise scan's order.

    That order is plain pairs, then barred, each lexicographic, y ascending.
    The scan keeps each step as p <= q only, which loses no witness: the
    least label (barred, p, q) of a step x -> y has p <= q.
    """
    out: dict[int, list[tuple[bool, int, int, int]]] = {}
    for x, b, p, q, y in sorted(_memo(S, f"_steps_{mode}", _scan_entries, mode)):
        out.setdefault(x, []).append((b, p, q, y))
    return out


def reachable(S: SplitSystem, k: int, mode: str = "literal") -> dict[int, ConnectionWitness]:
    """Breadth-first closure of one-step reachability from k, with witnesses.

    The source is always reachable through the trivial witness.  Witness
    choice is deterministic: queue order, pairs in domain order, elements
    of each mu-set sorted.  k outside 1..dim raises IndexError.
    """
    _check_mode(mode)
    if not 1 <= k <= S.sys.dim:
        raise IndexError(f"index {k} out of range 1..{S.sys.dim}")
    steps = _memo(S, f"_ordered_steps_{mode}", _ordered_steps, mode)
    found = {k: ConnectionWitness((plain(k),), k)}
    queue = deque([k])
    while queue:
        x = queue.popleft()
        wx = found[x]
        for b, p, q, y in steps.get(x, ()):
            if y not in found:
                pair = (MarkedIndex(p, b), MarkedIndex(q, b))
                found[y] = ConnectionWitness(wx.elements + pair, y)
                queue.append(y)
    return found


def validate_witness(S: SplitSystem, w: ConnectionWitness) -> bool:
    """Replay a witness: every stage nonempty and the target in the last one."""
    if len(w.elements) % 2 == 0 or w.elements[0].barred:
        return False
    if not (1 <= w.source <= S.sys.dim and 1 <= w.target <= S.sys.dim):
        return False
    if not w.pairs:
        return w.target == w.source
    stage: frozenset[int] = frozenset((w.source,))
    for p, q in w.pairs:
        stage = phi(S, stage, p, q)
        if not stage:
            return False
    return w.target in stage


def reverse_connection(S: SplitSystem, w: ConnectionWitness) -> ConnectionWitness:
    """Witness from target back to source: bar the pair chain and reverse it.

    A witness that does not replay raises ValueError.  Requires every pair
    element in jset or its bar; reversal outside that domain is not
    guaranteed and is refused.
    """
    if not validate_witness(S, w):
        raise ValueError(f"witness {w} does not replay")
    if not w.pairs:
        return w
    for p, q in w.pairs:
        for e in (p, q):
            if e.index in S.in_i:  # a replaying witness's pair elements lie in 1..dim
                raise NotReversible(f"pair element {e} lies outside the jset domain")
    rest = [bar(e) for e in w.elements[:0:-1]]
    reversed_w = ConnectionWitness((plain(w.target), *rest), w.source)
    if not validate_witness(S, reversed_w):
        raise InternalError(f"reversed witness {reversed_w} fails to replay")
    return reversed_w


def _components(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Connected components of the graph on 1..n with the given edges, by minimum, each ascending.

    Union-find with path halving that links the larger root under the
    smaller, so every parent is below its child and one ascending pass
    labels each index with its root, the class minimum.
    """
    parent = list(range(n + 1))
    for a, b in edges:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    groups: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        parent[i] = root = parent[parent[i]]
        groups.setdefault(root, []).append(i)
    return tuple([tuple(g) for g in groups.values()])


def partition(S: SplitSystem, mode: str = "literal") -> Partition:
    """Connection classes of the index set, computed once per split and mode.

    The step closure joins each index with the targets of its plain
    mu-steps, the entry digraph's edges factor -> target; a barred step
    joins the same two indices as its entry's plain step.  Literal mode
    equals the connected components of the hypergraph with one hyperedge
    {i, j, k, target} per table entry; those are computed from the entries
    alone and cross-checked against the step closure.  Restricted mode is
    the step closure over the confined pair domain.
    """
    return _memo(S, f"_partition_{mode}", _partition, mode)


def _partition(S: SplitSystem, mode: str) -> Partition:
    _check_mode(mode)
    n, entries = S.sys.dim, S.sys.entries
    # the plain steps are the entry digraph's edges factor -> target; an iset index sits in slot one only,
    # so the restricted domain drops slots two and three of an entry whose slot one lies in iset
    free = [e for e in entries if e[0] not in S.in_i] if mode == "restricted" and S.in_i else entries
    steps = chain(map(itemgetter(0, 4), entries), map(itemgetter(1, 4), free), map(itemgetter(2, 4), free))
    closure = _components(n, steps)
    if mode == "restricted":
        return Partition(closure, mode)
    hyper = _components(n, chain(*[map(itemgetter(0, p), entries) for p in (1, 2, 4)]))  # i-j, i-k, i-target
    if hyper != closure:
        raise InternalError(
            f"hyperedge components {hyper} disagree with step closure {closure}"
        )
    return Partition(hyper, mode)
