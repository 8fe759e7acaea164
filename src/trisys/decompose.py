"""Component ideals, the decomposition report, and minimality decisions.

Each connection class spans a component; in literal mode the components
are pairwise orthogonal ideals whose direct sum is the whole system.  The
ideal and orthogonality verdicts are read off the entries that straddle
classes, since an entry inside one class can clear neither.  Minimality
(the only nonzero ideals with an inherited basis are the deviation ideal
and the whole system) is decided by the connectivity criterion when the
basis passes the mu-multiplicativity test, and otherwise by the
inherited ideals themselves.

A basis subset spans an ideal iff it is closed under the entry digraph
(factor -> target), so the inherited ideals are unions of principal
closures cl(x), and the first counterexample in size-then-lexicographic
order is itself a principal closure.  is_minimal takes it from the dim
principal closures, in O(dim * (dim + |T|)); the exhaustive 2^dim
enumeration, enumerate_inherited_ideals, is what the tests check it against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CapExceeded, TheoremViolation
from .jideal import SplitSystem, _successor_closure, _successors
from .connect import MarkedIndex, _entry_pass, partition
from .system import Entry, TripleSystem

DEFAULT_ORACLE_CAP = 12


@dataclass(frozen=True)
class Component:
    """One connection class with its re-indexed subsystem.

    indices maps local basis position p (1-based) to parent index
    indices[p-1], so round-trips between the two index sets are exact.
    """

    indices: tuple[int, ...]
    subsystem: TripleSystem
    iset_part: tuple[int, ...]
    jset_part: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionReport:
    components: tuple[Component, ...]
    orthogonality: tuple[tuple[bool, ...], ...]
    ideal_flags: tuple[bool, ...]
    covers: bool
    mode: str
    confinement_violations: tuple[Entry, ...] = ()

    @property
    def ok(self) -> bool:
        """Coverage and no straddling entry: only a straddler can clear an ideal flag or an orthogonality cell."""
        return self.covers and not self.confinement_violations


class MuViolation(NamedTuple):
    """A mu-relation not realized by a product with the source in slot one."""

    t1: int
    pair: tuple[MarkedIndex, MarkedIndex]
    t2: int

    def __str__(self) -> str:
        return f"t1={self.t1} pair=({self.pair[0]},{self.pair[1]}) t2={self.t2}"


@dataclass(frozen=True)
class MinimalityVerdict:
    verdict: str
    mu_multiplicative: bool
    mu_violation: MuViolation | None
    i_connected: bool
    j_connected: bool
    oracle_used: bool
    counterexample_ideal: tuple[int, ...] | None = None


def _build_component(S: SplitSystem, cls: tuple[int, ...], entries: list[Entry]) -> Component:
    # the parent's entries are validated and sorted by key, and the local
    # numbering is monotone, so they need no construct_system pass
    local = {parent: pos for pos, parent in enumerate(cls, 1)}
    local_entries = tuple([(local[i], local[j], local[k], c, local[m]) for i, j, k, c, m in entries])
    sub = TripleSystem(len(cls), local_entries, tuple([S.sys.labels[parent - 1] for parent in cls]))
    in_i = S.in_i
    return Component(cls, sub, tuple([i for i in cls if i in in_i]), tuple([i for i in cls if i not in in_i]))


def _components(S: SplitSystem, mode: str) -> tuple[list[Component], list[Entry], list[list[int]]]:
    """partition(S, mode)'s components, the entries straddling its classes, and their classes' positions.

    A straddler's place lists the component positions of its indices i, j, k and target m.
    """
    part = partition(S, mode)
    position = {cls[0]: c for c, cls in enumerate(part.classes)}
    membership = part.class_of
    buckets = [[] for _ in part.classes]
    straddlers, places = [], []
    for i, j, k, c, m in S.sys.entries:
        where = [position[membership[x]] for x in (i, j, k, m)]
        if where.count(where[0]) == 4:
            buckets[where[0]].append((i, j, k, c, m))
        else:
            straddlers.append((i, j, k, c, m))
            places.append(where)
    return [_build_component(S, cls, entries) for cls, entries in zip(part.classes, buckets)], straddlers, places


def check_decomposition(S: SplitSystem, mode: str = "literal") -> DecompositionReport:
    """Components plus the ideal, orthogonality, and coverage verdicts.

    Only a straddling entry can clear an ideal flag (a factor in the class,
    the target outside it) or an orthogonality cell (factors from both
    classes); each row that no straddler touches is one shared all-true
    tuple.  Literal mode must come out all-true; a failure there indicates
    a bug and raises TheoremViolation.  Restricted mode reports whatever holds.
    """
    comps, straddlers, places = _components(S, mode)
    if straddlers and mode == "literal":
        raise TheoremViolation(
            f"literal components are not entry-closed: {len(straddlers)} table entries straddle partition classes"
        )
    ideal_flags = [True] * len(comps)
    crossed: dict[int, set[int]] = {}  # component position -> positions sharing a straddler's factors
    for *factors, m in places:
        for a in factors:
            ideal_flags[a] = ideal_flags[a] and a == m
            crossed.setdefault(a, set()).update(factors)
    clear = (True,) * len(comps)
    ortho = [tuple([b == a or b not in crossed[a] for b in range(len(comps))]) if a in crossed else clear
             for a in range(len(comps))]
    covered = sorted(i for comp in comps for i in comp.indices) == list(range(1, S.sys.dim + 1))
    report = DecompositionReport(tuple(comps), tuple(ortho), tuple(ideal_flags), covered, mode, tuple(straddlers))
    if mode == "literal" and not report.ok:
        raise TheoremViolation("literal decomposition failed its own guarantees")
    return report


def mu_multiplicativity_check(S: SplitSystem) -> tuple[bool, MuViolation | None]:
    """Require every mu-relation over jset pairs to be product-realized.

    For plain pairs (s1, s2) in jset and for barred pairs, each t2 in
    mu(t1, s1, s2) must satisfy v_t2 in F{v_t1, u_s1, u_s2} for one of the
    two pair orders.  Returns the first failing tuple in scan order: t1
    ascending, then plain before barred pairs, pairs lexicographic, t2
    ascending.  That is the order of the tuples (t1, barred, s1, s2, t2), so
    the first failure is the least violating step, with s1 <= s2 since both
    orders fail together.

    Costs the split's memoized entry pass, one set of the steps the table's
    products realize (two per entry) and one set difference against the
    pass's restricted steps; a plain step from slot one is its own entry's
    product, so it never fails.  Unlike a scan that stops at the first
    failure, it visits every entry.
    """
    # the steps (t1, barred, s1, s2, t2), s1 <= s2, that a product {v_t1, u_s1, u_s2} = c v_t2 realizes
    realized = {
        (i, b, j, k, m) if j <= k else (i, b, k, j, m)
        for (i, j, k), (_, m) in S.sys.table.items()
        for b in (False, True)
    }
    first = min(_entry_pass(S)["restricted"] - realized, default=None)
    if first is None:
        return True, None
    t1, b, s1, s2, t2 = first
    return False, MuViolation(t1, (MarkedIndex(s1, b), MarkedIndex(s2, b)), t2)


def enumerate_inherited_ideals(
    S: SplitSystem, cap: int = DEFAULT_ORACLE_CAP
) -> list[tuple[int, ...]]:
    """All index subsets whose basis span is an ideal, the empty set included.

    A span of basis vectors is an ideal exactly when every table entry with
    at least one factor in the subset targets the subset, so each of the
    2^dim candidates costs one table scan.  Sorted by size then
    lexicographically.
    """
    n = S.sys.dim
    if n > cap:
        raise CapExceeded(f"dimension {n} exceeds subset-enumeration cap {cap}")
    entries = S.sys.entries
    out = []
    for size in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            inside = set(subset)
            if all(
                m in inside
                for i, j, k, _, m in entries
                if i in inside or j in inside or k in inside
            ):
                out.append(subset)
    return out


def _principal_counterexample(S: SplitSystem) -> tuple[int, ...] | None:
    """The first nonzero inherited ideal, by size then lexicographically, that is neither iset nor all.

    It is read off the dim principal closures, where cl(x) is the successor
    closure of x in the entry digraph.  The first counterexample C holds an
    x with cl(x) other than iset (else C, the union of its members'
    closures, would be iset), and cl(x) lies in C, so cl(x) = C.
    """
    succ = _successors(S.sys)
    best: tuple[int, ...] | None = None
    for x in range(1, S.sys.dim + 1):
        closed = tuple(_successor_closure(S.sys, (x,), succ)[0])
        if len(closed) == S.sys.dim or closed == S.iset:
            continue
        if best is None or (len(closed), closed) < (len(best), best):
            best = closed
    return best


def is_minimal(S: SplitSystem, mode: str = "literal", oracle_cap: int = DEFAULT_ORACLE_CAP) -> MinimalityVerdict:
    """Minimality verdict.

    When the basis is mu-multiplicative the verdict follows the
    connectivity criterion (iset within one class and jset within one
    class).  Otherwise the criterion does not apply; up to the oracle cap
    the inherited ideals decide instead, beyond it the verdict is
    criterion_inapplicable.  Up to the cap, a not_minimal verdict carries
    the first counterexample ideal, the least principal closure that is
    neither iset nor the whole index set: polynomial, and the same ideal
    the exhaustive enumeration finds first.  The classes are partition(S,
    mode), memoized on the split.
    """
    part = partition(S, mode)
    i_conn = len({part.class_of[i] for i in S.iset}) <= 1
    j_conn = len({part.class_of[j] for j in S.jset}) <= 1
    mu_ok, violation = mu_multiplicativity_check(S)
    counterexample = None
    if mu_ok:
        verdict = "minimal" if (i_conn and j_conn) else "not_minimal"
        oracle_used = False
        if verdict == "not_minimal" and S.sys.dim <= oracle_cap:
            counterexample = _principal_counterexample(S)
    elif S.sys.dim <= oracle_cap:
        counterexample = _principal_counterexample(S)
        verdict = "minimal" if counterexample is None else "not_minimal"
        oracle_used = True
    else:
        verdict = "criterion_inapplicable"
        oracle_used = False
    return MinimalityVerdict(
        verdict, mu_ok, violation, i_conn, j_conn, oracle_used, counterexample
    )
