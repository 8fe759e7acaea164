"""Shared fixtures: catalog systems, random generators, independent oracles.

The oracles here are deliberately written from scratch (naive Gaussian
elimination, naive closure, naive component search) so they share no code
with the implementations they check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import trisys as ts

# --- catalog ----------------------------------------------------------------


def make_jacobson_a():
    """2-dim Lie triple system {x,y,x}=y, {y,x,x}=-y."""
    return ts.construct_system(2, [(1, 2, 1, 1, 2), (2, 1, 1, -1, 2)])


def make_jacobson_b():
    """2-dim Lie triple system {x,y,x}=2x, {y,x,x}=-2x, {x,y,y}=-2y, {y,x,y}=2y."""
    return ts.construct_system(
        2, [(1, 2, 1, 2, 1), (2, 1, 1, -2, 1), (1, 2, 2, -2, 2), (2, 1, 2, 2, 2)]
    )


def make_nf_bracket(n):
    """Null-filiform bracket [e_i, e_1] = e_{i+1}."""
    return ts.construct_bilinear(n, [(i, 1, 1, i + 1) for i in range(1, n)])


def make_nf3_lift():
    return ts.lift_from_leibniz(make_nf_bracket(3))


def make_zero_system(n):
    return ts.construct_system(n, [])


def make_mutual_pair(dim=3, n1=2, n2=3, r=1, c1=1, c2=1):
    """Two ideal indices feeding each other through a repeated jset pair.

    {v_n1, u_r, u_r} = c1 v_n2 and {v_n2, u_r, u_r} = c2 v_n1; the deviation
    ideal is span{v_n1, v_n2} and the basis is mu-multiplicative.
    """
    return ts.construct_system(dim, [(n1, r, r, c1, n2), (n2, r, r, c2, n1)])


def make_unadapted():
    """Deviation ideal span{e1+e2}, which no basis subset spans."""
    return ts.construct_system(4, [(3, 4, 3, 1, 1), (4, 3, 3, 1, 2)])


def block_sum(*systems):
    """Direct sum with disjoint index blocks."""
    dim = sum(T.dim for T in systems)
    entries = []
    offset = 0
    for T in systems:
        for i, j, k, c, m in T.entries:
            entries.append((i + offset, j + offset, k + offset, c, m + offset))
        offset += T.dim
    return ts.construct_system(dim, entries)


def permute_system(T, perm):
    """Relabel basis indices by a permutation dict {old: new}."""
    entries = [(perm[i], perm[j], perm[k], c, perm[m]) for i, j, k, c, m in T.entries]
    return ts.construct_system(T.dim, entries)


@pytest.fixture
def jacobson_a():
    return make_jacobson_a()


@pytest.fixture
def jacobson_b():
    return make_jacobson_b()


@pytest.fixture
def nf3_lift():
    return make_nf3_lift()


# --- random generation -------------------------------------------------------

COEFFS = (-2, -1, 1, 2)


def random_table(rng, dim, n_entries, coeffs=COEFFS):
    """A random multiplicative table with distinct keys."""
    keys = rng.sample(
        [(i, j, k) for i in range(1, dim + 1) for j in range(1, dim + 1) for k in range(1, dim + 1)],
        min(n_entries, dim**3),
    )
    entries = [(i, j, k, rng.choice(coeffs), rng.randint(1, dim)) for i, j, k in keys]
    return ts.construct_system(dim, entries)


def random_split_systems(seed, count, max_dim=5, max_entries=4):
    """Raw random tables whose computed ideal admits a valid split."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(1, max_dim)
        T = random_table(rng, dim, rng.randint(0, max_entries))
        try:
            out.append(ts.split_system(T))
        except (ts.NotAdapted, ts.NotAdmissible):
            continue
    return out


def random_verified_system(rng, max_dim=6):
    """An identity-verified system built from verified blocks, relabeled."""
    blocks = []
    total = 0
    while total < max_dim:
        room = max_dim - total
        choices = [make_zero_system(rng.randint(1, room))]
        if room >= 2:
            choices += [make_jacobson_a(), make_jacobson_b()]
        if room >= 3:
            choices += [
                make_nf3_lift(),
                make_mutual_pair(c1=rng.choice(COEFFS), c2=rng.choice(COEFFS)),
            ]
        if room >= 4:
            choices.append(ts.lift_from_leibniz(make_nf_bracket(4)))
        block = rng.choice(choices)
        blocks.append(block)
        total += block.dim
        if rng.random() < 0.3:
            break
    T = block_sum(*blocks)
    ids = list(range(1, T.dim + 1))
    shuffled = ids[:]
    rng.shuffle(shuffled)
    return permute_system(T, dict(zip(ids, shuffled)))


def random_verified_corpus(seed, count, max_dim=6):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        T = random_verified_system(rng, max_dim)
        out.append(T)
    return out


def random_broken_tables(seed, count, max_dim=4):
    """Random tables that fail the identity check."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        T = random_table(rng, rng.randint(1, max_dim), rng.randint(1, 5))
        if not ts.check_identities(T).ok:
            out.append(T)
    return out


def random_brackets(seed, count, max_dim=5):
    """Random brackets passing the Leibniz check whose lift is multiplicative."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(1, max_dim)
        n = rng.randint(0, 3)
        pairs = rng.sample(
            [(i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)],
            min(n, dim * dim),
        )
        entries = [(i, j, rng.choice(COEFFS), rng.randint(1, dim)) for i, j in pairs]
        try:
            L = ts.construct_bilinear(dim, entries)
        except ts.TriSysError:
            continue
        if ts.check_leibniz(L) is not None:
            continue
        try:
            ts.lift_from_leibniz(L)
        except ts.NotMultiplicative:
            continue
        out.append(L)
    return out


# --- independent oracles ------------------------------------------------------


def oracle_solve_membership(rows, v):
    """Is v a linear combination of rows?  Fresh Gaussian elimination."""
    if not rows:
        return not any(v)
    n = len(v)
    mat = [list(r) for r in rows]
    vec = list(v)
    # forward elimination of vec by whatever pivots mat offers
    used = [False] * len(mat)
    for col in range(n):
        pivot = None
        for r, row in enumerate(mat):
            if not used[r] and row[col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        used[pivot] = True
        prow = mat[pivot]
        inv = Fraction(1) / prow[col]
        for r, row in enumerate(mat):
            if r != pivot and row[col] != 0:
                f = row[col] * inv
                mat[r] = [a - f * b for a, b in zip(row, prow)]
        if vec[col] != 0:
            f = vec[col] * inv
            vec = [a - f * b for a, b in zip(vec, prow)]
    return not any(vec)


def oracle_rank(vectors, dim):
    mat = [list(v) for v in vectors]
    rank = 0
    for col in range(dim):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / prow[col]
                mat[r] = [a - f * b for a, b in zip(mat[r], prow)]
        rank += 1
    return rank


def oracle_ideal_closure(T, seed_vectors):
    """Naive fixed point: multiply every known vector against all basis pairs."""
    n = T.dim
    basis = [ts.basis_vector(n, i) for i in range(1, n + 1)]
    vectors = [v for v in seed_vectors if any(v)]
    changed = True
    while changed:
        changed = False
        for v in list(vectors):
            for b1 in basis:
                for b2 in basis:
                    for prod in (
                        ts.evaluate_product(T, v, b1, b2),
                        ts.evaluate_product(T, b1, v, b2),
                        ts.evaluate_product(T, b1, b2, v),
                    ):
                        if any(prod) and not oracle_solve_membership(vectors, prod):
                            vectors.append(prod)
                            changed = True
    return vectors


def oracle_jideal_vectors(T):
    """Generator span closure, computed the slow way."""
    n = T.dim
    basis = [ts.basis_vector(n, i) for i in range(1, n + 1)]
    gens = []
    for x in basis:
        for y in basis:
            for z in basis:
                g = tuple(
                    a - b + c
                    for a, b, c in zip(
                        ts.evaluate_product(T, x, y, z),
                        ts.evaluate_product(T, x, z, y),
                        ts.evaluate_product(T, y, z, x),
                    )
                )
                if any(g):
                    gens.append(g)
    return oracle_ideal_closure(T, gens)


def same_subspace(space, vectors, dim):
    """RowSpace equals the span of vectors, by rank and mutual membership."""
    if oracle_rank(vectors, dim) != space.rank:
        return False
    if not all(oracle_solve_membership(vectors, row) for row in space.rows):
        return False
    return all(oracle_solve_membership(space.rows, v) for v in vectors)


def oracle_hyperedge_components(T):
    """Connected components of the {i,j,k,target} hypergraph, plain BFS."""
    n = T.dim
    neighbors = {i: set() for i in range(1, n + 1)}
    for (i, j, k), (_, m) in T.table.items():
        nodes = {i, j, k, m}
        for a in nodes:
            neighbors[a] |= nodes
    seen = set()
    comps = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(neighbors[x] - comp)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


# --- dense reference enumerators -------------------------------------------------
#
# The library visits only the nonzero terms of each identity and only the
# candidate triples of each deviation generator.  These enumerators visit every
# basis tuple and spell every identity out as code, so they share neither the
# identity table nor the candidate logic with the functions they check.


def _dense_acc(acc, sign, term):
    if term is None:
        return
    c, t = term
    val = acc.get(t, Fraction(0)) + sign * c
    if val:
        acc[t] = val
    else:
        acc.pop(t, None)


def _dense_nested(T, outer, inner):
    """{outer} with None marking the slot that holds {inner}."""
    p = T.product(*inner)
    if p is None:
        return None
    c, t = p
    q = T.product(*(t if x is None else x for x in outer))
    return None if q is None else (c * q[0], q[1])


def _mid(T, a, inner, f):
    """{a, {inner}, f}"""
    return _dense_nested(T, (a, None, f), inner)


def _lft(T, inner, d, f):
    """{{inner}, d, f}"""
    return _dense_nested(T, (None, d, f), inner)


def _rgt(T, a, b, inner):
    """{a, b, {inner}}"""
    return _dense_nested(T, (a, b, None), inner)


def _dense_residual(T, ident, a, b, c, d, f):
    r = {}
    if ident == "four.1":
        _dense_acc(r, +1, _mid(T, a, (b, c, d), f))
        _dense_acc(r, +1, _mid(T, a, (c, b, d), f))
    elif ident == "four.2":
        _dense_acc(r, +1, _mid(T, a, (b, c, d), f))
        _dense_acc(r, +1, _mid(T, a, (c, d, b), f))
        _dense_acc(r, +1, _mid(T, a, (d, b, c), f))
    elif ident == "four.3":
        _dense_acc(r, +1, _rgt(T, a, b, (c, d, f)))
        _dense_acc(r, -1, _lft(T, (a, b, c), d, f))
        _dense_acc(r, +1, _lft(T, (a, b, d), c, f))
        _dense_acc(r, -1, _lft(T, (a, b, f), d, c))
        _dense_acc(r, +1, _lft(T, (a, b, f), c, d))
    elif ident == "four.4":
        _dense_acc(r, +1, _lft(T, (c, d, f), b, a))
        _dense_acc(r, -1, _lft(T, (c, d, f), a, b))
        _dense_acc(r, -1, _lft(T, (c, b, a), d, f))
        _dense_acc(r, +1, _lft(T, (c, a, b), d, f))
        _dense_acc(r, -1, _mid(T, c, (a, b, d), f))
        _dense_acc(r, -1, _rgt(T, c, d, (a, b, f)))
    elif ident == "two.1":
        _dense_acc(r, +1, _mid(T, a, (b, c, d), f))
        _dense_acc(r, -1, _lft(T, (a, b, c), d, f))
        _dense_acc(r, +1, _lft(T, (a, c, b), d, f))
        _dense_acc(r, +1, _lft(T, (a, d, b), c, f))
        _dense_acc(r, -1, _lft(T, (a, d, c), b, f))
    elif ident == "two.2":
        _dense_acc(r, +1, _rgt(T, a, b, (c, d, f)))
        _dense_acc(r, -1, _lft(T, (a, b, c), d, f))
        _dense_acc(r, +1, _lft(T, (a, b, d), c, f))
        _dense_acc(r, +1, _lft(T, (a, b, f), c, d))
        _dense_acc(r, -1, _lft(T, (a, b, f), d, c))
    else:
        raise ValueError(f"unknown identity {ident!r}")
    return r


def _dense_vector(dim, sparse):
    out = [Fraction(0)] * dim
    for t, c in sparse.items():
        out[t - 1] = c
    return tuple(out)


def dense_check_identities(T, family="both"):
    """Every basis 5-tuple, every identity: the report check_identities must equal."""
    idents = ()
    if family in ("four", "both"):
        idents += ("four.1", "four.2", "four.3", "four.4")
    if family in ("two", "both"):
        idents += ("two.1", "two.2")
    violations = []
    for tup in itertools.product(range(1, T.dim + 1), repeat=5):
        for ident in idents:
            sparse = _dense_residual(T, ident, *tup)
            if sparse:
                violations.append((ident, tup, _dense_vector(T.dim, sparse)))
    residuals = tuple((i, t, tuple((p + 1, c) for p, c in enumerate(v) if c)) for i, t, v in violations)
    report = ts.IdentityReport(family, residuals, T.dim)
    vars(report)["violations"] = tuple(violations)  # the oracle's own vectors, not rebuilt from residuals
    return report


def fraction_generator_items(T):
    """Generator sums g(i,j,k) in Fraction arithmetic over the candidate keys: the reference for the integer sums."""
    candidates = set()
    for p, q, r in T.table:
        candidates.update(((p, q, r), (p, r, q), (r, p, q)))
    out = []
    for i, j, k in sorted(candidates):
        acc = {}
        for sign, key in ((1, (i, j, k)), (-1, (i, k, j)), (1, (j, k, i))):
            if key in T.table:
                c, m = T.table[key]
                value = acc.get(m, Fraction(0)) + sign * c
                if value:
                    acc[m] = value
                else:
                    del acc[m]
        if acc:
            out.append(((i, j, k), acc))
    return out


def dense_generator_items(T):
    """Nonzero g(i,j,k) = {i,j,k} - {i,k,j} + {j,k,i} over all triples, in lex order."""
    out = []
    for i, j, k in itertools.product(range(1, T.dim + 1), repeat=3):
        acc = {}
        for sign, key in ((1, (i, j, k)), (-1, (i, k, j)), (1, (j, k, i))):
            _dense_acc(acc, sign, T.table.get(key))
        if acc:
            out.append(((i, j, k), _dense_vector(T.dim, acc)))
    return out


# --- dense Leibniz references ----------------------------------------------------
#
# The library reads the candidate triples of the Leibniz check and the lift off
# a join of the bracket keys.  These references bracket dense vectors at every
# basis triple, so they share only the bracket table with the code they check.


def _dense_bracket(L, u, v):
    """[u, v] for dense coordinate vectors."""
    acc = [Fraction(0)] * L.dim
    for (i, j), terms in L.table.items():
        if u[i - 1] and v[j - 1]:
            for c, m in terms:
                acc[m - 1] += u[i - 1] * v[j - 1] * c
    return tuple(acc)


def _dense_basis(dim, i):
    return tuple(Fraction(int(p == i)) for p in range(1, dim + 1))


def dense_check_leibniz(L):
    """First basis triple, in lex order, with [[i,j],k] != [[i,k],j] + [i,[j,k]]."""
    e = [None] + [_dense_basis(L.dim, i) for i in range(1, L.dim + 1)]
    for i, j, k in itertools.product(range(1, L.dim + 1), repeat=3):
        left = _dense_bracket(L, _dense_bracket(L, e[i], e[j]), e[k])
        swap = _dense_bracket(L, _dense_bracket(L, e[i], e[k]), e[j])
        right = _dense_bracket(L, e[i], _dense_bracket(L, e[j], e[k]))
        res = tuple(x - y - z for x, y, z in zip(left, swap, right))
        if any(res):
            return (i, j, k), res
    return None


def dense_lift_from_leibniz(L):
    """The lift {x,y,z} = [[x,y],z], checked and built at every basis triple."""
    bad = dense_check_leibniz(L)
    if bad is not None:
        raise ts.NotLeibniz(bad[0])
    e = [None] + [_dense_basis(L.dim, i) for i in range(1, L.dim + 1)]
    entries = []
    for i, j, k in itertools.product(range(1, L.dim + 1), repeat=3):
        w = _dense_bracket(L, _dense_bracket(L, e[i], e[j]), e[k])
        support = [m for m in range(1, L.dim + 1) if w[m - 1]]
        if len(support) > 1:
            raise ts.NotMultiplicative((i, j, k), w)
        entries.extend((i, j, k, w[m - 1], m) for m in support)
    return ts.construct_system(L.dim, entries, labels=L.labels)


# --- dense connection references -----------------------------------------------
#
# The library reads every mu-step off the table entries in one scan.  These
# references probe mu at every source index against every pair of the pair
# domain, exactly as the connection layer did before, so they share only the
# public maps a, b and mu with the code they check.


def dense_pair_domain(S, mode):
    modes = ("literal", "restricted")
    if mode not in modes:
        raise ValueError(f"mode must be one of {modes}, got {mode!r}")
    plain_pool = range(1, S.sys.dim + 1) if mode == "literal" else S.jset
    pairs = [(ts.plain(p), ts.plain(q)) for p in plain_pool for q in plain_pool]
    pairs += [(ts.barred(p), ts.barred(q)) for p in S.jset for q in S.jset]
    return pairs


def dense_reachable(S, k, mode="literal"):
    """Breadth-first closure from k over the whole pair domain, with witnesses."""
    pairs = dense_pair_domain(S, mode)
    found = {k: ts.ConnectionWitness((ts.plain(k),), k)}
    queue = [k]
    while queue:
        x = queue.pop(0)
        wx = found[x]
        for p, q in pairs:
            for y in sorted(ts.mu(S, x, p, q)):
                if y not in found:
                    found[y] = ts.ConnectionWitness(wx.elements + (p, q), y)
                    queue.append(y)
    return found


def dense_step_closure_classes(S, mode):
    """Components of the symmetric one-step relation, every (x, pair) probed."""
    n = S.sys.dim
    pairs = dense_pair_domain(S, mode)
    adjacency = {i: set() for i in range(1, n + 1)}
    for x in range(1, n + 1):
        for p, q in pairs:
            for y in ts.mu(S, x, p, q):
                adjacency[x].add(y)
                adjacency[y].add(x)
    seen = set()
    classes = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            x = queue.pop(0)
            for y in adjacency[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        classes.append(tuple(sorted(comp)))
    return tuple(sorted(classes, key=lambda c: c[0]))


def reference_steps(S, mode):
    """One pair domain's mu-steps and faults from its own table scan, as (steps, faults).

    This is the per-mode step scan the connection layer ran, once per pair
    domain and caller, before both domains came from one memoized scan.  A
    fault is an entry with an iset index in slot 2 or 3, or with slot one in
    iset and its target outside; a split that constructs has none.
    """
    if mode not in ("literal", "restricted"):
        raise ValueError(f"unknown mode {mode!r}")
    in_i, in_j = set(S.iset), set(S.jset)
    found = {}
    faults = {}
    for (i, j, k), (_, m) in S.sys.table.items():
        bad = j in in_i or k in in_i or (i in in_i and m not in in_i)
        for slot, (s, a, b) in enumerate(((i, j, k), (j, i, k), (k, i, j))):
            jpair = a in in_j and b in in_j
            if jpair and (s in in_j or (slot == 0 and s in in_i and m in in_i)):
                found.setdefault(m, set()).update((((True, a, b), s), ((True, b, a), s)))
            if mode == "literal" or jpair:
                if bad:
                    faults[s] = min(faults.get(s, (a, b)), (a, b), (b, a))
                else:
                    found.setdefault(s, set()).update((((False, a, b), m), ((False, b, a), m)))
    steps = {}
    for x, out in found.items():
        ordered = sorted(out)
        if x in faults:
            ordered = [st for st in ordered if st[0] < (False, *faults[x])]
        steps[x] = ordered
    return steps, faults


def _dense_realized(S, t1, s1, s2, t2):
    for key in ((t1, s1, s2), (t1, s2, s1)):
        term = S.sys.table.get(key)
        if term is not None and term[1] == t2:
            return True
    return False


def dense_mu_multiplicativity_check(S):
    """First mu-relation over jset pairs not realized by a product, dense scan."""
    jset = S.jset
    for t1 in range(1, S.sys.dim + 1):
        for mark in (ts.plain, ts.barred):
            for s1, s2 in itertools.product(jset, jset):
                for t2 in sorted(ts.mu(S, t1, mark(s1), mark(s2))):
                    if not _dense_realized(S, t1, s1, s2, t2):
                        return False, ts.MuViolation(t1, (mark(s1), mark(s2)), t2)
    return True, None


# --- exhaustive decomposition references ----------------------------------------
#
# The library reads orthogonality off the entries that straddle classes and
# takes the first counterexample ideal from the dim principal closures.  These
# references scan the table once per pair of components and walk every
# inherited ideal that enumerate_inherited_ideals lists.


def check_orthogonal(S, c1, c2):
    """True iff no table entry draws factors from both components."""
    set1, set2 = set(c1.indices), set(c2.indices)
    for i, j, k, _, _ in S.sys.entries:
        factors = {i, j, k}
        if factors & set1 and factors & set2:
            return False
    return True


def oracle_counterexample(S, cap=ts.decompose.DEFAULT_ORACLE_CAP):
    """The first nonzero inherited ideal, by size then lexicographically, that is neither iset nor all."""
    full = tuple(range(1, S.sys.dim + 1))
    for subset in ts.enumerate_inherited_ideals(S, cap):
        if subset and subset != S.iset and subset != full:
            return subset
    return None


def minimality_oracle(S, cap=ts.decompose.DEFAULT_ORACLE_CAP):
    """Exhaustive minimality: every nonzero inherited ideal spans iset or all."""
    return oracle_counterexample(S, cap) is None


def random_arbitrary_draws(seed, count, max_dim=5, max_entries=6):
    """(T, iset) pairs drawn at random: a random table and an ascending iset, most of which do not fit it."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.randint(1, max_dim)
        T = random_table(rng, dim, rng.randint(0, max_entries))
        out.append((T, tuple(i for i in range(1, dim + 1) if rng.random() < 0.4)))
    return out


def random_arbitrary_splits(seed, count, max_dim=5, max_entries=6):
    """The SplitSystems of count random_arbitrary_draws that construct: the draws that fit their table."""
    out = []
    for T, iset in random_arbitrary_draws(seed, count, max_dim, max_entries):
        try:
            out.append(ts.SplitSystem(T, iset, "generic"))
        except ts.NotAdmissible:
            continue
    return out
