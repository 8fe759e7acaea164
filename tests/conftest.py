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
    return all(ts.span_contains(space, v) for v in vectors)


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
    return ts.IdentityReport(family, tuple(violations))


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
