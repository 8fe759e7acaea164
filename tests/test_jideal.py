import itertools
import math
import random
from fractions import Fraction

import pytest

import trisys as ts
from conftest import (
    dense_generator_items,
    fraction_generator_items,
    make_jacobson_a,
    make_jacobson_b,
    make_nf3_lift,
    make_unadapted,
    make_zero_system,
    oracle_jideal_vectors,
    oracle_ideal_closure,
    oracle_solve_membership,
    random_arbitrary_draws,
    random_broken_tables,
    random_split_systems,
    random_table,
    random_verified_corpus,
    reference_steps,
    same_subspace,
)

F = Fraction


def span_of(dim, *indices):
    return ts.rowspace_from(dim, [ts.basis_vector(dim, i) for i in indices])


# --- generators ---------------------------------------------------------------


def test_generators_vanish_on_jacobson_a():
    assert ts.generator_vectors(make_jacobson_a()) == []


def test_generators_vanish_on_jacobson_b():
    assert ts.generator_vectors(make_jacobson_b()) == []


def test_generators_nf3():
    gens = ts.generator_vectors(make_nf3_lift())
    assert ts.basis_vector(3, 3) in gens


def test_generators_match_dense_scan():
    rng = random.Random(79)
    corpus = (
        random_verified_corpus(83, 15)
        + random_broken_tables(89, 15)
        + [S.sys for S in random_split_systems(97, 15)]
        + [random_table(rng, dim, rng.randint(0, dim**3)) for dim in range(1, 6) for _ in range(3)]
    )
    for T in corpus:
        items = dense_generator_items(T)
        assert ts.compute_jideal(T).generators == tuple(key for key, _ in items), T
        assert ts.generator_vectors(T) == [vec for _, vec in items], T


_MIXED = (F(1, 4), F(-1, 6), F(2, 9), F(-5, 3), F(7, 10), F(3))  # lcm 180, above every denominator


def _generator_corpus(name):
    rng = random.Random(f"generators:{name}")
    if name == "verified":
        return random_verified_corpus(211, 20)
    if name == "broken":
        return random_broken_tables(223, 20)
    if name == "rational":
        coeffs = (F(1, 2), F(-2, 3), F(3), F(-5, 4))
        return [random_table(rng, dim, rng.randint(1, dim**3), coeffs) for dim in range(1, 7) for _ in range(2)]
    if name == "mixed":
        return [random_table(rng, dim, rng.randint(dim, dim**3), _MIXED) for dim in range(2, 7) for _ in range(3)]
    return [random_table(rng, dim, rng.randint(dim**2, dim**3)) for dim in range(2, 7) for _ in range(2)]


@pytest.mark.parametrize("corpus", ["verified", "broken", "rational", "mixed", "dense"])
def test_integer_generator_sums_match_fraction_sums(corpus, monkeypatch):
    lcm_above = 0
    for T in _generator_corpus(corpus):
        expected = fraction_generator_items(T)
        got = ts.jideal._generator_items(T)
        assert got == expected, T
        assert all(type(c) is Fraction and c for _, acc in got for c in acc.values()), T
        assert ts.generator_vectors(T) == [tuple(acc.get(i, F(0)) for i in range(1, T.dim + 1)) for _, acc in expected]
        witness = ts.compute_jideal(T)
        with monkeypatch.context() as m:
            m.setattr(ts.jideal, "_generator_items", fraction_generator_items)
            assert witness == ts.compute_jideal(T), T  # rows, generators and rounds
        denominators = {c.denominator for c, _ in T.table.values()}
        lcm_above += math.lcm(*denominators) > max(denominators, default=1)
    assert (lcm_above > 5) == (corpus in ("rational", "mixed"))


def test_generators_zero_table():
    assert ts.generator_vectors(make_zero_system(3)) == []


# --- closure --------------------------------------------------------------------


def test_closure_stable_seed():
    T = make_nf3_lift()
    w = ts.ideal_closure(T, span_of(3, 3))
    assert w.subspace == span_of(3, 3)
    assert w.closure_rounds == 1


def test_closure_grows_seed():
    T = make_nf3_lift()
    w = ts.ideal_closure(T, span_of(3, 1))
    assert w.subspace == span_of(3, 1, 3)


def test_closure_zero_space():
    T = make_nf3_lift()
    assert ts.ideal_closure(T, ts.RowSpace(3)).subspace == ts.RowSpace(3)


def test_closure_dimension_mismatch():
    with pytest.raises(ts.DimensionError):
        ts.ideal_closure(make_nf3_lift(), ts.RowSpace(2))


def test_closure_idempotent_and_monotone():
    rng = random.Random(31)
    for _ in range(25):
        dim = rng.randint(1, 4)
        T = random_table(rng, dim, rng.randint(0, 4))
        vs = [
            tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            for _ in range(rng.randint(0, 3))
        ]
        small = ts.rowspace_from(dim, vs[:1])
        big = ts.rowspace_from(dim, vs)
        c_small = ts.ideal_closure(T, small).subspace
        c_big = ts.ideal_closure(T, big).subspace
        assert ts.ideal_closure(T, c_small).subspace == c_small
        assert all(oracle_solve_membership(c_big.rows, row) for row in c_small.rows)


# --- the deviation ideal ---------------------------------------------------------


def test_jideal_jacobson_a_zero():
    assert ts.compute_jideal(make_jacobson_a()).subspace == ts.RowSpace(2)


def test_jideal_jacobson_b_zero():
    assert ts.compute_jideal(make_jacobson_b()).subspace == ts.RowSpace(2)


def test_jideal_nf3():
    w = ts.compute_jideal(make_nf3_lift())
    assert w.subspace == span_of(3, 3)
    assert (1, 1, 1) in w.generators


def test_jideal_matches_bruteforce_oracle():
    rng = random.Random(37)
    for _ in range(20):
        dim = rng.randint(1, 4)
        T = random_table(rng, dim, rng.randint(0, 4))
        vectors = oracle_jideal_vectors(T)
        assert same_subspace(ts.compute_jideal(T).subspace, vectors, dim)


def test_closure_matches_bruteforce_oracle():
    rng = random.Random(41)
    for _ in range(15):
        dim = rng.randint(1, 4)
        T = random_table(rng, dim, rng.randint(0, 4))
        seeds = [
            tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            for _ in range(rng.randint(1, 2))
        ]
        space = ts.ideal_closure(T, ts.rowspace_from(dim, seeds)).subspace
        vectors = oracle_ideal_closure(T, seeds)
        assert same_subspace(space, vectors, dim)


# --- annihilation ------------------------------------------------------------------


def test_annihilation_nf3():
    T = make_nf3_lift()
    assert ts.check_annihilation(T, span_of(3, 3))
    assert not ts.check_annihilation(T, span_of(3, 1))
    assert ts.check_annihilation(T, ts.RowSpace(3))


def test_annihilation_holds_for_verified_systems():
    for T in (make_jacobson_a(), make_jacobson_b(), make_nf3_lift()):
        assert ts.check_identities(T, "both").ok
        assert ts.check_annihilation(T, ts.compute_jideal(T).subspace)


def test_abelian_bracket_lift_has_zero_ideal():
    for n in (1, 2, 4):
        T = ts.lift_from_leibniz(ts.construct_bilinear(n, []))
        assert ts.compute_jideal(T).subspace == ts.RowSpace(n)


# --- ideal predicate ---------------------------------------------------------------


def test_is_ideal_examples():
    T = make_nf3_lift()
    # a subspace is an ideal iff its closure adds nothing
    for indices, ideal in (((2,), True), ((1,), False), ((1, 2, 3), True)):
        S = span_of(3, *indices)
        assert (ts.ideal_closure(T, S).subspace == S) == ideal, indices


# --- splitting ---------------------------------------------------------------------


def test_split_nf3():
    S = ts.split_system(make_nf3_lift())
    assert S.iset == (3,)
    assert S.jset == (1, 2)
    assert S.mode == "leibniz"


def test_split_zero_ideal():
    S = ts.split_system(make_jacobson_a())
    assert S.iset == ()
    assert S.jset == (1, 2)


def test_split_not_adapted():
    T = make_unadapted()
    w = ts.compute_jideal(T)
    assert w.subspace.rows == ((F(1), F(1), F(0), F(0)),)
    # the deviation ideal and the same ideal declared are refused alike
    for make_split in (ts.split_system, lambda T: ts.split_basis(T, w.subspace)):
        with pytest.raises(ts.NotAdapted) as exc:
            make_split(T)
        assert exc.value.row == (F(1), F(1), F(0), F(0))


def test_annihilation_and_declared_split_refuse_a_subspace_of_another_dim():
    T = make_nf3_lift()
    for J in (ts.RowSpace(2), span_of(4, 1)):
        message = f"^subspace dimension {J.dim} does not match system dimension 3$"
        with pytest.raises(ts.DimensionError, match=message):
            ts.check_annihilation(T, J)
        with pytest.raises(ts.DimensionError, match=message):
            ts.split_basis(T, J)


def test_split_generic_accepts_declared_ideal():
    T = make_nf3_lift()
    S = ts.split_basis(T, span_of(3, 2, 3))
    assert S.iset == (2, 3)
    assert S.mode == "generic"


def test_split_jset_runs_between_iset_indices_equal_the_complement_scan():
    # jset is chained from the runs between consecutive iset indices; it is the indices that iset lacks
    rng = random.Random(103)
    cases = [(1, ()), (1, (1,)), (7, ()), (7, tuple(range(1, 8))), (7, (1, 7)), (7, (2, 3, 6))]
    cases += [(dim, tuple(sorted(rng.sample(range(1, dim + 1), rng.randint(0, dim))))) for dim in range(1, 40)]
    for dim, iset in cases:
        S = ts.split_basis(make_zero_system(dim), ts.exactnum.coordinate_space(dim, iset))
        assert S.iset == iset and S.jset == tuple(itertools.filterfalse(set(iset).__contains__, range(1, dim + 1)))


def test_split_generic_rejects_non_ideal():
    T = make_nf3_lift()
    with pytest.raises(ts.NotAdmissible):
        ts.split_basis(T, span_of(3, 1))


def test_split_generic_rejects_annihilation_failure():
    # span{e1} is an ideal of {u1,u1,u1}=u1 but occupies slots 2 and 3
    T = ts.construct_system(2, [(1, 1, 1, 1, 1)])
    with pytest.raises(ts.NotAdmissible):
        ts.split_basis(T, span_of(2, 1))


def test_random_split_corpus_valid():
    for S in random_split_systems(43, 30):
        assert set(S.iset) | set(S.jset) == set(range(1, S.sys.dim + 1))
        assert not set(S.iset) & set(S.jset)
        space = ts.rowspace_from(
            S.sys.dim, [ts.basis_vector(S.sys.dim, i) for i in S.iset]
        )
        assert ts.ideal_closure(S.sys, space).subspace == space
        assert ts.check_annihilation(S.sys, space)


def _expected_refusal(T, iset, jset):
    """The error a split of T along iset and jset must raise, from entry-level predicates, or None."""
    ascending = iset == tuple(sorted(set(iset))) and jset == tuple(sorted(set(jset)))
    if not ascending or sorted(iset + jset) != list(range(1, T.dim + 1)):
        return ts.InconsistentSplit, None
    inside = set(iset)
    if any(m not in inside and inside & {i, j, k} for (i, j, k), (_, m) in T.table.items()):
        return ts.NotAdmissible, "declared subspace is not an ideal"
    if any(j in inside or k in inside for _, j, k in T.table):
        return ts.NotAdmissible, "ideal has a nonzero product in the second or third slot"
    return None


def test_split_checks_partition_ideal_and_annihilation_on_construction():
    accepted = refused = 0
    for T, iset, drawn in random_arbitrary_draws(251, 6000):
        for jset in (drawn, drawn[::-1]) if len(drawn) > 1 else (drawn,):
            want = _expected_refusal(T, iset, jset)
            if want is None:
                S = ts.SplitSystem(T, iset, jset, "generic")
                # every entry fits the split: the reference step scan finds no fault
                assert reference_steps(S, "literal")[1] == reference_steps(S, "restricted")[1] == {}, S
                accepted += 1
            else:
                with pytest.raises(want[0]) as exc:
                    ts.SplitSystem(T, iset, jset, "generic")
                if want[1] is not None:
                    assert str(exc.value) == want[1]
                refused += 1
            if want is None or want[0] is ts.NotAdmissible:
                # split_basis builds the same split from the span of iset, or refuses it with the same message
                try:
                    got = ts.split_basis(T, span_of(T.dim, *iset))
                except ts.NotAdmissible as err:
                    got = str(err)
                assert got == (S if want is None else want[1]), (T, iset, jset)
    assert accepted >= 1000 and refused >= 1000, (accepted, refused)


# --- the full-rank exit of the closure ---------------------------------------------


def _span_insert_without_exit(space, v):
    """exactnum.span_insert without its full-rank exit: always reduces v."""
    w = list(v)
    for row in space.rows:
        p = next(q for q, c in enumerate(row) if c)
        if w[p]:
            c = w[p]
            w = [a - c * b for a, b in zip(w, row)]
    lead = next((p for p, c in enumerate(w) if c), None)
    if lead is None:
        return space
    new = tuple(c / w[lead] for c in w)
    rows = [tuple(a - row[lead] * b for a, b in zip(row, new)) for row in space.rows] + [new]
    rows.sort(key=lambda row: next(p for p, c in enumerate(row) if c))
    return ts.RowSpace(space.dim, tuple(rows))


def _closure_without_exit(T, seed):
    """ideal_closure without its full-rank exit: every round is run, the stable one too."""
    space, rounds = seed, 0
    while True:
        rounds += 1
        before = space.rank
        for row in space.rows:
            for w in ts.jideal._slot_products(T, row):
                space = _span_insert_without_exit(space, w)
        if space.rank == before:
            return ts.IdealWitness(space, (), rounds)


def _closure_corpus(name):
    rng = random.Random(79)
    if name == "verified":
        return random_verified_corpus(83, 15, max_dim=7)
    if name == "broken":
        return random_broken_tables(89, 15)
    if name == "random":
        return [S.sys for S in random_split_systems(97, 15)] + [
            random_table(rng, dim, rng.randint(1, dim**3)) for dim in range(1, 6) for _ in range(3)
        ]
    if name == "full":
        return [random_table(rng, dim, rng.randint(dim**2, dim**3)) for dim in range(2, 7) for _ in range(2)]
    coeffs = (F(1, 2), F(-2, 3), F(3), F(-5, 4))
    return [random_table(rng, dim, rng.randint(1, dim**3), coeffs) for dim in range(1, 7) for _ in range(2)]


@pytest.mark.parametrize("corpus", ["verified", "broken", "random", "full", "rational"])
def test_full_rank_exit_keeps_witnesses(corpus):
    full_rank = 0
    for T in _closure_corpus(corpus):
        items = dense_generator_items(T)
        generated = _closure_without_exit(T, ts.rowspace_from(T.dim, (v for _, v in items)))
        expected = ts.IdealWitness(generated.subspace, tuple(k for k, _ in items), generated.closure_rounds)
        assert ts.compute_jideal(T) == expected, T
        full_rank += expected.subspace.rank == T.dim
        seeds = [ts.RowSpace(T.dim), span_of(T.dim, 1), span_of(T.dim, *range(1, T.dim + 1))]
        seeds.append(span_of(T.dim, *range(1, T.dim + 1, 2)))
        for seed in seeds:
            assert ts.ideal_closure(T, seed) == _closure_without_exit(T, seed), (T, seed)
    if corpus in ("full", "rational"):
        assert full_rank > 3


def test_span_insert_at_full_rank_returns_the_space():
    full = span_of(3, 1, 2, 3)
    for v in ((F(1), F(-2), F(1, 3)), (F(0),) * 3):
        assert ts.span_insert(full, v) is full
    with pytest.raises(ts.DimensionError):
        ts.span_insert(full, (F(1),) * 2)


# --- coordinate subspaces on the entry digraph ---------------------------------------

CORPORA = ["verified", "broken", "random", "full", "rational"]


def _annihilation_by_rows(T, J):
    """Every slot-2 and slot-3 product of every row of J with two basis vectors vanishes, in Fractions."""
    for row in J.rows:
        acc = {}
        for (i, j, k), (c, m) in T.table.items():
            for slot, factor, pair in ((2, j, (i, k)), (3, k, (i, j))):
                if row[factor - 1]:
                    acc[slot, pair, m] = acc.get((slot, pair, m), F(0)) + row[factor - 1] * c
        if any(acc.values()):
            return False
    return True


def _coordinate_seeds(rng, dim, count):
    """Random index subsets, each as the row-reduced span and as the directly built unit rows."""
    out = []
    for _ in range(count):
        indices = sorted(rng.sample(range(1, dim + 1), rng.randint(0, dim)))
        out += [span_of(dim, *indices), ts.exactnum.coordinate_space(dim, indices)]
    return out


def _all_fractions(space):
    return all(type(c) is F for row in space.rows for c in row)


@pytest.fixture
def row_reductions(monkeypatch):
    """Counts the calls of rowspace_from made by jideal."""
    calls = []
    original = ts.jideal.rowspace_from
    monkeypatch.setattr(ts.jideal, "rowspace_from", lambda *args: calls.append(args) or original(*args))
    return calls


@pytest.mark.parametrize("corpus", CORPORA)
def test_coordinate_closure_matches_row_reduction(corpus):
    rng = random.Random(101)
    grew = 0
    for T in _closure_corpus(corpus):
        for seed in _coordinate_seeds(rng, T.dim, 4):
            got, expected = ts.ideal_closure(T, seed), _closure_without_exit(T, seed)
            assert got == expected, (T, seed)
            assert got.subspace.basis_indices() is not None and _all_fractions(got.subspace)
            assert ts.check_annihilation(T, seed) == _annihilation_by_rows(T, seed), (T, seed)
            grew += got.subspace.rank > seed.rank
    assert grew > 5


@pytest.mark.parametrize("corpus", CORPORA)
def test_row_closure_matches_full_rounds(corpus):
    # seeds off the basis vectors: the semi-naive row-space closure
    rng = random.Random(103)
    off = 0
    for T in _closure_corpus(corpus):
        for _ in range(3):
            vs = [tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(T.dim)) for _ in range(2)]
            seed = ts.rowspace_from(T.dim, vs[: rng.randint(1, 2)])
            off += seed.basis_indices() is None
            got = ts.ideal_closure(T, seed)
            assert got == _closure_without_exit(T, seed), (T, seed)
            assert _all_fractions(got.subspace)
            assert ts.check_annihilation(T, seed) == _annihilation_by_rows(T, seed), (T, seed)
    assert off > 5


def test_closure_falls_back_off_coordinate_seeds():
    T = make_nf3_lift()
    seed = ts.rowspace_from(3, [(F(1), F(1), F(0))])
    assert seed.basis_indices() is None
    w = ts.ideal_closure(T, seed)
    assert w.subspace.rows == ((F(1), F(1), F(0)), (F(0), F(0), F(1)))
    assert w.closure_rounds == 2
    assert w == _closure_without_exit(T, seed)
    assert w.subspace != seed
    assert not ts.check_annihilation(T, seed) and not _annihilation_by_rows(T, seed)


@pytest.mark.parametrize("corpus", CORPORA)
def test_jideal_seed_branches_keep_witnesses(corpus, row_reductions):
    for T in _closure_corpus(corpus) + [make_unadapted()]:
        items = dense_generator_items(T)
        generated = _closure_without_exit(T, ts.rowspace_from(T.dim, (v for _, v in items)))
        before = len(row_reductions)
        got = ts.compute_jideal(T)
        assert got == ts.IdealWitness(generated.subspace, tuple(k for k, _ in items), generated.closure_rounds), T
        assert _all_fractions(got.subspace)
        supports = [{p for p, c in enumerate(v, 1) if c} for _, v in items]
        units = set().union(*(s for s in supports if len(s) == 1))
        # the generator span is built without row reduction exactly when every support lies in the units
        assert (len(row_reductions) == before) == all(s <= units for s in supports), T


def test_jideal_seed_with_multi_index_generators():
    # g(1,2,3) = e1 + e2 lies in the span of the one-index generators g(1,3,2) = -e1 and g(2,3,1) = e2
    T = ts.construct_system(3, [(1, 2, 3, F(1), 1), (2, 3, 1, F(1), 2)])
    vectors = ts.generator_vectors(T)
    assert (F(1), F(1), F(0)) in vectors
    w = ts.compute_jideal(T)
    assert w.subspace == span_of(3, 1, 2) and w.closure_rounds == 1
    # span{e1+e2} has no one-index generator under it: the seed is row-reduced
    w = ts.compute_jideal(make_unadapted())
    assert w.subspace.rows == ((F(1), F(1), F(0), F(0)),) and w.closure_rounds == 1


def test_coordinate_checks_read_unit_rows_of_any_zero_objects():
    # rows equal to unit vectors whatever objects hold their zeros
    T = ts.construct_system(2, [(1, 2, 2, F(1), 1)])
    for zero in (F(0), 0, ts.exactnum.ZERO):
        J = ts.RowSpace(2, ((F(1), zero),))
        assert J.basis_indices() == (1,)
        assert ts.check_annihilation(T, J)
        assert ts.ideal_closure(T, J).subspace == J
        K = ts.RowSpace(2, ((zero, F(1)),))
        assert not ts.check_annihilation(T, K)
        assert ts.ideal_closure(T, K).subspace != K
