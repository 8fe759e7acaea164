import random
from fractions import Fraction

import pytest

import trisys as ts
from conftest import (
    dense_generator_items,
    make_jacobson_a,
    make_jacobson_b,
    make_nf3_lift,
    make_unadapted,
    make_zero_system,
    oracle_jideal_vectors,
    oracle_ideal_closure,
    random_broken_tables,
    random_split_systems,
    random_table,
    random_verified_corpus,
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
        assert all(ts.span_contains(c_big, row) for row in c_small.rows)


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
    assert ts.is_ideal(T, span_of(3, 2))
    assert not ts.is_ideal(T, span_of(3, 1))
    assert ts.is_ideal(T, span_of(3, 1, 2, 3))


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
    with pytest.raises(ts.NotAdapted) as exc:
        ts.split_basis(T, w.subspace, "leibniz")
    assert exc.value.row == (F(1), F(1), F(0), F(0))


def test_split_leibniz_mode_requires_computed_ideal():
    T = make_nf3_lift()
    with pytest.raises(ValueError):
        ts.split_basis(T, span_of(3, 2), "leibniz")


def test_split_generic_accepts_declared_ideal():
    T = make_nf3_lift()
    S = ts.split_basis(T, span_of(3, 2, 3), "generic")
    assert S.iset == (2, 3)
    assert S.mode == "generic"


def test_split_generic_rejects_non_ideal():
    T = make_nf3_lift()
    with pytest.raises(ts.NotAdmissible):
        ts.split_basis(T, span_of(3, 1), "generic")


def test_split_generic_rejects_annihilation_failure():
    # span{e1} is an ideal of {u1,u1,u1}=u1 but occupies slots 2 and 3
    T = ts.construct_system(2, [(1, 1, 1, 1, 1)])
    with pytest.raises(ts.NotAdmissible):
        ts.split_basis(T, span_of(2, 1), "generic")


def test_split_mode_validation():
    with pytest.raises(ValueError):
        ts.split_basis(make_jacobson_a(), ts.RowSpace(2), "other")


def test_random_split_corpus_valid():
    for S in random_split_systems(43, 30):
        assert set(S.iset) | set(S.jset) == set(range(1, S.sys.dim + 1))
        assert not set(S.iset) & set(S.jset)
        space = ts.rowspace_from(
            S.sys.dim, [ts.basis_vector(S.sys.dim, i) for i in S.iset]
        )
        assert ts.is_ideal(S.sys, space)
        assert ts.check_annihilation(S.sys, space)
