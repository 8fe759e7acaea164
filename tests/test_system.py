import random
import types
from fractions import Fraction

import pytest

import trisys as ts
from conftest import (
    dense_check_identities,
    make_jacobson_a,
    make_jacobson_b,
    make_nf3_lift,
    make_nf_bracket,
    make_zero_system,
    random_broken_tables,
    random_brackets,
    random_split_systems,
    random_table,
    random_verified_corpus,
)

F = Fraction


def vec(*nums):
    return tuple(F(n) for n in nums)


# --- construction -----------------------------------------------------------


def test_construct_jacobson_a():
    T = make_jacobson_a()
    assert T.dim == 2
    assert T.table[(1, 2, 1)] == (F(1), 2)
    assert T.table[(2, 1, 1)] == (F(-1), 2)


def test_construct_jacobson_b():
    T = make_jacobson_b()
    assert len(T.entries) == 4
    assert T.table[(1, 2, 1)] == (F(2), 1)


def test_construct_nf3_table():
    T = ts.construct_system(3, [(1, 1, 1, 1, 3)])
    assert T.table == {(1, 1, 1): (F(1), 3)}


def test_construct_rejects_bad_index():
    with pytest.raises(IndexError):
        ts.construct_system(2, [(1, 3, 1, 1, 2)])
    with pytest.raises(IndexError):
        ts.construct_system(2, [(1, 2, 1, 1, 5)])


def test_construct_rejects_duplicate():
    with pytest.raises(ts.DuplicateEntry):
        ts.construct_system(2, [(1, 2, 1, 1, 2), (1, 2, 1, 2, 1)])


def test_construct_rejects_zero_coeff():
    with pytest.raises(ts.ZeroCoefficient):
        ts.construct_system(2, [(1, 2, 1, 0, 2)])


def test_construct_rejects_zero_dim():
    with pytest.raises(ValueError):
        ts.construct_system(0, [])


def test_entries_sorted_canonically():
    T = ts.construct_system(2, [(2, 1, 1, -1, 2), (1, 2, 1, 1, 2)])
    assert [e[:3] for e in T.entries] == [(1, 2, 1), (2, 1, 1)]


# --- evaluation -------------------------------------------------------------


def test_evaluate_jacobson_a():
    T = make_jacobson_a()
    x, y = vec(1, 0), vec(0, 1)
    assert ts.evaluate_product(T, x, y, x) == vec(0, 1)
    assert ts.evaluate_product(T, y, x, x) == vec(0, -1)


def test_evaluate_zero_slot():
    T = make_jacobson_a()
    z = ts.zero_vector(2)
    assert ts.evaluate_product(T, z, vec(1, 1), vec(1, 1)) == z


def test_evaluate_nf3():
    T = make_nf3_lift()
    e1 = ts.basis_vector(3, 1)
    assert ts.evaluate_product(T, e1, e1, e1) == ts.basis_vector(3, 3)


def test_evaluate_dimension_mismatch():
    T = make_jacobson_a()
    with pytest.raises(ts.DimensionError):
        ts.evaluate_product(T, vec(1, 0, 0), vec(0, 1), vec(0, 1))


def test_evaluate_trilinear():
    rng = random.Random(17)
    for _ in range(40):
        dim = rng.randint(1, 4)
        T = random_table(rng, dim, rng.randint(0, 5))
        rv = lambda: vec(*[rng.randint(-3, 3) for _ in range(dim)])
        x, x2, y, z = rv(), rv(), rv(), rv()
        c = F(rng.randint(-3, 3))
        left = ts.evaluate_product(T, tuple(a + c * b for a, b in zip(x, x2)), y, z)
        right = tuple(
            a + c * b
            for a, b in zip(ts.evaluate_product(T, x, y, z), ts.evaluate_product(T, x2, y, z))
        )
        assert left == right
        mid = ts.evaluate_product(T, y, tuple(c * a for a in x), z)
        assert mid == tuple(c * a for a in ts.evaluate_product(T, y, x, z))
        last = ts.evaluate_product(T, y, z, tuple(c * a for a in x))
        assert last == tuple(c * a for a in ts.evaluate_product(T, y, z, x))


# --- identity checking ------------------------------------------------------


def test_identities_jacobson_a_clean():
    assert ts.check_identities(make_jacobson_a(), "both").ok


def test_identities_jacobson_b_clean():
    assert ts.check_identities(make_jacobson_b(), "both").ok


def test_identities_nf3_clean():
    assert ts.check_identities(make_nf3_lift(), "both").ok


def test_identities_dim1_violation():
    T = ts.construct_system(1, [(1, 1, 1, 1, 1)])
    report = ts.check_identities(T, "four")
    assert not report.ok
    first = report.violations[0]
    assert first[0] == "four.1"
    assert first[1] == (1, 1, 1, 1, 1)
    assert first[2] == vec(2)


def test_identities_zero_table_clean():
    for n in (1, 2, 4):
        assert ts.check_identities(make_zero_system(n), "both").ok


def test_identities_cap():
    T = make_zero_system(13)
    with pytest.raises(ts.CapExceeded):
        ts.check_identities(T)
    assert ts.check_identities(T, cap=13).ok


def _identity_corpus(name):
    if name == "verified":
        return random_verified_corpus(61, 12)
    if name == "broken":
        return random_broken_tables(67, 12)
    if name == "random":
        return [S.sys for S in random_split_systems(71, 12)]
    rng = random.Random(73)
    if name == "full":
        return [random_table(rng, dim, dim**3) for dim in (1, 2, 3, 4) for _ in range(2)]
    # rational coefficients exercise the common-denominator arithmetic
    coeffs = (F(1, 2), F(-2, 3), F(3), F(-5, 4))
    return [random_table(rng, dim, rng.randint(1, dim**3), coeffs) for dim in (1, 2, 3, 4)]


@pytest.mark.parametrize("corpus", ["verified", "broken", "random", "full", "rational"])
def test_identities_match_dense_oracle(corpus):
    for T in _identity_corpus(corpus):
        for family in ("four", "two", "both"):
            assert ts.check_identities(T, family) == dense_check_identities(T, family), (T, family)


def test_identities_family_validation():
    with pytest.raises(ValueError):
        ts.check_identities(make_jacobson_a(), "five")


def test_families_agree_on_broken_tables():
    for T in random_broken_tables(23, 12):
        four = ts.check_identities(T, "four")
        two = ts.check_identities(T, "two")
        assert bool(four.violations) == bool(two.violations)


# --- brackets and the lift --------------------------------------------------


def test_bracket_construct_rejects():
    with pytest.raises(IndexError):
        ts.construct_bilinear(2, [(1, 3, 1, 1)])
    with pytest.raises(ts.ZeroCoefficient):
        ts.construct_bilinear(2, [(1, 1, 0, 2)])
    with pytest.raises(ts.DuplicateEntry):
        ts.construct_bilinear(2, [(1, 1, 1, 2), (1, 1, 2, 2)])


def test_bracket_multiple_targets_allowed():
    L = ts.construct_bilinear(2, [(1, 1, 1, 1), (1, 1, 1, 2)])
    assert L.table[(1, 1)] == ((F(1), 1), (F(1), 2))


def test_lift_nf3():
    T = ts.lift_from_leibniz(make_nf_bracket(3))
    assert T.dim == 3
    assert T.table == {(1, 1, 1): (F(1), 3)}


def test_lift_zero_bracket():
    L = ts.construct_bilinear(2, [])
    T = ts.lift_from_leibniz(L)
    assert T.dim == 2 and not T.entries


def test_lift_nilpotent_bracket_collapses():
    # [e1,e1]=e2 and nothing else: every [[x,y],z] vanishes
    L = ts.construct_bilinear(2, [(1, 1, 1, 2)])
    T = ts.lift_from_leibniz(L)
    assert not T.entries


def test_lift_rejects_non_leibniz():
    # [e1,e1]=e1 fails: [[e1,e1],e1]=e1 but the right side doubles it
    L = ts.construct_bilinear(1, [(1, 1, 1, 1)])
    with pytest.raises(ts.NotLeibniz) as exc:
        ts.lift_from_leibniz(L)
    assert exc.value.witness == (1, 1, 1)


def test_lift_rejects_non_multiplicative():
    # abelian-ish bracket whose triple product has two terms
    L = ts.construct_bilinear(
        3, [(1, 1, 1, 2), (2, 1, 1, 2), (2, 1, 1, 3)]
    )
    if ts.check_leibniz(L) is None:
        with pytest.raises(ts.NotMultiplicative):
            ts.lift_from_leibniz(L)
    else:
        pytest.skip("fixture bracket no longer passes the precheck")


def test_lifts_are_leibniz_triple_systems():
    for L in random_brackets(29, 25):
        T = ts.lift_from_leibniz(L)
        assert ts.check_identities(T, "both").ok


# --- package ------------------------------------------------------------------


def test_all_lists_no_modules():
    assert len(set(ts.__all__)) == len(ts.__all__)
    for name in ts.__all__:
        assert not isinstance(getattr(ts, name), types.ModuleType), name
