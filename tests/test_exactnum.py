import random
from fractions import Fraction

import pytest

from trisys import (
    DimensionError,
    RowSpace,
    rat_parse,
    rat_str,
    rowspace_from,
    span_insert,
)
from trisys.exactnum import coordinate_space
from conftest import oracle_solve_membership

F = Fraction


def vec(*nums):
    return tuple(F(n) for n in nums)


@pytest.mark.parametrize(
    "text,value",
    [("3", F(3)), ("-3", F(-3)), ("1/2", F(1, 2)), ("-4/6", F(-2, 3)), ("0", F(0))],
)
def test_rat_parse(text, value):
    assert rat_parse(text) == value


@pytest.mark.parametrize("text", ["", "3/-6", "1 / 2", "+3", "a", "1/2/3", "- 3", "1\n", "1/2\n"])
def test_rat_parse_rejects(text):
    with pytest.raises(ValueError):
        rat_parse(text)


def test_rat_parse_rejects_non_ascii_digits():
    # \d and int() read every Unicode decimal digit; the file format has ASCII digits only
    for text in ("\u0663/2", "1/\u0663", "-\u0663", "\uff13"):
        with pytest.raises(ValueError):
            rat_parse(text)


def test_rat_parse_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rat_parse("1/0")


def test_rat_str_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        q = F(rng.randint(-50, 50), rng.randint(1, 50))
        assert rat_parse(rat_str(q)) == q
        assert rat_str(q) == (f"{q.numerator}/{q.denominator}" if q.denominator > 1 else str(q.numerator))
    assert [rat_str(n) for n in (0, -3, 7)] == ["0", "-3", "7"]  # an int reads as its Fraction


def test_rational_arithmetic_exact():
    rng = random.Random(11)
    for _ in range(300):
        a = F(rng.randint(-999, 999), rng.randint(1, 999))
        b = F(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a


def test_span_insert_into_empty():
    s = span_insert(RowSpace(2), vec(1, 0))
    assert s.rows == (vec(1, 0),)
    assert s.rank == 1


def test_span_insert_dependent():
    s = rowspace_from(2, [vec(1, 0)])
    assert span_insert(s, vec(2, 0)) == s


def test_span_insert_independent():
    s = rowspace_from(2, [vec(1, 0), vec(1, 1)])
    assert s.rows == (vec(1, 0), vec(0, 1))
    assert s.rank == 2


def test_span_insert_dimension_mismatch():
    with pytest.raises(DimensionError):
        span_insert(RowSpace(2), vec(1, 0, 0))


def test_span_contains_examples():
    # v lies in the span exactly when inserting it leaves the canonical rows as they are
    s = rowspace_from(2, [vec(1, 0)])
    assert span_insert(s, vec(3, 0)) == s
    assert span_insert(s, vec(0, 1)) != s
    assert span_insert(RowSpace(2), vec(0, 0)) == RowSpace(2)


def test_span_contains_dimension_mismatch():
    with pytest.raises(DimensionError):
        span_insert(RowSpace(2), vec(1,))


def test_rowspace_rref_shape():
    rng = random.Random(3)
    for _ in range(100):
        dim = rng.randint(1, 6)
        vs = [vec(*[rng.randint(-3, 3) for _ in range(dim)]) for _ in range(rng.randint(0, 6))]
        s = rowspace_from(dim, vs)
        pivots = [next(p for p, c in enumerate(row) if c) for row in s.rows]
        assert list(pivots) == sorted(pivots)
        for r, row in enumerate(s.rows):
            assert row[pivots[r]] == 1
            for r2 in range(len(s.rows)):
                if r2 != r:
                    assert s.rows[r2][pivots[r]] == 0


def test_rowspace_canonical_under_insertion_order():
    rng = random.Random(5)
    for _ in range(60):
        dim = rng.randint(1, 6)
        vs = [vec(*[rng.randint(-3, 3) for _ in range(dim)]) for _ in range(rng.randint(1, 6))]
        base = rowspace_from(dim, vs)
        for _ in range(4):
            shuffled = vs[:]
            rng.shuffle(shuffled)
            assert rowspace_from(dim, shuffled) == base


def test_span_contains_matches_bruteforce_solver():
    rng = random.Random(13)
    for _ in range(150):
        dim = rng.randint(1, 6)
        vs = [vec(*[rng.randint(-2, 2) for _ in range(dim)]) for _ in range(rng.randint(0, 5))]
        s = rowspace_from(dim, vs)
        probe = vec(*[rng.randint(-2, 2) for _ in range(dim)])
        assert (span_insert(s, probe) == s) == oracle_solve_membership(vs, probe)


def test_basis_indices():
    s = rowspace_from(3, [vec(0, 0, 2), vec(1, 0, 0)])
    assert s.basis_indices() == (1, 3)
    t = rowspace_from(2, [vec(1, 1)])
    assert t.basis_indices() is None


def test_basis_indices_are_found_once_per_space():
    # a coordinate space records its indices when built; any other space scans its rows on the first call only
    for dim, indices in ((1, ()), (1, (1,)), (5, (2, 4, 5)), (5, (1, 2, 3, 4, 5))):
        built = coordinate_space(dim, iter(indices))
        scanned = RowSpace(dim, built.rows)
        assert built == scanned and built.basis_indices() == scanned.basis_indices() == indices
        assert scanned.basis_indices() is scanned.basis_indices()
    t = rowspace_from(2, [vec(1, 1)])
    assert t.basis_indices() is None and vars(t)["_basis"] is None
