import inspect
import math
import random
import sys
import types
from fractions import Fraction

import pytest

import trisys as ts
from conftest import (
    COEFFS,
    dense_check_identities,
    dense_check_leibniz,
    dense_lift_from_leibniz,
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
FOUR, TWO = ts.system.FOUR_FAMILY, ts.system.TWO_FAMILY


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


class _SubFraction(Fraction):
    pass


@pytest.mark.parametrize(
    "build, row",
    [
        (ts.construct_system, lambda c: (1, 2, 1, c, 2)),
        (ts.construct_bilinear, lambda c: (1, 2, c, 2)),
    ],
    ids=["system", "bilinear"],
)
def test_construct_keeps_fractions_and_converts_the_rest(build, row):
    coeff = F(-3, 4)
    (entry,) = build(2, [row(coeff)]).entries
    assert entry[-2] is coeff
    for other in (-3, "-3/4", _SubFraction(-3, 4), F(-6, 8)):
        (entry,) = build(2, [row(other)]).entries
        assert type(entry[-2]) is Fraction and entry[-2] == F(other)
    for zero in (F(0), 0, "0", _SubFraction(0)):
        with pytest.raises(ts.ZeroCoefficient):
            build(2, [row(zero)])


def test_construct_rejects_zero_dim():
    with pytest.raises(ValueError):
        ts.construct_system(0, [])


@pytest.mark.parametrize(
    "build, row, serialize, parse",
    [
        (ts.construct_system, (1, 2, 1, 1, 2), ts.serialize_system, ts.parse_system),
        (ts.construct_bilinear, (1, 2, 1, 2), ts.serialize_leibniz, ts.parse_leibniz),
    ],
    ids=["system", "bilinear"],
)
def test_construct_refuses_labels_a_file_cannot_hold(build, row, serialize, parse):
    # a label is written as one token of a 'label K NAME' line
    for labels in ({1: "a b"}, {1: ""}, {1: "x#y"}, {2: "tab\there"}, (7, None), ("x", b"y")):
        with pytest.raises(ValueError):
            build(2, [row], labels=labels)
    for labels in ({1: "x"}, {1: None}, (None, "y-2"), ("\u00e9", "[1]")):
        X = build(2, [row], labels=labels)
        assert parse(serialize(X)) == X


@pytest.mark.parametrize(
    "build, row",
    [(ts.construct_system, (1, 2, 1, 1, 2)), (ts.construct_bilinear, (1, 2, 1, 2))],
    ids=["system", "bilinear"],
)
def test_construct_refuses_a_label_sequence_of_another_length(build, row):
    for labels in ((), ("x",), ("x", None, "z")):
        with pytest.raises(ts.DimensionError, match=f"^expected 2 labels, got {len(labels)}$"):
            build(2, [row], labels=labels)


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
    z = (Fraction(0),) * 2
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


# rational coefficients exercise the common-denominator arithmetic
_RATIONAL = (F(1, 2), F(-2, 3), F(3), F(-5, 4))


def _identity_corpus(name):
    if name == "verified":
        return random_verified_corpus(61, 12)
    if name == "broken":
        return random_broken_tables(67, 12)
    if name == "random":
        return [S.sys for S in random_split_systems(71, 12)]
    if name.startswith("dense"):
        # report-dense-shaped: dim**2 to dim**3/2 entries, where most 5-tuples are live
        rng = random.Random(79 if name == "dense" else 83)
        coeffs = _RATIONAL if name == "dense-rational" else COEFFS
        return [random_table(rng, dim, rng.randint(dim**2, dim**3 // 2), coeffs) for dim in (5, 6) for _ in range(2)]
    rng = random.Random(73)
    if name == "full":
        return [random_table(rng, dim, dim**3) for dim in (1, 2, 3, 4) for _ in range(2)]
    return [random_table(rng, dim, rng.randint(1, dim**3), _RATIONAL) for dim in (1, 2, 3, 4)]


@pytest.mark.parametrize("corpus", ["verified", "broken", "random", "full", "rational", "dense", "dense-rational"])
def test_identities_match_dense_oracle(corpus):
    for T in _identity_corpus(corpus):
        for family in ("four", "two", "both"):
            report, oracle = ts.check_identities(T, family), dense_check_identities(T, family)
            assert "violations" not in vars(report)  # built only when first read
            # the sparse residuals, read over their denominator, are the oracle's nonzero coordinates
            den = report.denominator
            sparse = [(i, t, [(m, F(n, den)) for m, n in r]) for i, t, r in report.residuals]
            assert sparse == [(i, t, [(p + 1, c) for p, c in enumerate(v) if c]) for i, t, v in oracle.violations]
            assert report.ok == oracle.ok
            assert report.violations == oracle.violations, (T, family)
            assert report == oracle and hash(report) == hash(oracle), (T, family)


@pytest.mark.parametrize("coeffs", [COEFFS, _RATIONAL], ids=["integer", "rational"])
@pytest.mark.parametrize("dim", [12, 13, 20])
def test_identities_keep_order_in_wide_radix(dim, coeffs):
    # a broken dim-4 table placed on four scattered indices of a wider basis:
    # every term reads all five tuple positions, so the residuals are the small
    # table's, relabelled, and must come back in the wide (tuple, identity) order
    rng = random.Random(dim)
    small = random_table(rng, 4, 24, coeffs)
    place = dict(zip(range(1, 5), [dim, *rng.sample(range(1, dim), 3)]))  # the top digit is used
    assert sorted(place.values()) != list(place.values())
    wide = ts.construct_system(dim, [(place[i], place[j], place[k], c, place[m]) for i, j, k, c, m in small.entries])
    for family, idents in (("four", FOUR), ("two", TWO), ("both", FOUR + TWO)):
        want = ts.check_identities(small, family)
        assert want == dense_check_identities(small, family)
        got = ts.check_identities(wide, family, cap=dim)
        assert any(len(r) > 1 for _, _, r in want.residuals)  # targets to order within a residual
        moved = [
            (ident, tuple(place[p] for p in tup), tuple(sorted((place[m], n) for m, n in r)))
            for ident, tup, r in want.residuals
        ]
        moved.sort(key=lambda v: (v[1], idents.index(v[0])))
        assert got.residuals == tuple(moved) and got.denominator == want.denominator
        for _, _, r in got.residuals:
            assert all(m1 < m2 for (m1, _), (m2, _) in zip(r, r[1:])) and all(n for _, n in r)


def test_scaled_rows_are_the_fraction_scaling():
    # one as_integer_ratio per entry gives the common denominator and numerators that Fraction's properties give
    rng = random.Random(27)
    big = 2**64
    coeffs = [F(-3), F(-7, 2), F(1, big), F(-(big - 1), big), F(big + 1, 3), F(5, big - 1), F(-1, 6)]
    systems = [make_zero_system(4), make_jacobson_b(), *(random_table(rng, 4, 12, coeffs) for _ in range(20))]
    systems.append(ts.construct_system(2, [(1, 1, 1, F(-rng.randrange(1, big), rng.randrange(1, big + 1)), 2)]))
    for T in systems:
        scale = math.lcm(*[c.denominator for _, _, _, c, _ in T.entries])
        want = tuple([(i, j, k, c.numerator * (scale // c.denominator), m) for i, j, k, c, m in T.entries])
        assert T._scaled == (scale, want) and all(F(n, scale) == c for (*_, n, _), (*_, c, _) in zip(want, T.entries))
    assert make_zero_system(4)._scaled == (1, ())
    assert any(T._scaled[0] >= big for T in systems) and any(n < 0 for T in systems for *_, n, _ in T._scaled[1])


def _reached_slots(T):
    """The slots s where some entry's target is the slot-s index of an entry: the terms the check joins."""
    return {s for *_, t in T.entries for s in range(3) for e in T.entries if e[s] == t}


def test_identity_plan_skips_unreached_slots_and_matches_dense_oracle():
    # the check skips every term whose slot no target reaches, so tables that
    # reach one slot only, or none, exercise each skip against the dense oracle
    rng = random.Random(97)
    found = {frozenset(): [make_zero_system(3)]}
    while any(len(found.get(frozenset({s}), ())) < 4 for s in range(3)) or len(found[frozenset()]) < 4:
        dim = rng.randint(2, 4)
        T = random_table(rng, dim, rng.randint(1, 3), _RATIONAL)
        found.setdefault(frozenset(_reached_slots(T)), []).append(T)
    for reached in [frozenset(), *(frozenset({s}) for s in range(3))]:
        for T in found[reached][:4]:
            for family in ("four", "two", "both"):
                report = ts.check_identities(T, family)
                assert report == dense_check_identities(T, family), (sorted(reached), T, family)
                assert reached or report.ok  # no joined pair: every term is zero
    assert any(not ts.check_identities(T).ok for s in range(3) for T in found[frozenset({s})])


def test_identity_plans_carry_no_state_between_calls():
    # every family at every dim 1..12 in one process, then again in reverse order: the same cells
    rng = random.Random(101)
    tables = [random_table(rng, dim, rng.randint(dim, 3 * dim), _RATIONAL) for dim in range(1, 13)]
    families = ("four", "two", "both")
    first = [[ts.check_identities(T, family) for family in families] for T in tables]
    for T, reports in reversed(list(zip(tables, first))):
        for family, report in reversed(list(zip(families, reports))):
            again = ts.check_identities(T, family)
            assert (again._cells, again.denominator) == (report._cells, report.denominator), (T.dim, family)
            if T.dim <= 4:
                assert again == dense_check_identities(T, family), (T, family)
    assert sum(not report.ok for reports in first for report in reports) > 12


def test_same_terms_assertion_guards_the_compiled_plan(monkeypatch):
    # both families join four.3 once and copy its cells to two.2's digit
    idents, plan = ts.system._PLANS["both"]
    assert [idents[at] for at, _, _ in plan] == ["four.1", "four.2", "four.3", "four.4", "two.1"]
    assert [shift for _, _, shift in plan] == [0, 0, idents.index("two.2") - idents.index("four.3"), 0, 0]
    assert [len(terms) for _, terms, _ in ts.system._PLANS["two"][1]] == [5, 5]  # two alone joins two.2
    # a two.2 whose terms drift from four.3's stops the module at import, before a plan is compiled
    source = inspect.getsource(ts.system)
    same, drifted = "+(abf)cd -(abf)dc", "+(abf)cd +(abf)dc"
    assert source.count(same) == 1

    def load(text):
        module = types.ModuleType("trisys._system_copy")
        module.__package__ = "trisys"
        monkeypatch.setitem(sys.modules, module.__name__, module)
        exec(compile(text, ts.system.__file__, "exec"), vars(module))
        return module

    assert load(source)._PLANS == ts.system._PLANS
    with pytest.raises(AssertionError, match="no longer have the same terms"):
        load(source.replace(same, drifted))


def test_identity_report_builds_violations_from_residuals():
    v = ("four.1", (1, 1, 1, 1, 1), vec(0, 2, F(-1, 3)))
    report = ts.IdentityReport("four", (("four.1", (1, 1, 1, 1, 1), ((2, 12), (3, -2))),), 3, 6)
    assert "violations" not in vars(report)
    assert report.violations == (v,) and vars(report)["violations"] is report.violations
    same = ts.IdentityReport("four", (("four.1", (1, 1, 1, 1, 1), ((2, F(2)), (3, F(-1, 3)))),), 3)
    assert report == same and hash(report) == hash(same)
    assert report != ts.IdentityReport("both", same.residuals, 3) and report != ("four", (v,))
    assert not report.ok and ts.IdentityReport("two", (), 3).ok
    # reports compare by their residuals, so a target beyond dim, as a hand-built report may hold, compares too
    wide = ts.IdentityReport("four", (("four.1", (1, 2, 3, 4, 5), ((7, 1),)),), 5)
    assert wide == wide and hash(wide) == hash(ts.IdentityReport("four", wide.residuals, 5))
    assert wide != ts.IdentityReport("four", wide.residuals, 8) and "violations" not in vars(wide)
    assert ts.IdentityReport("four", (), 3) == ts.IdentityReport("four", (), 5)


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


def test_bracket_construct_rejects_dim_below_one():
    for dim in (0, -3):
        with pytest.raises(ValueError, match=f"^dimension must be at least 1, got {dim}$"):
            ts.construct_bilinear(dim, [])


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
    assert str(exc.value) == "bracket fails the Leibniz identity at basis triple (1, 1, 1)"


def test_lift_rejects_non_multiplicative():
    # abelian-ish bracket whose triple product has two terms
    L = ts.construct_bilinear(
        3, [(1, 1, 1, 2), (2, 1, 1, 2), (2, 1, 1, 3)]
    )
    assert ts.check_leibniz(L) is None
    with pytest.raises(ts.NotMultiplicative) as exc:
        ts.lift_from_leibniz(L)
    # [[e1,e1],e1] = [e2,e1] = e2 + e3
    assert exc.value.witness == (1, 1, 1)
    assert exc.value.value == vec(0, 1, 1)


def test_lifts_are_leibniz_triple_systems():
    for L in random_brackets(29, 25):
        T = ts.lift_from_leibniz(L)
        assert ts.check_identities(T, "both").ok


def _outcome(fn, L):
    """Return value, or exception type with its witness and value."""
    try:
        return fn(L)
    except (ts.NotLeibniz, ts.NotMultiplicative) as err:
        return type(err), err.witness, getattr(err, "value", None)


def _raw_brackets(seed, count, max_dim=5):
    """Random brackets, mostly failing the Leibniz check, with multi-target keys."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.randint(1, max_dim)
        terms = rng.sample(
            [(i, j, m) for i in range(1, dim + 1) for j in range(1, dim + 1) for m in range(1, dim + 1)],
            min(rng.randint(0, 5), dim**3),
        )
        out.append(ts.construct_bilinear(dim, [(i, j, rng.choice(COEFFS), m) for i, j, m in terms]))
    return out


def _right_one_brackets(seed, count, max_dim=5):
    """Brackets whose only keys are (i, 1), with targets among e_2..e_n.

    Every such bracket passes the Leibniz check: [[e_i,e_1],e_1] cancels
    against its own swap and no bracket has e_1 in its image.  Its lift often
    has [[e_i,e_1],e_1] on several basis vectors, so NotMultiplicative is common.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.randint(2, max_dim)
        entries = [
            (i, 1, rng.choice(COEFFS), m)
            for i in range(1, dim + 1)
            if rng.random() < 0.7
            for m in range(2, dim + 1)
            if rng.random() < 0.5
        ]
        out.append(ts.construct_bilinear(dim, entries))
    return out


@pytest.mark.parametrize(
    "corpus",
    [
        lambda: random_brackets(31, 150),
        lambda: [make_nf_bracket(n) for n in range(1, 9)],
        lambda: _raw_brackets(37, 400),
        lambda: _right_one_brackets(41, 400),
    ],
    ids=["random-brackets", "nf-brackets", "raw-brackets", "right-one-brackets"],
)
def test_leibniz_check_and_lift_match_dense(corpus):
    for L in corpus():
        assert ts.check_leibniz(L) == dense_check_leibniz(L), L
        assert _outcome(ts.lift_from_leibniz, L) == _outcome(dense_lift_from_leibniz, L), L


def test_right_one_brackets_pass_the_check_and_often_fail_the_lift():
    corpus = _right_one_brackets(41, 400)
    assert all(ts.check_leibniz(L) is None for L in corpus)
    failures = 0
    for L in corpus:
        try:
            ts.lift_from_leibniz(L)
        except ts.NotMultiplicative:
            failures += 1
    assert failures >= 100


@pytest.mark.parametrize(
    "entries, outcome",
    [
        ([(1, 1, 1, 2), (2, 1, 1, 3)], None),
        ([(1, 1, 1, 1)], ts.NotLeibniz),
        ([(1, 1, 1, 2), (2, 1, 1, 2), (2, 1, 1, 3)], ts.NotMultiplicative),
    ],
    ids=["lifts", "not-leibniz", "not-multiplicative"],
)
def test_lift_joins_the_bracket_keys_once(monkeypatch, entries, outcome):
    # the lift's own Leibniz check reads the same composition join as the lift
    original = ts.system._compositions
    calls = []
    monkeypatch.setattr(ts.system, "_compositions", lambda L: calls.append(L) or original(L))
    L = ts.construct_bilinear(3, entries)
    result = _outcome(ts.lift_from_leibniz, L)
    assert (result[0] if outcome else None) == outcome
    assert len(calls) == 1
    calls.clear()
    ts.check_leibniz(L)
    assert len(calls) == 1


# --- package ------------------------------------------------------------------


def test_all_lists_no_modules():
    assert len(set(ts.__all__)) == len(ts.__all__)
    for name in ts.__all__:
        assert not isinstance(getattr(ts, name), types.ModuleType), name
