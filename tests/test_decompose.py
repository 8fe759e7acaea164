import inspect
import io
import random
from fractions import Fraction

import pytest

import trisys as ts
from trisys import barred, plain
from trisys.cli import run_command
from conftest import (
    block_sum,
    check_orthogonal,
    dense_check_identities,
    make_jacobson_a,
    make_jacobson_b,
    make_mutual_pair,
    make_nf3_lift,
    make_zero_system,
    minimality_oracle,
    oracle_counterexample,
    random_arbitrary_splits,
    random_split_systems,
    random_table,
    random_verified_corpus,
)

F = Fraction


def split(T):
    return ts.split_system(T)


# --- components ---------------------------------------------------------------


def test_components_nf3():
    comps = ts.check_decomposition(split(make_nf3_lift())).components
    assert [c.indices for c in comps] == [(1, 3), (2,)]
    first, second = comps
    assert first.subsystem.table == {(1, 1, 1): (F(1), 2)}
    assert first.iset_part == (3,)
    assert first.jset_part == (1,)
    assert second.subsystem.entries == ()
    assert second.iset_part == ()
    assert second.jset_part == (2,)


def test_components_jacobson_whole():
    comps = ts.check_decomposition(split(make_jacobson_a())).components
    assert len(comps) == 1
    assert comps[0].indices == (1, 2)
    assert comps[0].subsystem.table == make_jacobson_a().table


def test_components_zero_table():
    comps = ts.check_decomposition(split(make_zero_system(3))).components
    assert [c.indices for c in comps] == [(1,), (2,), (3,)]
    assert all(not c.subsystem.entries for c in comps)


def _labelled(T, rng):
    labels = {i: f"b{i}" for i in range(1, T.dim + 1) if rng.random() < 0.5}
    return ts.construct_system(T.dim, T.entries, labels=labels)


def test_components_equal_construct_system_of_their_entries():
    rng = random.Random(71)
    splits = [split(_labelled(T, rng)) for T in random_verified_corpus(72, 40, max_dim=8)]
    splits += random_split_systems(73, 60, max_dim=6, max_entries=6)
    splits += [ts.SplitSystem(_labelled(S.sys, rng), S.iset, S.mode) for S in random_arbitrary_splits(74, 400)]
    built = confined = 0
    for S in splits:
        for mode in ("literal", "restricted"):
            report = ts.check_decomposition(S, mode)
            confined += bool(report.confinement_violations)
            for comp in report.components:
                local = {parent: pos for pos, parent in enumerate(comp.indices, 1)}
                inside = [(i, j, k, c, m) for i, j, k, c, m in S.sys.entries if {i, j, k, m} <= local.keys()]
                assert comp.entries == tuple(inside)  # the parent's indices, in the parent's order
                assert comp.labels == tuple([S.sys.labels[p - 1] for p in comp.indices])
                entries = [(local[i], local[j], local[k], c, local[m]) for i, j, k, c, m in inside]
                labels = {local[p]: S.sys.labels[p - 1] for p in comp.indices if S.sys.labels[p - 1] is not None}
                assert "subsystem" not in vars(comp)  # built when first read
                assert comp.subsystem == ts.construct_system(len(comp.indices), entries, labels=labels)
                built += 1
    assert built > 1000 and confined > 20


# --- orthogonality ---------------------------------------------------------------


def test_orthogonal_nf3_components():
    S = split(make_nf3_lift())
    c1, c2 = ts.check_decomposition(S).components
    assert check_orthogonal(S, c1, c2)


def test_orthogonal_block_sum():
    S = split(block_sum(make_jacobson_a(), make_jacobson_a()))
    c1, c2 = ts.check_decomposition(S).components
    assert c1.indices == (1, 2) and c2.indices == (3, 4)
    assert check_orthogonal(S, c1, c2)


def test_orthogonal_detects_mixing_entry():
    T = ts.construct_system(3, [(1, 1, 1, 1, 2), (1, 3, 3, 1, 1)])
    S = ts.split_basis(T, ())
    c1 = ts.Component((1, 2), (), (None, None), (), (1, 2))
    c2 = ts.Component((3,), (), (None,), (), (3,))
    assert not check_orthogonal(S, c1, c2)


# --- the decomposition report ------------------------------------------------------


def test_decomposition_nf3():
    report = ts.check_decomposition(split(make_nf3_lift()))
    assert len(report.components) == 2
    assert report.ok
    assert report.covers
    assert report.ideal_flags == (True, True)
    assert report.orthogonality == ((True, True), (True, True))


def test_decomposition_jacobson():
    report = ts.check_decomposition(split(make_jacobson_a()))
    assert len(report.components) == 1
    assert report.ok


def test_decomposition_block_sum():
    report = ts.check_decomposition(split(block_sum(make_jacobson_a(), make_jacobson_b())))
    assert len(report.components) == 2
    assert report.ok


def test_components_confinement_violation_restricted():
    # {e3,u1,u2}=e3 keeps span{e3} an admissible declared ideal, yet in
    # restricted mode the entry straddles the three singleton classes
    T = ts.construct_system(3, [(3, 1, 2, 1, 3)])
    S = ts.split_basis(T, (3,))
    assert ts.partition(S, "restricted").classes == ((1,), (2,), (3,))
    report = ts.check_decomposition(S, "restricted")
    assert report.confinement_violations == ((3, 1, 2, F(1), 3),)
    assert [c.indices for c in report.components] == [(1,), (2,), (3,)]
    # literal mode keeps the entry inside one class
    literal = ts.check_decomposition(S, "literal")
    assert literal.confinement_violations == ()
    assert [c.indices for c in literal.components] == [(1, 2, 3)]


def test_decomposition_restricted_reports_violations():
    T = ts.construct_system(3, [(3, 1, 2, 1, 3)])
    S = ts.split_basis(T, (3,))
    report = ts.check_decomposition(S, "restricted")
    assert not report.ok
    assert report.confinement_violations == ((3, 1, 2, F(1), 3),)
    # span{e1} is not an ideal here, so at least one flag must be false
    assert not all(report.ideal_flags)


def test_decomposition_deterministic():
    S = split(make_nf3_lift())
    assert ts.check_decomposition(S) == ts.check_decomposition(S)


def test_ideal_and_orthogonality_flags_match_pointwise_checks():
    # both come from one entry scan; the reference closes each component's row space
    # instead, and check_orthogonal scans the table once per pair of components
    systems = random_split_systems(311, 150, max_dim=6, max_entries=6)
    systems += [split(T) for T in random_verified_corpus(312, 40, max_dim=7)]
    not_ideal = not_orthogonal = 0
    for S in systems:
        n = S.sys.dim
        for mode in ("literal", "restricted"):
            report = ts.check_decomposition(S, mode)
            comps = report.components
            spans = [ts.rowspace_from(n, [ts.basis_vector(n, i) for i in comp.indices]) for comp in comps]
            want = tuple(ts.ideal_closure(S.sys, span).subspace == span for span in spans)
            assert report.ideal_flags == want, (S, mode)
            ortho = tuple(
                tuple(a is b or check_orthogonal(S, a, b) for b in comps) for a in comps
            )
            assert report.orthogonality == ortho, (S, mode)
            assert report.ok == (
                report.covers
                and all(want)
                and all(all(row) for row in ortho)
                and not report.confinement_violations
            ), (S, mode)
            not_ideal += want.count(False)
            not_orthogonal += sum(row.count(False) for row in ortho)
    assert not_ideal > 20 and not_orthogonal > 20


# --- mu-multiplicativity --------------------------------------------------------------


def test_mu_check_nf3_counterexample():
    ok, violation = ts.mu_multiplicativity_check(split(make_nf3_lift()))
    assert not ok
    assert violation == ts.MuViolation(3, (barred(1), barred(1)), 1)


def test_mu_check_jacobson_a():
    # The relation 1 in mu(2, 1', 2') comes from {u1,u2,u1}=u2, but no product
    # {u2,u1,u2} or {u2,u2,u1} realizes it, so the strict barred-pair condition
    # fails even though every plain-pair relation is realized.
    ok, violation = ts.mu_multiplicativity_check(split(make_jacobson_a()))
    assert not ok
    assert violation == ts.MuViolation(2, (barred(1), barred(2)), 1)


def test_mu_check_jacobson_b():
    ok, violation = ts.mu_multiplicativity_check(split(make_jacobson_b()))
    assert not ok
    assert violation == ts.MuViolation(1, (barred(1), barred(1)), 2)


def test_mu_check_zero_table():
    ok, violation = ts.mu_multiplicativity_check(split(make_zero_system(3)))
    assert ok and violation is None


def test_mu_check_mutual_pair():
    ok, violation = ts.mu_multiplicativity_check(split(make_mutual_pair()))
    assert ok and violation is None


# --- inherited ideals and the oracle ----------------------------------------------------


def test_enumerate_nf3():
    got = ts.enumerate_inherited_ideals(split(make_nf3_lift()))
    assert got == [(), (2,), (3,), (1, 3), (2, 3), (1, 2, 3)]


def test_enumerate_jacobson_a():
    got = ts.enumerate_inherited_ideals(split(make_jacobson_a()))
    assert got == [(), (2,), (1, 2)]


def test_enumerate_zero_table():
    got = ts.enumerate_inherited_ideals(split(make_zero_system(2)))
    assert got == [(), (1,), (2,), (1, 2)]


def test_enumerate_cap():
    with pytest.raises(ts.CapExceeded):
        ts.enumerate_inherited_ideals(split(make_zero_system(4)), cap=3)


def test_oracle_nf3_not_minimal():
    assert not minimality_oracle(split(make_nf3_lift()))


def test_oracle_jacobson_a_not_minimal():
    # span{v2} is a nonzero inherited ideal distinct from the zero deviation
    # ideal and from the whole system
    assert not minimality_oracle(split(make_jacobson_a()))


def test_oracle_jacobson_b_minimal():
    assert minimality_oracle(split(make_jacobson_b()))


def test_oracle_dim1_zero_minimal():
    assert minimality_oracle(split(make_zero_system(1)))


def _random_isets(seed, count, max_dim=9):
    """SplitSystems over random tables of dim 1..max_dim, each split along a random iset.

    Of count draws, only those whose iset fits the table construct and are kept.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.randint(1, max_dim)
        T = random_table(rng, dim, rng.randint(0, 2 * dim))
        iset = tuple(i for i in range(1, dim + 1) if rng.random() < 0.3)
        try:
            out.append(ts.SplitSystem(T, iset, "generic"))
        except ts.NotAdmissible:
            continue
    return out


def test_principal_closures_find_the_enumerated_counterexample():
    splits = _random_isets(75, 8000)
    splits += random_split_systems(76, 200, max_dim=8, max_entries=10)
    splits += [split(T) for T in random_verified_corpus(77, 150, max_dim=12)]
    splits += [split(T) for T in (make_jacobson_a(), make_jacobson_b(), make_nf3_lift(), make_zero_system(12))]
    found = 0
    for S in splits:
        want = oracle_counterexample(S, 12)
        assert ts.decompose._principal_counterexample(S) == want, S
        found += want is not None
    assert found > 2000 and len(splits) - found > 200


def test_is_minimal_verdicts_match_the_exhaustive_oracle():
    for S in _random_isets(78, 400, max_dim=7) + [split(T) for T in random_verified_corpus(79, 60, max_dim=8)]:
        for mode in ("literal", "restricted"):
            v = ts.is_minimal(S, mode)
            if v.oracle_used:
                assert (v.verdict == "minimal") == minimality_oracle(S)
            if v.verdict == "not_minimal":
                assert v.counterexample_ideal == oracle_counterexample(S, 12)


# --- minimality verdicts ------------------------------------------------------------------


def test_minimal_nf3():
    v = ts.is_minimal(split(make_nf3_lift()))
    assert v.verdict == "not_minimal"
    assert not v.mu_multiplicative
    assert v.oracle_used
    assert v.i_connected and not v.j_connected
    assert v.counterexample_ideal == (2,)


def test_minimal_jacobson_a():
    v = ts.is_minimal(split(make_jacobson_a()))
    assert v.verdict == "not_minimal"
    assert not v.mu_multiplicative
    assert v.oracle_used
    assert v.i_connected and v.j_connected
    assert v.counterexample_ideal == (2,)


def test_minimal_jacobson_b():
    v = ts.is_minimal(split(make_jacobson_b()))
    assert v.verdict == "minimal"
    assert not v.mu_multiplicative
    assert v.oracle_used


def test_minimal_block_sum_not_minimal():
    v = ts.is_minimal(split(block_sum(make_jacobson_a(), make_jacobson_a())))
    assert v.verdict == "not_minimal"
    assert not v.j_connected


def test_minimal_mutual_pair():
    v = ts.is_minimal(split(make_mutual_pair()))
    assert v.mu_multiplicative
    assert not v.oracle_used
    assert v.verdict == "minimal"


def test_minimal_mu_block_sum_uses_criterion():
    v = ts.is_minimal(split(block_sum(make_mutual_pair(), make_zero_system(1))))
    assert v.mu_multiplicative
    assert not v.oracle_used
    assert v.verdict == "not_minimal"
    assert v.counterexample_ideal is not None


def test_minimal_criterion_inapplicable_beyond_cap():
    v = ts.is_minimal(split(make_nf3_lift()), oracle_cap=2)
    assert v.verdict == "criterion_inapplicable"
    assert not v.oracle_used


def test_minimal_oracle_runs_at_dim_equal_to_cap():
    # the cap is inclusive: dim 3 with oracle_cap=3 still gets the oracle's verdict
    v = ts.is_minimal(split(make_nf3_lift()), oracle_cap=3)
    assert (v.verdict, v.oracle_used, v.counterexample_ideal) == ("not_minimal", True, (2,))


def test_minimal_criterion_counterexample_at_dim_equal_to_cap():
    # on the mu-multiplicative path the counterexample search also runs up to and including the cap
    S = split(block_sum(make_mutual_pair(), make_zero_system(1)))
    assert S.sys.dim == 4
    assert ts.is_minimal(S, oracle_cap=4).counterexample_ideal == (4,)
    assert ts.is_minimal(S, oracle_cap=3).counterexample_ideal is None


def test_generic_split_modes_can_disagree_outside_verified_systems():
    # Not a Leibniz triple system: the deviation ideal is still valid, the
    # basis passes the mu test, and only the restricted criterion matches the
    # exhaustive oracle.  Literal steps merge jset through an iset pair.  The
    # modes also disagree on verified systems: see the ROADMAP item 18 shapes below.
    T = ts.construct_system(4, [(1, 3, 4, 1, 2), (2, 3, 4, 1, 1)])
    assert not ts.check_identities(T, "both").ok
    S = ts.split_system(T)
    assert ts.mu_multiplicativity_check(S)[0]
    assert not minimality_oracle(S)
    assert ts.is_minimal(S, "literal").verdict == "minimal"
    assert ts.is_minimal(S, "restricted").verdict == "not_minimal"


# ROADMAP item 18: two verified shapes on which the literal-mode criterion says
# minimal and the exhaustive oracle does not.  Literal steps may pair an iset
# index, so literal mode joins indices that restricted mode keeps apart.
ITEM_18_SHAPES = {
    # {x,j,j} = x for two indices x that share one jset index j: iset {1,3}, jset {2}
    "shared-j": ("dim 3\nprod 1 2 2 = 1 * 1\nprod 3 2 2 = 1 * 3\n", (1,)),
    # {1,a,b} = 1 for every a, b in jset {2,3}
    "all-pairs": ("dim 3\n" + "".join(f"prod 1 {a} {b} = 1 * 1\n" for a in (2, 3) for b in (2, 3)), (1, 2)),
}
ITEM_18_LITERAL = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 18: the literal-mode criterion says minimal on a verified non-minimal system",
)


def _item_18_verdict(name, surface, mode, tmp_path):
    """(verdict, counterexample) of a shape, from is_minimal or from the CLI's minimal and report output."""
    text, _ = ITEM_18_SHAPES[name]
    if surface == "library":
        v = ts.is_minimal(split(ts.parse_system(text)), mode)
        return v.verdict, v.counterexample_ideal
    path = tmp_path / f"{name}.tri"
    path.write_text(text, encoding="utf-8")
    found = set()
    for command in ("minimal", "report"):
        out, err = io.StringIO(), io.StringIO()
        code = run_command([command, "--mode", mode, str(path)], out, err)
        assert err.getvalue() == "" and code in ((0,) if command == "minimal" else (0, 1))  # report's decompose may fail
        fields = dict(line.split(": ", 1) for line in out.getvalue().splitlines() if ": " in line)
        ideal = fields.get("counterexample_ideal")
        found.add((fields["verdict"], tuple(map(int, ideal.strip("{}").split(","))) if ideal else None))
    assert len(found) == 1, found  # minimal and report's [minimal] section agree
    return found.pop()


@pytest.mark.parametrize("surface", ["library", "cli"])
@pytest.mark.parametrize("name", sorted(ITEM_18_SHAPES))
def test_item_18_shapes_are_verified_and_not_minimal(name, surface, tmp_path):
    text, counterexample = ITEM_18_SHAPES[name]
    T = ts.parse_system(text)
    assert ts.check_identities(T).ok and dense_check_identities(T).ok
    S = split(T)
    assert ts.mu_multiplicativity_check(S)[0]
    assert not minimality_oracle(S) and oracle_counterexample(S) == counterexample
    assert _item_18_verdict(name, surface, "restricted", tmp_path) == ("not_minimal", counterexample)


@ITEM_18_LITERAL
@pytest.mark.parametrize("surface", ["library", "cli"])
@pytest.mark.parametrize("name", sorted(ITEM_18_SHAPES))
def test_item_18_literal_mode_matches_the_oracle(name, surface, tmp_path):
    _, counterexample = ITEM_18_SHAPES[name]
    assert _item_18_verdict(name, surface, "literal", tmp_path) == ("not_minimal", counterexample)


# --- theorem-level properties ---------------------------------------------------------------


def test_literal_decomposition_always_ok_on_random_splits():
    for S in random_split_systems(59, 30, max_dim=5):
        report = ts.check_decomposition(S, "literal")
        assert report.ok


def test_component_jideal_matches_iset_part():
    corpus = [make_jacobson_a(), make_jacobson_b(), make_nf3_lift()]
    corpus += random_verified_corpus(61, 25, max_dim=6)
    for T in corpus:
        S = ts.split_system(T)
        for comp in ts.check_decomposition(S).components:
            local = ts.compute_jideal(comp.subsystem).subspace
            expected = {comp.indices.index(i) + 1 for i in comp.iset_part}
            assert local.basis_indices() is not None
            assert set(local.basis_indices()) == expected


def test_components_of_mu_multiplicative_systems_are_minimal():
    for T in random_verified_corpus(67, 60, max_dim=6):
        S = ts.split_system(T)
        if not ts.mu_multiplicativity_check(S)[0]:
            continue
        for comp in ts.check_decomposition(S).components:
            sub = ts.split_system(comp.subsystem)
            assert ts.mu_multiplicativity_check(sub)[0]
            assert ts.is_minimal(sub).verdict == "minimal"


def test_decomposition_partition_shared_with_is_minimal():
    splits = random_split_systems(101, 40) + [split(T) for T in random_verified_corpus(103, 30, max_dim=7)]
    splits += random_arbitrary_splits(107, 300)
    shared = 0
    for S in splits:
        for mode, other in (("literal", "restricted"), ("restricted", "literal")):
            part = ts.partition(S, mode)
            report = ts.check_decomposition(S, mode)
            shared_part = ts.Partition(tuple(comp.indices for comp in report.components), mode)
            assert shared_part == part
            # the verdict reads the decomposition's classes, and a fresh split gives the same one
            verdict = ts.is_minimal(S, mode)
            assert ts.is_minimal(ts.SplitSystem(S.sys, S.iset, S.mode), mode) == verdict
            assert verdict.i_connected == (len({shared_part.class_of[i] for i in S.iset}) <= 1)
            assert verdict.j_connected == (len({shared_part.class_of[j] for j in S.jset}) <= 1)
            # the other mode's partition leaves this mode's verdict alone
            ts.partition(S, other)
            assert ts.is_minimal(S, mode) == verdict
            shared += 1
    assert shared > 300


def test_is_minimal_takes_no_partition_from_the_caller():
    # a caller's partition once replaced the split's own, so a wrong one gave a wrong verdict
    assert list(inspect.signature(ts.is_minimal).parameters) == ["S", "mode", "oracle_cap"]
    S = ts.split_system(ts.construct_system(2, []))
    verdict = ts.is_minimal(S, "literal")
    assert (verdict.verdict, verdict.counterexample_ideal) == ("not_minimal", (1,))
    with pytest.raises(TypeError):
        ts.is_minimal(S, "literal", part=ts.Partition(((1, 2),), "literal"))
