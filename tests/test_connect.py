import dataclasses
import itertools
import random

import pytest

import trisys as ts
from trisys import bar, barred, plain
from conftest import (
    dense_mu_multiplicativity_check,
    dense_reachable,
    dense_step_closure_classes,
    make_jacobson_a,
    make_jacobson_b,
    make_nf3_lift,
    make_zero_system,
    oracle_hyperedge_components,
    random_arbitrary_splits,
    random_split_systems,
    random_verified_corpus,
    reference_steps,
)


def split(T):
    return ts.split_system(T)


@pytest.fixture
def nf3_split():
    return split(make_nf3_lift())


@pytest.fixture
def ja_split():
    return split(make_jacobson_a())


def lemma_corpus():
    systems = [
        split(make_jacobson_a()),
        split(make_jacobson_b()),
        split(make_nf3_lift()),
        split(make_zero_system(3)),
    ]
    systems += random_split_systems(101, 40, max_dim=5)
    return systems


# --- marked indices -----------------------------------------------------------


def test_bar_is_involution():
    m = barred(3)
    assert bar(bar(m)) == m
    assert bar(plain(2)) == barred(2)


def test_marked_index_serialization():
    assert str(barred(3)) == "3'"
    assert str(plain(3)) == "3"


# --- the maps a, b, mu, phi -----------------------------------------------------


def test_map_a_nf3(nf3_split):
    assert ts.map_a(nf3_split, 1, 1, 1) == {3}
    assert ts.map_a(nf3_split, 3, 1, 1) == frozenset()


def test_map_a_jacobson(ja_split):
    assert ts.map_a(ja_split, 1, 2, 1) == {2}


def test_split_that_lies_about_the_ideal_is_refused_on_construction():
    # index 1 of the NF3 lift is not in its ideal: {v1,u1,u1} = v3 leaves the declared span
    with pytest.raises(ts.NotAdmissible, match="^declared subspace is not an ideal$"):
        ts.SplitSystem(make_nf3_lift(), (1,), "generic")
    # {v1,u3,u3} = v3 stays in span{v3} but has 3 in slot 2; nothing reaches 3 from 1,
    # and the split is refused all the same, before any connection is computed
    T = ts.construct_system(4, [(1, 2, 2, 1, 2), (1, 3, 3, 1, 3)])
    with pytest.raises(ts.NotAdmissible, match="^ideal has a nonzero product in the second or third slot$"):
        ts.SplitSystem(T, (3,), "generic")
    for iset in ((3, 3), (4, 3), (0, 3), (3, 5)):
        with pytest.raises(ts.InconsistentSplit, match=r"^iset is not strictly ascending within 1\.\.4$"):
            ts.SplitSystem(T, iset, "generic")


def test_map_b_nf3(nf3_split):
    assert ts.map_b(nf3_split, 3, barred(1), barred(1)) == {1}


def test_map_b_jacobson(ja_split):
    assert ts.map_b(ja_split, 2, barred(1), barred(1)) == {2}


def test_map_b_mixed_marks_empty(ja_split):
    assert ts.map_b(ja_split, 2, barred(1), plain(1)) == frozenset()


def test_map_b_out_of_range_barred_index_empty(ja_split, nf3_split):
    # an index outside 1..dim is in neither iset nor jset, and no entry holds it
    for S in (ja_split, nf3_split):
        for k in range(1, S.sys.dim + 1):
            for r in (0, -1, S.sys.dim + 1, 7):
                assert ts.map_b(S, k, barred(r), barred(1)) == ts.map_b(S, k, barred(1), barred(r)) == frozenset()
                assert ts.mu(S, k, barred(r), barred(r)) == frozenset()


def test_mu_examples(ja_split, nf3_split):
    assert ts.mu(ja_split, 1, plain(2), plain(1)) == {2}
    assert ts.mu(nf3_split, 3, barred(1), barred(1)) == {1}
    assert ts.mu(nf3_split, 1, barred(1), plain(2)) == frozenset()


def test_mu_barred_iset_pair_empty(nf3_split):
    assert ts.mu(nf3_split, 1, barred(3), barred(3)) == frozenset()


def test_phi_examples(nf3_split, ja_split):
    assert ts.phi(nf3_split, {1, 2}, plain(1), plain(1)) == {3}
    assert ts.phi(nf3_split, set(), plain(1), plain(1)) == frozenset()
    assert ts.phi(ja_split, {1}, plain(2), plain(1)) == {2}


# --- reachability ----------------------------------------------------------------


def test_reachable_nf3(nf3_split):
    got = ts.reachable(nf3_split, 1, "literal")
    assert set(got) == {1, 3}
    assert got[3].elements == (plain(1), plain(1), plain(1))
    assert got[3].target == 3


def test_reachable_isolated_index(nf3_split):
    assert set(ts.reachable(nf3_split, 2, "literal")) == {2}


def test_reachable_always_contains_source():
    for S in lemma_corpus()[:10]:
        for k in range(1, S.sys.dim + 1):
            for mode in ("literal", "restricted"):
                got = ts.reachable(S, k, mode)
                assert k in got
                assert got[k].elements == (plain(k),)


def test_reachable_witnesses_replay():
    for S in lemma_corpus():
        for k in range(1, S.sys.dim + 1):
            for mode in ("literal", "restricted"):
                for witness in ts.reachable(S, k, mode).values():
                    assert ts.validate_witness(S, witness)


def test_restricted_subset_of_literal():
    for S in lemma_corpus():
        for k in range(1, S.sys.dim + 1):
            restricted = set(ts.reachable(S, k, "restricted"))
            literal = set(ts.reachable(S, k, "literal"))
            assert restricted <= literal


# --- partition --------------------------------------------------------------------


def test_partition_nf3(nf3_split):
    part = ts.partition(nf3_split, "literal")
    assert part.classes == ((1, 3), (2,))
    assert part.class_of == {1: 1, 3: 1, 2: 2}


def test_partition_jacobson(ja_split):
    assert ts.partition(ja_split, "literal").classes == ((1, 2),)


def test_partition_zero_table():
    S = split(make_zero_system(4))
    assert ts.partition(S, "literal").classes == ((1,), (2,), (3,), (4,))


def test_partition_matches_hyperedge_oracle():
    for S in lemma_corpus():
        got = ts.partition(S, "literal").classes
        assert got == oracle_hyperedge_components(S.sys)


def test_partition_deterministic():
    for S in lemma_corpus()[:8]:
        assert ts.partition(S, "literal") == ts.partition(S, "literal")
        assert ts.partition(S, "restricted") == ts.partition(S, "restricted")


# --- reversal ----------------------------------------------------------------------


def test_reverse_trivial_witness(ja_split):
    w = ts.ConnectionWitness((plain(1),), 1)
    assert ts.reverse_connection(ja_split, w) == w


def test_reverse_jacobson_example(ja_split):
    w = ts.ConnectionWitness((plain(1), plain(2), plain(1)), 2)
    assert ts.validate_witness(ja_split, w)
    back = ts.reverse_connection(ja_split, w)
    assert back.elements == (plain(2), barred(1), barred(2))
    assert back.target == 1


def test_reverse_nf3_example(nf3_split):
    w = ts.ConnectionWitness((plain(1), plain(1), plain(1)), 3)
    back = ts.reverse_connection(nf3_split, w)
    assert back.elements == (plain(3), barred(1), barred(1))
    assert back.target == 1


def test_reverse_rejects_iset_pair_elements():
    # {v3,u1,u2} = v3 with 3 in the iset: the witness replays, but its pair runs
    # through 3, outside the reversible domain
    S = split(ts.construct_system(3, [(3, 1, 2, 1, 3)]))
    w = ts.ConnectionWitness((plain(1), plain(2), plain(3)), 3)
    assert S.iset == (3,) and ts.validate_witness(S, w)
    with pytest.raises(ts.NotReversible):
        ts.reverse_connection(S, w)


def test_reverse_refuses_a_witness_that_does_not_replay():
    S = split(make_nf3_lift())
    for w in (
        ts.ConnectionWitness((plain(7),), 7),  # outside 1..dim
        ts.ConnectionWitness((plain(7), plain(1), plain(1)), 3),  # no stage replays from 7
        ts.ConnectionWitness((plain(1), plain(1)), 3),  # an even-length chain has no pairs
        ts.ConnectionWitness((plain(1), plain(3), plain(1)), 1),  # mu(1, 3, 1) is empty
    ):
        assert not ts.validate_witness(S, w)
        with pytest.raises(ValueError, match="does not replay"):
            ts.reverse_connection(S, w)


def test_reverse_restricted_witnesses_everywhere():
    for S in lemma_corpus():
        for k in range(1, S.sys.dim + 1):
            for witness in ts.reachable(S, k, "restricted").values():
                back = ts.reverse_connection(S, witness)
                assert back.target == k
                assert ts.validate_witness(S, back)


# --- lemma properties -------------------------------------------------------------


def _jbar_domain(S):
    return [plain(r) for r in S.jset] + [barred(r) for r in S.jset]


def test_duality_lemma():
    for S in lemma_corpus():
        n = S.sys.dim
        pool = _jbar_domain(S)
        for h1, h2 in itertools.product(pool, pool):
            for k2 in range(1, n + 1):
                image = ts.mu(S, k2, h1, h2)
                for k1 in range(1, n + 1):
                    forward = k1 in image
                    backward = k2 in ts.mu(S, k1, bar(h1), bar(h2))
                    assert forward == backward, (S.sys.entries, k1, k2, h1, h2)


def test_phi_duality_lemma():
    rng = random.Random(53)
    for S in lemma_corpus():
        n = S.sys.dim
        pool = _jbar_domain(S)
        indices = list(range(1, n + 1))
        subsets = [frozenset(rng.sample(indices, rng.randint(0, n))) for _ in range(4)]
        for p, q in itertools.product(pool, pool):
            for K in subsets:
                image = ts.phi(S, K, p, q)
                for x in indices:
                    forward = x in image
                    backward = bool(ts.phi(S, {x}, bar(p), bar(q)) & K)
                    assert forward == backward


def test_mu_permutation_symmetry():
    for S in lemma_corpus():
        n = S.sys.dim
        for k1, k2, k3 in itertools.product(range(1, n + 1), repeat=3):
            base = ts.mu(S, k1, plain(k2), plain(k3))
            for a, b, c in itertools.permutations((k1, k2, k3)):
                assert ts.mu(S, a, plain(b), plain(c)) == base
        for r1, r2 in itertools.product(S.jset, S.jset):
            for k in range(1, n + 1):
                assert ts.mu(S, k, barred(r1), barred(r2)) == ts.mu(
                    S, k, barred(r2), barred(r1)
                )


# --- entry scan against the dense pair-domain references ---------------------------

MODES = ("literal", "restricted")


def differential_corpus():
    """Splits of the lemma suite, raw random and verified tables, and arbitrary draws that construct."""
    systems = lemma_corpus()
    systems += random_split_systems(211, 120, max_dim=6, max_entries=6)
    systems += [split(T) for T in random_verified_corpus(212, 60, max_dim=7)]
    systems += random_arbitrary_splits(213, 500)
    return systems


def test_partition_matches_dense_step_closure():
    agreed = 0
    for S in differential_corpus():
        for mode in MODES:
            assert ts.partition(S, mode).classes == dense_step_closure_classes(S, mode), (S, mode)
            agreed += 1
    assert agreed > 400


def test_reachable_matches_dense_every_source():
    for S in differential_corpus():
        for mode in MODES:
            for k in range(1, S.sys.dim + 1):
                # same witnesses, discovered in the same order
                want = list(dense_reachable(S, k, mode).items())
                assert list(ts.reachable(S, k, mode).items()) == want, (S, k, mode)


def test_mu_check_matches_dense_scan():
    violations = 0
    for S in differential_corpus():
        want = dense_mu_multiplicativity_check(S)
        assert ts.mu_multiplicativity_check(S) == want, S
        violations += not want[0]
    assert violations > 50


def test_reachable_rejects_unknown_mode(nf3_split):
    with pytest.raises(ValueError):
        ts.reachable(nf3_split, 1, "dense")
    with pytest.raises(ValueError):
        ts.partition(nf3_split, "dense")


@pytest.mark.parametrize("mode", MODES)
def test_reachable_and_validate_witness_refuse_indices_outside_the_basis(mode):
    S = ts.split_system(ts.construct_system(3, [(1, 1, 1, 1, 3)]))
    for k in (0, -1, S.sys.dim + 1):
        with pytest.raises(IndexError):
            ts.reachable(S, k, mode)
        assert not ts.validate_witness(S, ts.ConnectionWitness((plain(k),), k))
        assert not ts.validate_witness(S, ts.ConnectionWitness((plain(1), plain(1), plain(1)), k))
        assert not ts.validate_witness(S, ts.ConnectionWitness((plain(k), plain(1), plain(1)), 3))


# --- one step scan per split --------------------------------------------------------


def test_shared_scan_matches_per_mode_reference():
    # the entry pass keeps each step once, as p <= q
    splits = random_split_systems(221, 150, max_dim=6, max_entries=6)
    splits += [split(T) for T in random_verified_corpus(222, 60, max_dim=8)]
    splits += random_arbitrary_splits(223, 600)
    for S in splits:
        found = ts.connect._scan_entries(S)
        for mode in MODES:
            steps, faults = reference_steps(S, mode)
            assert not faults, (S, mode)
            got: dict[int, set] = {}
            for x, b, p, q, y in found[mode]:
                assert p <= q, (S, mode)
                got.setdefault(x, set()).add(((b, p, q), y))
            for x in range(1, S.sys.dim + 1):
                want = {((b, p, q), y) for (b, p, q), y in steps.get(x, ()) if p <= q}
                assert got.get(x, set()) == want, (S, mode, x)


def reference_partition(S, mode):
    """Classes of the reference steps' closure, by breadth-first search over both directions."""
    steps, _ = reference_steps(S, mode)
    adjacency = {i: set() for i in range(1, S.sys.dim + 1)}
    for x, out in steps.items():
        for _, y in out:
            adjacency[x].add(y)
            adjacency[y].add(x)
    classes, seen = [], set()
    for start in adjacency:
        if start not in seen:
            comp, frontier = {start}, [start]
            while frontier:
                frontier = [y for x in frontier for y in adjacency[x] if y not in comp]
                comp.update(frontier)
            seen |= comp
            classes.append(tuple(sorted(comp)))
    return tuple(classes)


def reference_mu_check(S):
    """The first unrealized restricted step of the reference scan, source by source."""
    steps, _ = reference_steps(S, "restricted")
    for t1 in range(1, S.sys.dim + 1):
        for (b, p, q), t2 in steps.get(t1, ()):
            if not any(S.sys.table.get(key, (0, None))[1] == t2 for key in ((t1, p, q), (t1, q, p))):
                return False, ts.MuViolation(t1, (ts.MarkedIndex(p, b), ts.MarkedIndex(q, b)), t2)
    return True, None


def test_entry_pass_matches_reference_steps_and_dense_check():
    # partitions and first mu violations from the one entry pass against the ordered
    # per-mode reference scan and the dense pointwise mu scan
    splits = random_split_systems(231, 500, max_dim=6, max_entries=7)
    splits += [split(T) for T in random_verified_corpus(232, 300, max_dim=8)]
    splits += random_arbitrary_splits(233, 1200, max_dim=6, max_entries=7)
    violated = 0
    for S in splits:
        for mode in MODES:
            want = reference_partition(S, mode)
            assert ts.partition(S, mode).classes == want, (S, mode)
            if mode == "literal":
                assert want == oracle_hyperedge_components(S.sys), S
        want = dense_mu_multiplicativity_check(S)
        assert reference_mu_check(S) == want, S
        assert ts.mu_multiplicativity_check(S) == want, S
        violated += not want[0]
    assert len(splits) >= 1000 and violated >= 300, (len(splits), violated)


def test_memo_leaves_fields_equality_hash_and_repr_alone():
    for S in random_split_systems(224, 40) + random_arbitrary_splits(225, 40):
        fresh = ts.SplitSystem(S.sys, S.iset, S.mode)
        before = ([f.name for f in dataclasses.fields(S)], hash(S), repr(S))
        for mode in MODES:
            ts.partition(S, mode)
            ts.reachable(S, 1, mode)
        ts.mu_multiplicativity_check(S)
        assert S.jset == tuple(i for i in range(1, S.sys.dim + 1) if i not in S.iset)
        assert {"_entry_pass", "_ordered_steps_literal", "_ordered_steps_restricted", "jset"} <= set(vars(S))
        assert ([f.name for f in dataclasses.fields(S)], hash(S), repr(S)) == before
        assert S == fresh and fresh == S and hash(fresh) == hash(S)
        assert dataclasses.replace(S) == S


def test_scan_and_partitions_are_computed_once_per_split(monkeypatch):
    orderings, passes, partitions = [], [], []
    order, entry_pass, compute = ts.connect._ordered_steps, ts.connect._scan_entries, ts.connect._partition
    monkeypatch.setattr(ts.connect, "_ordered_steps", lambda S, mode: orderings.append(mode) or order(S, mode))
    monkeypatch.setattr(ts.connect, "_scan_entries", lambda S: passes.append(S) or entry_pass(S))
    monkeypatch.setattr(ts.connect, "_partition", lambda S, mode: partitions.append(mode) or compute(S, mode))
    for S in lemma_corpus() + random_split_systems(226, 30):
        orderings.clear()
        passes.clear()
        partitions.clear()
        for _ in range(2):
            for mode in MODES:
                ts.partition(S, mode)
                ts.reachable(S, 1, mode)
                ts.is_minimal(S, mode)
            ts.mu_multiplicativity_check(S)
            ts.check_decomposition(S, "literal")
        assert len(passes) == 1
        assert orderings == partitions == list(MODES)
