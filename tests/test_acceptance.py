"""Acceptance suite: one test per criterion, with a printed summary line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 1 carries two golden expectations (mu-multiplicativity
and a minimal verdict for the classical 2-dimensional systems) that the
exhaustive checks refute; that part is kept as a strict expected failure
rather than weakened, see the comments there.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import trisys as ts
from trisys import bar, barred, plain
from trisys.cli import run_command
from conftest import (
    COEFFS,
    block_sum,
    make_jacobson_a,
    make_jacobson_b,
    make_nf3_lift,
    make_nf_bracket,
    make_unadapted,
    minimality_oracle,
    oracle_hyperedge_components,
    oracle_ideal_closure,
    oracle_jideal_vectors,
    random_broken_tables,
    random_brackets,
    random_split_systems,
    random_table,
    random_verified_corpus,
    same_subspace,
)

_RESULTS: list[tuple[str, bool, str]] = []


def _record(criterion: str, ok: bool, note: str = "") -> None:
    _RESULTS.append((criterion, ok, note))


# --- shared corpora, built once ----------------------------------------------


def _catalog_splits():
    return [
        ts.split_system(make_jacobson_a()),
        ts.split_system(make_jacobson_b()),
        ts.split_system(make_nf3_lift()),
    ]


@pytest.fixture(scope="module")
def lemma_corpus():
    """Catalog plus at least 200 random split systems of dim <= 5 (raw and verified)."""
    systems = _catalog_splits()
    systems += random_split_systems(211, 130, max_dim=5)
    for T in random_verified_corpus(223, 80, max_dim=5):
        systems.append(ts.split_system(T))
    assert len(systems) >= 203
    return systems


@pytest.fixture(scope="module")
def verified_corpus():
    """At least 100 identity-verified systems, dim <= 6, density <= 0.15."""
    out = []
    rng_seed = 227
    batch = random_verified_corpus(rng_seed, 400, max_dim=6)
    for T in batch:
        if len(T.entries) <= 0.15 * T.dim**3:
            out.append(T)
        if len(out) >= 120:
            break
    assert len(out) >= 100
    return out


# --- criterion 1: golden 2-dimensional examples --------------------------------


def test_c1_golden_examples_core():
    start = time.perf_counter()
    for text, name in (
        ("dim 2\nprod 1 2 1 = 1 * 2\nprod 2 1 1 = -1 * 2\n", "jacobson_a"),
        (
            "dim 2\nprod 1 2 1 = 2 * 1\nprod 1 2 2 = -2 * 2\n"
            "prod 2 1 1 = -2 * 1\nprod 2 1 2 = 2 * 2\n",
            "jacobson_b",
        ),
    ):
        t0 = time.perf_counter()
        T = ts.parse_system(text)
        assert ts.check_identities(T, "both").ok, name
        S = ts.split_system(T)
        assert S.iset == (), name
        assert len(ts.partition(S, "literal").classes) == 1, name
        assert time.perf_counter() - t0 < 1.0, name
    _record(
        "1 (golden: parse, identities, zero ideal, one class, runtime)",
        True,
        f"{time.perf_counter() - start:.2f}s",
    )


# The remaining golden expectations say both systems are mu-multiplicative
# and minimal.  The exhaustive checks disagree: the relation 1 in mu(2,1',2')
# of the first system (realized by {u1,u2,u1}=u2) has no realizing product
# {u2,u1,u2} or {u2,u2,u1}, so the strict barred-pair condition fails; and
# span{v2} is a nonzero inherited ideal of the first system distinct from
# the zero deviation ideal and the whole space, so the subset oracle rules
# it not minimal.  Forcing these assertions green would contradict the
# criterion-5 equivalence below, so they stay as a strict expected failure.
@pytest.mark.xfail(
    strict=True,
    reason="golden mu-multiplicativity/minimality expectations contradict the exhaustive checks",
)
def test_c1_golden_examples_mu_and_minimality():
    _record(
        "1 (golden: mu-multiplicative and minimal verdicts)",
        False,
        "refuted by the barred-pair condition and the subset oracle",
    )
    for T in (make_jacobson_a(), make_jacobson_b()):
        S = ts.split_system(T)
        assert ts.mu_multiplicativity_check(S)[0]
        assert ts.is_minimal(S).verdict == "minimal"


# --- criterion 2: the NF_3 pipeline ----------------------------------------------


def test_c2_nf3_pipeline():
    t0 = time.perf_counter()
    L = ts.parse_leibniz("dim 3\nbrk 1 1 = 1 * 2\nbrk 2 1 = 1 * 3\n")
    T = ts.lift_from_leibniz(L)
    assert T.table == {(1, 1, 1): (Fraction(1), 3)}

    witness = ts.compute_jideal(T)
    assert witness.subspace.rows == (ts.basis_vector(3, 3),)
    assert ts.check_annihilation(T, witness.subspace)

    S = ts.split_system(T)
    assert ts.partition(S, "literal").classes == ((1, 3), (2,))

    report = ts.check_decomposition(S, "literal")
    assert report.ok

    ok, violation = ts.mu_multiplicativity_check(S)
    assert not ok
    assert violation == ts.MuViolation(3, (barred(1), barred(1)), 1)

    assert not minimality_oracle(S)
    assert ts.is_minimal(S).verdict == "not_minimal"

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _record("2 (NF_3 pipeline)", True, f"{elapsed:.2f}s")


# --- criterion 3: the lemma suite -------------------------------------------------


def _jbar_pool(S):
    return [plain(r) for r in S.jset] + [barred(r) for r in S.jset]


def test_c3_lemma_suite(lemma_corpus):
    rng = random.Random(229)
    failures = 0
    for S in lemma_corpus:
        n = S.sys.dim
        pool = _jbar_pool(S)
        indices = range(1, n + 1)
        # duality
        for h1, h2 in itertools.product(pool, pool):
            for k2 in indices:
                image = ts.mu(S, k2, h1, h2)
                for k1 in indices:
                    if (k1 in image) != (k2 in ts.mu(S, k1, bar(h1), bar(h2))):
                        failures += 1
        # phi duality on random subsets
        subsets = [frozenset(rng.sample(list(indices), rng.randint(0, n))) for _ in range(3)]
        for p, q in itertools.product(pool, pool):
            for K in subsets:
                image = ts.phi(S, K, p, q)
                for x in indices:
                    if (x in image) != bool(ts.phi(S, {x}, bar(p), bar(q)) & K):
                        failures += 1
        # permutation symmetry
        for k1, k2, k3 in itertools.product(indices, repeat=3):
            base = ts.mu(S, k1, plain(k2), plain(k3))
            for a, b, c in itertools.permutations((k1, k2, k3)):
                if ts.mu(S, a, plain(b), plain(c)) != base:
                    failures += 1
        for r1, r2 in itertools.product(S.jset, S.jset):
            for k in indices:
                if ts.mu(S, k, barred(r1), barred(r2)) != ts.mu(S, k, barred(r2), barred(r1)):
                    failures += 1
        # witness reversal over the reversible domain
        for k in indices:
            for witness in ts.reachable(S, k, "restricted").values():
                back = ts.reverse_connection(S, witness)
                if back.target != k or not ts.validate_witness(S, back):
                    failures += 1
    assert failures == 0
    _record("3 (lemma suite)", True, f"{len(lemma_corpus)} systems")


# --- criterion 4: the decomposition theorem ----------------------------------------


def test_c4_decomposition_theorem(verified_corpus):
    assert len(verified_corpus) >= 100
    for T in verified_corpus:
        assert T.dim <= 6
        assert len(T.entries) <= 0.15 * T.dim**3
        assert all(c in tuple(map(Fraction, COEFFS)) for _, _, _, c, _ in T.entries)
        assert ts.check_identities(T, "both").ok
        S = ts.split_system(T)
        report = ts.check_decomposition(S, "literal")
        assert report.ok
        assert all(report.ideal_flags)
        assert all(all(row) for row in report.orthogonality)
        assert report.covers
        assert ts.partition(S, "literal").classes == oracle_hyperedge_components(T)
    _record("4 (decomposition theorem property)", True, f"{len(verified_corpus)} systems")


# --- criterion 5: minimality criterion vs oracle -------------------------------------


def test_c5_minimality_criterion_equals_oracle(verified_corpus):
    catalog = [make_jacobson_a(), make_jacobson_b(), make_nf3_lift()]
    mu_count = 0
    for T in catalog + verified_corpus:
        S = ts.split_system(T)
        if not ts.mu_multiplicativity_check(S)[0]:
            continue
        mu_count += 1
        oracle = minimality_oracle(S)
        for mode in ("literal", "restricted"):
            verdict = ts.is_minimal(S, mode)
            assert verdict.mu_multiplicative
            assert not verdict.oracle_used
            criterion = verdict.i_connected and verdict.j_connected
            assert criterion == oracle, (T.entries, mode)
            assert (verdict.verdict == "minimal") == oracle
        # the final decomposition: every component re-verifies
        for comp in ts.check_decomposition(S).components:
            sub = ts.split_system(comp.subsystem)
            assert ts.mu_multiplicativity_check(sub)[0]
            assert ts.is_minimal(sub).verdict == "minimal"
    assert mu_count >= 20
    _record("5 (minimality criterion <=> oracle)", True, f"{mu_count} mu-multiplicative systems")


# --- criterion 6: lift correctness -----------------------------------------------------


def test_c6_lift_correctness():
    for n in range(3, 7):
        lifted = ts.lift_from_leibniz(make_nf_bracket(n))
        assert ts.check_identities(lifted, "both").ok
    brackets = random_brackets(233, 50)
    assert len(brackets) >= 50
    for L in brackets:
        lifted = ts.lift_from_leibniz(L)
        four = ts.check_identities(lifted, "four")
        two = ts.check_identities(lifted, "two")
        assert four.ok and two.ok
    # family agreement also on deliberately broken tables
    checked = 0
    for T in random_broken_tables(239, 25):
        four = ts.check_identities(T, "four")
        two = ts.check_identities(T, "two")
        assert bool(four.violations) == bool(two.violations)
        checked += 1
    for T in (make_jacobson_a(), make_jacobson_b(), make_nf3_lift()):
        assert ts.check_identities(T, "four").ok == ts.check_identities(T, "two").ok
    _record("6 (lift correctness, family agreement)", True, f"{len(brackets)} brackets, {checked} broken")


# --- criterion 7: closure oracle agreement ----------------------------------------------


def test_c7_closure_oracle(lemma_corpus, verified_corpus):
    systems = [S.sys for S in lemma_corpus[:60]] + verified_corpus[:60]
    systems += [make_jacobson_a(), make_jacobson_b(), make_nf3_lift(), make_unadapted()]
    rng = random.Random(241)
    for T in systems:
        assert T.dim <= 6
        assert same_subspace(ts.compute_jideal(T).subspace, oracle_jideal_vectors(T), T.dim)
        seeds = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(T.dim))
            for _ in range(rng.randint(1, 2))
        ]
        closed = ts.ideal_closure(T, ts.rowspace_from(T.dim, seeds)).subspace
        assert same_subspace(closed, oracle_ideal_closure(T, seeds), T.dim)
    _record("7 (ideal-closure oracle)", True, f"{len(systems)} systems")


# --- criterion 8: CLI round-trip and exit codes ------------------------------------------


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_c8_cli_roundtrip_and_exit_codes(tmp_path):
    rng = random.Random(251)
    for _ in range(100):
        dim = rng.randint(1, 6)
        T = random_table(rng, dim, rng.randint(0, 6))
        text = ts.serialize_system(T)
        assert ts.serialize_system(ts.parse_system(text)) == text

    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    ja = write("ja.lts", "dim 2\nprod 1 2 1 = 1 * 2\nprod 2 1 1 = -1 * 2\n")
    nf3t = write("nf3t.lts", "dim 3\nprod 1 1 1 = 1 * 3\n")
    broken = write("broken.lts", "dim 1\nprod 1 1 1 = 1 * 1\n")
    unadapted = write("na.lts", "dim 4\nprod 3 4 3 = 1 * 1\nprod 4 3 3 = 1 * 2\n")
    badbrk = write("bad.brk", "dim 1\nbrk 1 1 = 1 * 1\n")
    nf3brk = write("nf3.brk", "dim 3\nbrk 1 1 = 1 * 2\nbrk 2 1 = 1 * 3\n")
    syntax = write("syntax.lts", "dim 2\nprod 1 2 = 1 * 2\n")
    dup = write("dup.lts", "dim 2\nprod 1 1 1 = 1 * 2\nprod 1 1 1 = 1 * 2\n")
    zeroco = write("zero.lts", "dim 2\nprod 1 2 1 = 0 * 2\n")

    matrix = [
        (["verify", ja], 0),
        (["verify", nf3t], 0),
        (["jideal", nf3t], 0),
        (["split", nf3t], 0),
        (["decompose", nf3t], 0),
        (["minimal", nf3t], 0),
        (["lift-leibniz", nf3brk], 0),
        (["report", nf3t], 0),
        (["verify", broken], 1),
        (["split", unadapted], 1),
        (["report", unadapted], 1),
        (["lift-leibniz", badbrk], 1),
        (["verify", syntax], 2),
        (["verify", dup], 2),
        (["verify", zeroco], 2),
        (["verify", str(tmp_path / "missing.lts")], 2),
        (["verify", "--family", "nope", ja], 2),
        (["nonsense", ja], 2),
        (["verify", ja, nf3t], 2),
    ]
    for argv, expected in matrix:
        code, _, _ = _run(argv)
        assert code == expected, argv

    # machine-readable output parses back losslessly
    code, out, _ = _run(["report", "--json", nf3t])
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out
    _record("8 (CLI round-trip and exit codes)", True, f"{len(matrix)} fixtures")


# --- summary (keep last in file order) ----------------------------------------------------


def test_zz_acceptance_summary():
    expected = 8 + 1  # criterion 1 records two lines
    print("\nacceptance criteria:")
    for criterion, ok, note in _RESULTS:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({note})" if note else ""
        print(f"  criterion {criterion}: {status}{suffix}")
    assert len(_RESULTS) == expected
