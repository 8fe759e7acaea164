"""Replay the connection classes and mu violations that the CLI writes.

Every `decompose --json`, `minimal --json` and `report --json` document is
checked against its input text with entry-level predicates written out
here: the table is read from the `prod` lines, the split from the `split
--json` document of the same file and flags, and nothing is imported from
the connection or decomposition layers.

- The classes partition 1..dim, and each class is connected through the
  entries: two indices are adjacent when one entry holds both.
- Literal classes confine every entry: its four indices lie in one class.
- A mu violation names a restricted step (a jset pair) whose entry exists,
  and no product (t1, p, q) or (t1, q, p) targets t2.
- A split's iset and jset partition 1..dim; no entry with a factor in iset
  targets outside it, and no entry has slot 2 or 3 in iset.
- A counterexample ideal is nonempty, neither iset nor the whole index set,
  and closed: an entry with a factor in it targets it.

The `jideal` rows of the `jideal --json` and `report --json` documents are
checked as a certificate (McConnell et al., "Certifying algorithms",
Computer Science Review 5(2), 2011), with exact coefficients read from the
`prod` lines:

- The rows are in reduced row echelon form.
- Every generator {i,j,k} - {i,k,j} + {j,k,i} lies in their span, and the
  document counts the nonzero ones.
- Every product of a row with two basis vectors, in each slot, lies in their
  span, and `annihilation` says whether those in slots 2 and 3 all vanish.

Whether the span is the least such ideal is left to the oracle tests.
"""

from __future__ import annotations

import io
import itertools
import json
import pathlib
import random
import re
import sys
from fractions import Fraction

import trisys as ts
from trisys.cli import run_command
from conftest import (
    COEFFS,
    block_sum,
    make_jacobson_a,
    make_jacobson_b,
    make_nf3_lift,
    permute_system,
    random_arbitrary_draws,
    random_broken_tables,
    random_split_systems,
    random_verified_corpus,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the benchmark's seeded corpora)

MODES = ("literal", "restricted")

# the inputs of the acceptance suite's CLI criterion that split
_ACCEPTANCE_TEXTS = (
    "dim 2\nprod 1 2 1 = 1 * 2\nprod 2 1 1 = -1 * 2\n",
    "dim 3\nprod 1 1 1 = 1 * 3\n",
    "dim 4\nprod 3 4 3 = 1 * 1\nprod 4 3 3 = 1 * 2\n",
)


def read_table(text):
    """(dim, {(i, j, k): target}) from the input's `dim` and `prod i j k = c * m` lines."""
    dim, table = 0, {}
    for line in text.splitlines():
        words = line.split()
        if words[:1] == ["dim"]:
            dim = int(words[1])
        elif words[:1] == ["prod"]:
            table[tuple(map(int, words[1:4]))] = int(words[7])
    return dim, table


def check_classes(dim, table, classes, literal):
    assert sorted(x for cls in classes for x in cls) == list(range(1, dim + 1)), classes
    together = {x: set() for x in range(1, dim + 1)}
    for key, m in table.items():
        held = {*key, m}
        for x in held:
            together[x] |= held
    for cls in classes:
        members = set(cls)
        reached, frontier = {cls[0]}, [cls[0]]
        while frontier:
            frontier = [y for x in frontier for y in together[x] & members if y not in reached]
            reached.update(frontier)
        assert reached == members, (cls, table)
    if literal:
        owner = {x: n for n, cls in enumerate(classes) for x in cls}
        for key, m in table.items():
            assert len({owner[x] for x in (*key, m)}) == 1, (key, m, classes)


_VIOLATION = re.compile(r"t1=(\d+) pair=\((\d+)('?),(\d+)('?)\) t2=(\d+)")


def check_mu_violation(table, iset, jset, section):
    """Replay the section's mu violation; returns 'plain', 'barred' or None when there is none."""
    if section["mu_multiplicative"]:
        assert section["mu_violation"] is None
        return None
    t1, p, p_bar, q, q_bar, t2 = _VIOLATION.fullmatch(section["mu_violation"]).groups()
    t1, p, q, t2 = int(t1), int(p), int(q), int(t2)
    assert p_bar == q_bar and p in jset and q in jset, section
    assert table.get((t1, p, q)) != t2 and table.get((t1, q, p)) != t2, section
    if not p_bar:
        # a plain step: an entry keyed by a permutation of (t1, p, q) targets t2
        assert any(table.get(key) == t2 for key in itertools.permutations((t1, p, q))), section
        return "plain"
    # a barred step: an entry targets t1 with t2 in one slot and p, q in the other two
    assert any(
        m == t1
        and key[s] == t2
        and sorted(key[:s] + key[s + 1:]) == sorted((p, q))
        and (t2 in jset or (s == 0 and t1 in iset and t2 in iset))
        for key, m in table.items()
        for s in range(3)
    ), section
    return "barred"


def check_split(dim, table, section):
    iset, jset = set(section["iset"]), set(section["jset"])
    assert sorted(section["iset"] + section["jset"]) == list(range(1, dim + 1)), section
    for (i, j, k), m in table.items():
        assert m in iset or not iset & {i, j, k}, (section, (i, j, k), m)
        assert j not in iset and k not in iset, (section, (i, j, k), m)
    return iset, jset


def check_counterexample(dim, table, iset, ideal):
    members = set(ideal)
    assert members and members != iset and len(members) < dim, ideal
    for key, m in table.items():
        assert m in members or not members & set(key), (ideal, key, m)


def read_products(text):
    """{(i, j, k): (c, m)} from the input's `prod i j k = c * m` lines, with exact coefficients."""
    lines = [line.split() for line in text.splitlines()]
    return {tuple(map(int, w[1:4])): (Fraction(w[5]), int(w[7])) for w in lines if w[:1] == ["prod"]}


def in_span(pivots, rows, vector):
    """Is the sparse vector in the span of the rows?  Reduce it against their unit pivots."""
    rest = dict(vector)
    for p, row in zip(pivots, rows):
        c = rest.get(p, 0)
        if c:
            for x, a in row.items():
                rest[x] = rest.get(x, 0) - c * a
    return not any(rest.values())


def check_jideal(dim, products, section):
    assert section["rank"] == len(section["rows"]) and all(len(row) == dim for row in section["rows"]), section
    rows = [{x: c for x, c in enumerate(map(Fraction, row), 1) if c} for row in section["rows"]]
    assert all(rows), section
    # reduced row echelon form: ascending unit pivots, each alone in its column
    pivots = [min(row) for row in rows]
    assert pivots == sorted(set(pivots)), section
    for n, p in enumerate(pivots):
        assert rows[n][p] == 1 and all(p not in row for row in rows[:n] + rows[n + 1:]), section
    # a generator can be nonzero only at a triple one of whose three terms is an entry
    generators = 0
    for i, j, k in {t for i, j, k in products for t in ((i, j, k), (i, k, j), (k, i, j))}:
        g = {}
        for sign, key in ((1, (i, j, k)), (-1, (i, k, j)), (1, (j, k, i))):
            if key in products:
                c, m = products[key]
                g[m] = g.get(m, 0) + sign * c
        if any(g.values()):
            generators += 1
            assert in_span(pivots, rows, g), ((i, j, k), g, section)
    assert section["generators"] == generators, section
    # an entry adds row[key[s]] * c at m to the product of the row in slot s with the key's other two slots
    annihilates = True
    for s, row in itertools.product(range(3), rows):
        by_pair = {}
        for key, (c, m) in products.items():
            if key[s] in row:
                out = by_pair.setdefault(key[:s] + key[s + 1:], {})
                out[m] = out.get(m, 0) + row[key[s]] * c
        for pair, w in by_pair.items():
            assert in_span(pivots, rows, w), (s, row, pair, w, section)
            annihilates = annihilates and (s == 0 or not any(w.values()))
    assert section["annihilation"] == annihilates, section


def run(argv):
    out = io.StringIO()
    code = run_command(argv, out=out, err=io.StringIO())
    return code, out.getvalue()


def replay_documents(path, text, flags, commands, seen):
    """Check each command's --json document in both modes; seen counts what was checked."""
    code, out = run(["split", "--json", *flags, path])
    if code != 0:
        return
    dim, table = read_table(text)
    iset, jset = check_split(dim, table, json.loads(out))
    seen["split"] += 1
    for mode, command in itertools.product(MODES, commands):
        doc = json.loads(run([command, "--json", "--mode", mode, *flags, path])[1])
        for name, section in doc.items() if command == "report" else [(command, doc)]:
            if name == "jideal":
                check_jideal(dim, read_products(text), section)
                seen["jideal"] += 1
            elif name == "split" and "iset" in section:
                assert check_split(dim, table, section) == (iset, jset)
            elif name == "decompose" and "classes" in section:
                check_classes(dim, table, section["classes"], mode == "literal")
                seen[f"classes {mode}"] += 1
            elif name == "minimal" and "mu_violation" in section:
                seen[f"violation {check_mu_violation(table, iset, jset, section)}"] += 1
                if section["counterexample_ideal"] is not None:
                    check_counterexample(dim, table, iset, section["counterexample_ideal"])
                    seen["counterexample"] += 1


def corpus_systems():
    """The catalog systems, the acceptance lemma corpus and the conftest corpora."""
    systems = [make_jacobson_a(), make_jacobson_b(), make_nf3_lift()]
    systems += [S.sys for S in random_split_systems(211, 130, max_dim=5)]  # the acceptance lemma corpus
    systems += random_verified_corpus(223, 80, max_dim=5)
    systems += [S.sys for S in random_split_systems(241, 120, max_dim=6, max_entries=6)]
    systems += random_verified_corpus(242, 60, max_dim=8)
    return systems


def test_classes_and_mu_violations_replay(tmp_path):
    seen = dict.fromkeys(
        (
            "split", "jideal", "classes literal", "classes restricted", "violation None", "violation plain",
            "violation barred", "counterexample",
        ),
        0,
    )
    inputs = [(text, ()) for text in _ACCEPTANCE_TEXTS]
    inputs += [(ts.serialize_system(T), ()) for T in corpus_systems()]
    # ISETs drawn raw: most are refused, which keeps the CLI's NotAdmissible documents covered
    inputs += [
        (ts.serialize_system(T), ("--generic", ",".join(map(str, iset))))
        for T, iset in random_arbitrary_draws(243, 300)
        if iset
    ]
    for n, (text, flags) in enumerate(inputs):
        path = tmp_path / f"c{n}.lts"
        path.write_text(text, encoding="utf-8")
        replay_documents(str(path), text, flags, ("decompose", "minimal", "report"), seen)
    bench = [(op, "report") for op in workloads.build_ops(workloads.WORKLOADS["report-sparse"], 1)]
    bench += [(op, op.argv[0]) for op in workloads.build_ops(workloads.WORKLOADS["structure-wide"], 1)]
    for op, command in bench:
        path = tmp_path / f"{op.key}.tri"
        text = op.system.text()
        path.write_text(text, encoding="utf-8")
        replay_documents(str(path), text, op.argv[1:], (command,), seen)
    assert min(seen.values()) >= 50 and seen["classes literal"] >= 800, seen


def test_jideal_rows_certify_the_deviation_ideal(tmp_path):
    systems = corpus_systems() + random_broken_tables(251, 150) + [T for T, _ in random_arbitrary_draws(243, 300)]
    # beside a verified block, relabelled: the unadapted system, whose ideal span{c1 e1 + c2 e2} no basis
    # subset spans, and a system whose generator span{c2 e1 + c1 e2} is no ideal, so the closure grows
    rng = random.Random(252)
    for n, T in enumerate(random_verified_corpus(253, 80, max_dim=5)):
        c1, c2 = rng.choice(COEFFS), rng.choice(COEFFS)
        entries = [(3, 4, 3, c1, 1), (4, 3, 3, c2, 2)] if n % 2 else [(1, 2, 2, c1, 2), (2, 1, 2, c2, 1)]
        summed = block_sum(ts.construct_system(4 if n % 2 else 2, entries), T)
        ids = list(range(1, summed.dim + 1))
        systems.append(permute_system(summed, dict(zip(ids, rng.sample(ids, len(ids))))))
    texts = [*_ACCEPTANCE_TEXTS, *map(ts.serialize_system, systems)]
    texts += [op.system.text() for workload in workloads.WORKLOADS.values() for op in workloads.build_ops(workload, 1)]
    seen = {"zero": 0, "basis rows": 0, "other rows": 0}
    for n, text in enumerate(dict.fromkeys(texts)):
        path = tmp_path / f"j{n}.tri"
        path.write_text(text, encoding="utf-8")
        code, out = run(["jideal", "--json", str(path)])
        assert code == 0, text
        section = json.loads(out)
        check_jideal(section["dim"], read_products(text), section)
        units = [row.count("0") == len(row) - 1 for row in section["rows"]]
        seen["zero" if not units else "basis rows" if all(units) else "other rows"] += 1
    assert min(seen.values()) >= 30, seen
