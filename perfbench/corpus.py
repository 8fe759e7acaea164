"""Seeded input corpora for the benchmark, built without calling trisys.

Every generated system is a `System`: a dimension, table entries
(i, j, k, coeff, target) and, for verified systems, the index set of its
deviation ideal as known by construction.  Verified systems are relabeled
direct sums of blocks whose identities and deviation ideals are known:

- the two Jacobson Lie triple systems (deviation ideal 0);
- the null-filiform lift {e_i, e_1, e_1} = e_{i+2}, whose deviation ideal is
  spanned by e_3 .. e_n (g(1,i,1) = {i,1,1} = e_{i+2});
- the mutual pair {v_2, u_1, u_1} = c1 v_3, {v_3, u_1, u_1} = c2 v_2, whose
  deviation ideal is span{v_2, v_3};
- zero blocks.

A direct sum has no products across blocks, so its identities hold blockwise
and its deviation ideal is the sum of the blocks' ideals.

Dense tables are random but always hold, for every basis index m, an entry
at a key (j, j, i) targeting m.  The generator g(i, j, j) = {j, j, i} then
puts every basis vector into the deviation ideal, so the ideal is the whole
space and the split is refused (a nonzero product with the ideal in slot 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

SPARSE_COEFFS = (-2, -1, 1, 2)
DENSE_COEFFS = (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))


@dataclass(frozen=True)
class System:
    dim: int
    entries: tuple[tuple[int, int, int, Fraction, int], ...]
    iset: tuple[int, ...] | None = None  # deviation-ideal indices, when known

    def text(self) -> str:
        lines = [f"dim {self.dim}"]
        lines += [f"prod {i} {j} {k} = {_rat(c)} * {m}" for i, j, k, c, m in sorted(self.entries)]
        return "\n".join(lines) + "\n"

    def components(self) -> list[tuple[int, ...]]:
        """Connected components of the hypergraph with one edge {i,j,k,m} per entry."""
        parent = list(range(self.dim + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, k, _, m in self.entries:
            for y in (j, k, m):
                a, b = find(i), find(y)
                if a != b:
                    parent[max(a, b)] = min(a, b)
        groups: dict[int, list[int]] = {}
        for x in range(1, self.dim + 1):
            groups.setdefault(find(x), []).append(x)
        return sorted(tuple(g) for g in groups.values())


def _rat(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# --- verified blocks ----------------------------------------------------------


def jacobson_a() -> System:
    return System(2, ((1, 2, 1, Fraction(1), 2), (2, 1, 1, Fraction(-1), 2)), ())


def jacobson_b() -> System:
    return System(
        2,
        (
            (1, 2, 1, Fraction(2), 1),
            (2, 1, 1, Fraction(-2), 1),
            (1, 2, 2, Fraction(-2), 2),
            (2, 1, 2, Fraction(2), 2),
        ),
        (),
    )


def nf_lift(n: int) -> System:
    entries = tuple((i, 1, 1, Fraction(1), i + 2) for i in range(1, n - 1))
    return System(n, entries, tuple(range(3, n + 1)))


def mutual_pair(c1: int, c2: int) -> System:
    return System(3, ((2, 1, 1, Fraction(c1), 3), (3, 1, 1, Fraction(c2), 2)), (2, 3))


def zero(n: int) -> System:
    return System(n, (), ())


def block_sum(blocks: list[System]) -> System:
    entries = []
    iset = []
    offset = 0
    for b in blocks:
        entries += [(i + offset, j + offset, k + offset, c, m + offset) for i, j, k, c, m in b.entries]
        iset += [i + offset for i in b.iset]
        offset += b.dim
    return System(offset, tuple(entries), tuple(iset))


def relabel(rng: random.Random, s: System) -> System:
    images = list(range(1, s.dim + 1))
    rng.shuffle(images)
    p = dict(zip(range(1, s.dim + 1), images))
    entries = tuple((p[i], p[j], p[k], c, p[m]) for i, j, k, c, m in s.entries)
    iset = None if s.iset is None else tuple(sorted(p[i] for i in s.iset))
    return System(s.dim, entries, iset)


def random_blocks(rng: random.Random, dim: int, max_block: int = 6) -> list[System]:
    """Blocks of exactly `dim` indices in total, mostly nonzero."""
    blocks = []
    room = dim
    while room:
        choices = [zero(rng.randint(1, min(2, room)))]
        if room >= 2:
            choices += [jacobson_a(), jacobson_b()]
        if room >= 3:
            choices += [
                mutual_pair(rng.choice(SPARSE_COEFFS), rng.choice(SPARSE_COEFFS)),
                nf_lift(rng.randint(3, min(max_block, room))),
                nf_lift(rng.randint(3, min(max_block, room))),
            ]
        block = rng.choice(choices)
        blocks.append(block)
        room -= block.dim
    return blocks


def verified_system(rng: random.Random, dim: int, kind: str) -> System:
    """kind: 'blocks' (relabeled block sum), 'nf_lift' or 'empty'."""
    if kind == "blocks":
        base = block_sum(random_blocks(rng, dim))
    elif kind == "nf_lift":
        base = nf_lift(dim)
    elif kind == "empty":
        base = zero(dim)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return relabel(rng, base)


def dense_table(rng: random.Random, dim: int, n_entries: int) -> System:
    """Random table with n_entries keys, covering every target through a (j, j, i) key."""
    diag = [(j, j, i) for j in range(1, dim + 1) for i in range(1, dim + 1)]
    cover = rng.sample(diag, dim)
    taken = set(cover)
    rest = [
        (i, j, k)
        for i in range(1, dim + 1)
        for j in range(1, dim + 1)
        for k in range(1, dim + 1)
        if (i, j, k) not in taken
    ]
    keys = [(key, m) for key, m in zip(cover, range(1, dim + 1))]
    keys += [(key, rng.randint(1, dim)) for key in rng.sample(rest, n_entries - dim)]
    entries = tuple((i, j, k, rng.choice(DENSE_COEFFS), m) for (i, j, k), m in keys)
    return System(dim, entries, None)
