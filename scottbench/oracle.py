"""Reference answers computed without the package under test.

Nothing here imports ``scottgroups``.  Each oracle works from the way an
input was built or from arithmetic of its own:

* free groups: Stallings folding decides whether an n-tuple generates F_n
  (a basis, F_n being Hopfian), and Nielsen certificates are replayed with
  a free reduction written here;
* the infinite dihedral group: elements as (translation, flip) in Z ⋊ Z/2;
* subgroups of Q: a sieve, trial-division factorisation and the default
  rule evaluated on prime indices;
* finitely generated abelian groups: prime-power multisets;
* group tables: built from their construction (direct sums of cyclic
  groups, dihedral groups), with a random relabelling of the elements.
"""

from __future__ import annotations

import bisect
import math
import random

INF = math.inf

# ---------------------------------------------------------------------------
# Free groups: words are tuples of (generator, ±1)
# ---------------------------------------------------------------------------


def free_reduce(letters) -> tuple:
    out: list = []
    for g, e in letters:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def free_inverse(w: tuple) -> tuple:
    return tuple((g, -e) for g, e in reversed(w))


def random_word(rng: random.Random, rank: int, length: int) -> tuple:
    out: list = []
    while len(out) < length:
        letter = (rng.randrange(rank), rng.choice((1, -1)))
        if not out or out[-1] != (letter[0], -letter[1]):
            out.append(letter)
    return tuple(out)


def generates_free_group(rank: int, words) -> bool:
    """Stallings folding: the words generate F_rank exactly when the folded
    graph of their petals is one vertex carrying every generator."""
    parent: list[int] = [0]
    edges: list[tuple[int, int, int]] = []  # (source, generator, target)
    for w in words:
        if not w:
            continue
        at = 0
        for pos, (g, e) in enumerate(w):
            nxt = 0 if pos == len(w) - 1 else len(parent)
            if nxt:
                parent.append(nxt)
            edges.append((at, g, nxt) if e == 1 else (nxt, g, at))
            at = nxt

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    changed = True
    while changed:
        changed = False
        out_edge: dict = {}
        in_edge: dict = {}
        for s, g, t in edges:
            s, t = find(s), find(t)
            for table, key, other in ((out_edge, (s, g), t), (in_edge, (t, g), s)):
                seen = table.setdefault(key, other)
                if find(seen) != find(other):
                    parent[find(seen)] = find(other)
                    changed = True
    vertices = {find(v) for v in range(len(parent))}
    labels = {g for _, g, _ in edges}
    return len(vertices) == 1 and labels == set(range(rank))


def apply_nielsen(words: tuple, move) -> tuple:
    """Apply a move given as ("permute", perm) | ("invert", i) | ("rmul", i, j)."""
    ws = list(words)
    if move[0] == "permute":
        ws = [ws[move[1][i]] for i in range(len(ws))]
    elif move[0] == "invert":
        ws[move[1]] = free_inverse(ws[move[1]])
    else:
        _, i, j = move
        ws[i] = free_reduce(ws[i] + ws[j])
    return tuple(ws)


def random_moves(rng: random.Random, rank: int, count: int) -> list:
    moves = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            perm = list(range(rank))
            rng.shuffle(perm)
            moves.append(("permute", tuple(perm)))
        elif kind == 1:
            moves.append(("invert", rng.randrange(rank)))
        else:
            i, j = rng.sample(range(rank), 2)
            moves.append(("rmul", i, j))
    return moves


def basis(rank: int) -> tuple:
    return tuple(((i, 1),) for i in range(rank))


# ---------------------------------------------------------------------------
# The infinite dihedral group as Z ⋊ Z/2
# ---------------------------------------------------------------------------


def dinf_element(word: str) -> tuple[int, int]:
    """(translation, flip) of a word over a = (0, 1), b = (1, 1)."""
    t, f = 0, 0
    for ch in word:
        shift = 0 if ch == "a" else 1
        t, f = t + (-shift if f else shift), 1 - f
    return t, f


def dinf_generates(u: str, v: str) -> bool:
    (t1, f1), (t2, f2) = dinf_element(u), dinf_element(v)
    if f1 and f2:
        return abs(t1 - t2) == 1
    if f1 != f2:
        return abs(t2 if f1 else t1) == 1
    return False


def dinf_primitive(u: str, v: str) -> bool:
    """Aut(D∞)-orbit of (a, b): two reflections that generate."""
    return dinf_element(u)[1] == 1 and dinf_element(v)[1] == 1 and dinf_generates(u, v)


def alternating(start: str, length: int) -> str:
    other = "b" if start == "a" else "a"
    return "".join(start if i % 2 == 0 else other for i in range(length))


# ---------------------------------------------------------------------------
# Primes and rank-1 characteristics
# ---------------------------------------------------------------------------


class Primes:
    """A sieve up to a fixed limit, with prime indices by bisection."""

    def __init__(self, limit: int):
        flags = bytearray([1]) * (limit + 1)
        flags[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p::p] = bytearray(len(flags[p * p::p]))
        self.list = [n for n in range(limit + 1) if flags[n]]

    def index(self, p: int) -> int:
        i = bisect.bisect_left(self.list, p)
        if i == len(self.list) or self.list[i] != p:
            raise ValueError(f"{p} is not a prime under the sieve limit")
        return i

    def between(self, lo: int, hi: int) -> list[int]:
        return self.list[bisect.bisect_left(self.list, lo):bisect.bisect_right(self.list, hi)]


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def rule_value(rule, index: int):
    """Rules in the package's JSON form: "zero" | "inf" | {"linear": [a, b]}
    | {"residue": [rule, ...]}."""
    if rule == "zero":
        return 0
    if rule == "inf":
        return INF
    if "linear" in rule:
        a, b = rule["linear"]
        return a * index + b
    subs = rule["residue"]
    return rule_value(subs[index % len(subs)], index)


def char_exponent(char_json: dict, p: int, primes: Primes):
    exc = char_json.get("exceptions", {})
    if str(p) in exc:
        v = exc[str(p)]
        return INF if v == "inf" else v
    return rule_value(char_json["default"], primes.index(p))


def char_contains(char_json: dict, num: int, den: int, primes: Primes) -> bool:
    g = math.gcd(num, den)
    return all(k <= char_exponent(char_json, p, primes)
               for p, k in factorize(den // g).items())


# ---------------------------------------------------------------------------
# Finite abelian groups and group tables
# ---------------------------------------------------------------------------


def prime_power_multiset(orders) -> list[tuple[int, int]]:
    out = []
    for n in orders:
        out.extend(p ** e for p, e in factorize(n).items())
    return sorted(out)


def torsion_ok(orders, factors) -> bool:
    """Invariant factors: same product, a divisibility chain of factors
    >= 2, and the same prime-power components."""
    if math.prod(orders) != math.prod(factors):
        return False
    if any(d < 2 for d in factors):
        return False
    if any(b % a for a, b in zip(factors, factors[1:])):
        return False
    return prime_power_multiset(orders) == prime_power_multiset(factors)


def cyclic_sum_table(orders) -> list[list[int]]:
    elements = [()]
    for d in orders:
        elements = [e + (x,) for e in elements for x in range(d)]
    index = {e: i for i, e in enumerate(elements)}
    return [[index[tuple((x + y) % d for x, y, d in zip(a, b, orders))] for b in elements]
            for a in elements]


def dihedral_table(n: int) -> list[list[int]]:
    """D_n of order 2n: elements r^i s^f with s r s = r^-1."""
    elements = [(i, f) for f in (0, 1) for i in range(n)]
    index = {e: k for k, e in enumerate(elements)}
    return [[index[((i1 + (i2 if f1 == 0 else -i2)) % n, f1 ^ f2)] for i2, f2 in elements]
            for i1, f1 in elements]


def relabel(rows: list[list[int]], rng: random.Random) -> list[list[int]]:
    """An isomorphic copy of a table under a random renaming of elements."""
    k = len(rows)
    perm = list(range(k))
    rng.shuffle(perm)
    out = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            out[perm[a]][perm[b]] = perm[rows[a][b]]
    return out
