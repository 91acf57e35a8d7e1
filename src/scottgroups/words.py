"""Free-group words, elementary Nielsen moves, and tuple primitivity.

Words are stored as reduced sequences of (generator index, ±1) letters.  An
n-tuple of words is primitive when some composition of elementary Nielsen
moves (permute, invert, right-multiply) carries it to the identity basis
(x0, ..., x{n-1}).  The decision procedure performs length-nonincreasing
Nielsen reduction: greedy descent over strictly shortening moves, and at a
local minimum a bounded breadth-first search through length-preserving move
compositions, the depth bound being the current total word length.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from . import record

Letter = tuple[int, int]

_ALIASES = {"a": 0, "b": 1, "c": 2}


@record
class FreeWord:
    """A reduced word over generators x0..x{rank-1}."""

    rank: int
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        prev = None
        for g, e in self.letters:
            if not 0 <= g < self.rank:
                raise ValueError(f"generator index {g} out of range for rank {self.rank}")
            if e not in (1, -1):
                raise ValueError("exponent must be +1 or -1")
            if prev is not None and prev == (g, -e):
                raise ValueError("word is not reduced")
            prev = (g, e)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return reduce(self.letters + other.letters, self.rank)

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, tuple((g, -e) for g, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters


def reduce(letters: Iterable[Letter], rank: int) -> FreeWord:
    """Freely reduce a raw letter sequence; idempotent.

    >>> reduce([(0, 1), (0, -1), (1, 1)], 2).letters
    ((1, 1),)
    """
    stack: list[Letter] = []
    for g, e in letters:
        if not 0 <= g < rank:
            raise ValueError(f"generator index {g} out of range for rank {rank}")
        if e not in (1, -1):
            raise ValueError("exponent must be +1 or -1")
        if stack and stack[-1] == (g, -e):
            stack.pop()
        else:
            stack.append((g, e))
    return FreeWord(rank, tuple(stack))


def identity_word(rank: int) -> FreeWord:
    return FreeWord(rank, ())


def generator(rank: int, i: int, exponent: int = 1) -> FreeWord:
    return FreeWord(rank, ((i, exponent),))


# ---------------------------------------------------------------------------
# Text and JSON forms
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*\*?\s*(x(\d+)|[abc]|1)(\^-1)?")


def parse_word(text: str, rank: int) -> FreeWord:
    """Parse ``x0*x1^-1`` style text; ``a,b,c`` alias x0,x1,x2 for rank <= 3.

    The identity is spelled ``1``; the ``*`` separators are optional.
    """
    letters: list[Letter] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse word at {text[pos:]!r}")
        tok, digits, inv = m.group(1), m.group(2), m.group(3)
        if tok == "1":
            if inv:
                raise ValueError("the identity has no inverse suffix")
        else:
            if digits is not None:
                idx = int(digits)
            else:
                if rank > 3:
                    raise ValueError("letter aliases a,b,c only apply for rank <= 3")
                idx = _ALIASES[tok]
            letters.append((idx, -1 if inv else 1))
        pos = m.end()
    return reduce(letters, rank)


def format_word(w: FreeWord) -> str:
    if not w.letters:
        return "1"
    names = ["a", "b", "c"] if w.rank <= 3 else [f"x{i}" for i in range(w.rank)]
    return "".join(names[g] + ("" if e == 1 else "^-1") for g, e in w.letters)


def word_to_json(w: FreeWord) -> dict:
    return {"rank": w.rank, "letters": [[g, e] for g, e in w.letters]}


# ---------------------------------------------------------------------------
# Tuples and elementary moves
# ---------------------------------------------------------------------------

@record
class WordTuple:
    """A tuple of reduced words sharing one rank."""

    rank: int
    words: tuple[FreeWord, ...]

    def __post_init__(self):
        for w in self.words:
            if w.rank != self.rank:
                raise ValueError("all words in a tuple must share the tuple's rank")

    @property
    def arity(self) -> int:
        return len(self.words)

    def total_length(self) -> int:
        return sum(len(w) for w in self.words)

    def key(self) -> tuple:
        return tuple(w.letters for w in self.words)


def word_tuple(rank: int, *texts: str) -> WordTuple:
    return WordTuple(rank, tuple(parse_word(t, rank) for t in texts))


class NielsenMove:
    """Base class for elementary Nielsen moves."""

    __slots__ = ()


@record
class Permute(NielsenMove):
    perm: tuple[int, ...]  # component i receives word perm[i]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a permutation")


@record
class Invert(NielsenMove):
    i: int


@record
class RightMultiply(NielsenMove):
    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("right-multiply requires distinct indices")


def apply_move(t: WordTuple, m: NielsenMove) -> WordTuple:
    """Apply one elementary move to a tuple with arity equal to its rank."""
    if t.arity != t.rank:
        raise ValueError("moves act on tuples whose arity equals the rank")
    ws = list(t.words)
    if isinstance(m, Permute):
        if len(m.perm) != t.rank:
            raise ValueError("permutation size must equal the rank")
        ws = [ws[m.perm[i]] for i in range(t.rank)]
    elif isinstance(m, Invert):
        if not 0 <= m.i < t.rank:
            raise ValueError("index out of range")
        ws[m.i] = ws[m.i].inverse()
    elif isinstance(m, RightMultiply):
        if not (0 <= m.i < t.rank and 0 <= m.j < t.rank):
            raise ValueError("index out of range")
        ws[m.i] = ws[m.i] * ws[m.j]
    else:
        raise TypeError(f"not a Nielsen move: {m!r}")
    return WordTuple(t.rank, tuple(ws))


def inverse_moves(m: NielsenMove) -> tuple[NielsenMove, ...]:
    """A composition of elementary moves undoing ``m``.

    Right-multiplication inverts as invert / right-multiply / invert, since
    only the positive product is elementary.
    """
    if isinstance(m, Permute):
        inv = [0] * len(m.perm)
        for i, p in enumerate(m.perm):
            inv[p] = i
        return (Permute(tuple(inv)),)
    if isinstance(m, Invert):
        return (m,)
    if isinstance(m, RightMultiply):
        return (Invert(m.j), RightMultiply(m.i, m.j), Invert(m.j))
    raise TypeError(f"not a Nielsen move: {m!r}")


@lru_cache(maxsize=None)
def _all_moves_cached(rank: int) -> tuple[NielsenMove, ...]:
    moves: list[NielsenMove] = [Permute(p) for p in permutations(range(rank))
                                if p != tuple(range(rank))]
    moves.extend(Invert(i) for i in range(rank))
    moves.extend(RightMultiply(i, j) for i in range(rank) for j in range(rank) if i != j)
    return tuple(moves)


def all_moves(rank: int) -> list[NielsenMove]:
    """Every elementary move for the given rank, in canonical order."""
    return list(_all_moves_cached(rank))


# ---------------------------------------------------------------------------
# Nielsen reduction and primitivity
# ---------------------------------------------------------------------------

def _is_permuted_basis(t: WordTuple) -> bool:
    if any(len(w) != 1 for w in t.words):
        return False
    return len({w.letters[0][0] for w in t.words}) == t.rank


def _canonical_basis_moves(t: WordTuple) -> list[NielsenMove]:
    """Moves turning a permuted/inverted basis into exactly (x0, ..., xn-1)."""
    moves: list[NielsenMove] = []
    current = t
    for i, w in enumerate(current.words):
        if w.letters[0][1] == -1:
            moves.append(Invert(i))
            current = apply_move(current, moves[-1])
    perm = tuple(w.letters[0][0] for w in current.words)
    if perm != tuple(range(t.rank)):
        # component i must receive the word currently holding generator i
        where = {g: i for i, g in enumerate(perm)}
        moves.append(Permute(tuple(where[i] for i in range(t.rank))))
    return moves


def _product_length(w1: FreeWord, w2: FreeWord) -> int:
    """Length of the reduced product, computed without building it."""
    a, b = w1.letters, w2.letters
    c = 0
    limit = min(len(a), len(b))
    while c < limit:
        g, e = b[c]
        if a[-1 - c] != (g, -e):
            break
        c += 1
    return len(a) + len(b) - 2 * c


def _first_reducing_move(t: WordTuple, moves: Sequence[NielsenMove]) -> NielsenMove | None:
    for m in moves:
        if isinstance(m, RightMultiply):  # the only length-changing kind
            old = len(t.words[m.i])
            if _product_length(t.words[m.i], t.words[m.j]) < old:
                return m
    return None


def _preserving_moves(t: WordTuple, moves: Sequence[NielsenMove]) -> Iterator[NielsenMove]:
    for m in moves:
        if isinstance(m, RightMultiply):
            if _product_length(t.words[m.i], t.words[m.j]) == len(t.words[m.i]):
                yield m
        else:
            yield m


def nielsen_reduce(t: WordTuple) -> tuple[WordTuple, list[NielsenMove]]:
    """Reduce a tuple to minimal total length; returns (tuple, move sequence).

    When the minimum is a basis up to permutation and inversion, trailing
    moves normalize it to exactly the identity basis.
    """
    if t.arity != t.rank:
        raise ValueError("nielsen_reduce requires arity equal to rank")
    moves = all_moves(t.rank)
    applied: list[NielsenMove] = []
    current = t
    while True:
        m = _first_reducing_move(current, moves)
        if m is not None:
            current = apply_move(current, m)
            applied.append(m)
            continue
        # local minimum: breadth-first over length-preserving compositions,
        # depth bounded by the current total word length
        found = _escape_plateau(current, moves)
        if found is None:
            break
        path, reducing = found
        for pm in path:
            current = apply_move(current, pm)
            applied.append(pm)
        current = apply_move(current, reducing)
        applied.append(reducing)
    if _is_permuted_basis(current):
        for m in _canonical_basis_moves(current):
            current = apply_move(current, m)
            applied.append(m)
    return current, applied


def _escape_plateau(t: WordTuple,
                    moves: Sequence[NielsenMove]) -> tuple[list[NielsenMove], NielsenMove] | None:
    bound = max(t.total_length(), 1)
    seen = {t.key()}
    frontier: list[tuple[WordTuple, list[NielsenMove]]] = [(t, [])]
    for _ in range(bound):
        nxt: list[tuple[WordTuple, list[NielsenMove]]] = []
        for tup, path in frontier:
            for m in _preserving_moves(tup, moves):
                cand = apply_move(tup, m)
                key = cand.key()
                if key in seen:
                    continue
                seen.add(key)
                reducing = _first_reducing_move(cand, moves)
                if reducing is not None:
                    return path + [m], reducing
                nxt.append((cand, path + [m]))
        if not nxt:
            return None
        frontier = nxt
    return None


def is_primitive(t: WordTuple) -> bool:
    """Whether some composition of elementary moves carries ``t`` to the basis."""
    if t.arity != t.rank:
        raise ValueError("primitivity is decided for tuples with arity equal to rank")
    return is_basis(nielsen_reduce(t)[0])


def is_basis(t: WordTuple) -> bool:
    """Whether ``t`` is exactly the identity basis (x0, ..., x{rank-1})."""
    return t.key() == tuple(((i, 1),) for i in range(t.rank))
