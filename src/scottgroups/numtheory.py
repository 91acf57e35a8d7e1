"""Primes, primality, factoring, valuations and indexed enumerations: the
package's one arithmetic and enumeration layer.

Primes are read from a table filled by a sieve whose bound doubles on
demand, each growth sieving only the new segment with the primes already
known.  Index lookups (``nth_prime``, ``prime_index``) are table reads and
a bisection, and they are defined for primes below ``PRIME_INDEX_LIMIT``;
past it they raise ``ValueError`` instead of sieving without end.

Primality above the table's current bound is deterministic Miller–Rabin
(Jaeschke 1993) on the first twelve prime bases, exact for every n below
``MR_LIMIT`` = 2^64 (the twelve bases are in fact exact to 3.18·10^23, by
Jiang and Deng 2014).  ``factorize`` divides out the primes up to
``TRIAL_BOUND``, then splits what is left with Pollard's rho (Pollard 1975,
in Brent's form); that cofactor must lie below ``MR_LIMIT``.

``Enumeration`` indexes an iterator, computing each item once, from any
number of threads; each Scott-sentence family node reads its members
through one, as ``int_tuple`` reads the integer tuples.
"""

from __future__ import annotations

import math
import threading
from array import array
from bisect import bisect_left
from functools import lru_cache
from itertools import compress, count, islice, product
from typing import Iterable, Iterator

# the largest prime with an index here is the last prime below 2^24
# (the 1,077,871st prime, 16,777,213); the table then holds 8.6 MB
PRIME_INDEX_LIMIT = 1 << 24
TRIAL_BOUND = 1 << 12
MR_LIMIT = 1 << 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class PrimeTable:
    """The primes below a bound, the bound doubling whenever a read needs more."""

    def __init__(self):
        self._primes = array("L")
        self._bound = 2  # every prime below the bound is in the table

    def _cover(self, n: int) -> None:
        """Grow until the table holds every prime up to n (n < the limit)."""
        while self._bound <= n:
            lo, hi = self._bound, min(2 * self._bound, PRIME_INDEX_LIMIT)
            segment = bytearray(b"\x01") * (hi - lo)
            for p in self._primes:  # hi <= lo², so these primes suffice
                if p * p >= hi:
                    break
                start = max(p * p, -(-lo // p) * p) - lo
                segment[start::p] = bytes(len(range(start, hi - lo, p)))
            self._primes.extend(compress(range(lo, hi), segment))
            self._bound = hi

    def nth_prime(self, i: int) -> int:
        """0-indexed: nth_prime(0) == 2."""
        if i < 0:
            raise ValueError("prime indices are natural numbers")
        while len(self._primes) <= i:
            if self._bound >= PRIME_INDEX_LIMIT:
                raise ValueError(f"prime index {i} is past the last prime below "
                                 f"{PRIME_INDEX_LIMIT}")
            self._cover(self._bound)
        return self._primes[i]

    def prime_index(self, p: int) -> int:
        """Index of the prime p in 2, 3, 5, ...; ValueError for a non-prime."""
        if p >= PRIME_INDEX_LIMIT:
            raise ValueError(f"prime indices are kept for primes below "
                             f"{PRIME_INDEX_LIMIT}, not {p}")
        self._cover(p)
        i = bisect_left(self._primes, p)
        if i == len(self._primes) or self._primes[i] != p:
            raise ValueError(f"{p} is not prime")
        return i

    def is_prime(self, n: int) -> bool:
        if n < self._bound:
            i = bisect_left(self._primes, n)
            return i < len(self._primes) and self._primes[i] == n
        return _miller_rabin(n)

    def primes_upto(self, bound: int) -> list[int]:
        """The primes p <= bound, in increasing order."""
        if bound < 2:
            return []
        if bound >= PRIME_INDEX_LIMIT:
            raise ValueError(f"primes are listed below {PRIME_INDEX_LIMIT}, not to {bound}")
        self._cover(bound)
        return list(self._primes[:bisect_left(self._primes, bound + 1)])

    def primes(self) -> Iterator[int]:
        """2, 3, 5, ... read from the table; ValueError past the index limit."""
        for i in count():
            yield self.nth_prime(i)

    def factorize(self, n: int) -> Iterator[tuple[int, int]]:
        """The prime factorization of n >= 1 as (prime, exponent) pairs, primes
        increasing.  Lazy: a caller that stops early skips the rest of the work."""
        if n < 1:
            raise ValueError(f"only positive integers are factored, not {n}")
        if self._bound <= TRIAL_BOUND:
            self._cover(TRIAL_BOUND)
        for p in self._primes:
            if p * p > n:
                if n > 1:
                    yield (n, 1)  # no prime factor up to its square root
                return
            if p > TRIAL_BOUND:
                break
            if n % p == 0:
                k = 0
                while n % p == 0:
                    n //= p
                    k += 1
                yield (p, k)
        if n >= MR_LIMIT:
            raise ValueError(f"the part {n} left after trial division by the primes "
                             f"up to {TRIAL_BOUND} is not below {MR_LIMIT}")
        large: dict[int, int] = {}
        _split(n, large)
        yield from sorted(large.items())


def _miller_rabin(n: int) -> bool:
    """Deterministic for n < MR_LIMIT; ValueError above it."""
    if n < 2:
        return False
    if n >= MR_LIMIT:
        raise ValueError(f"primality is decided below {MR_LIMIT}, not for {n}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(n: int, out: dict[int, int]) -> None:
    """Add the factorization of n, which has no prime factor <= TRIAL_BOUND."""
    if _miller_rabin(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _rho(n)
    _split(d, out)
    _split(n // d, out)


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho in Brent's form."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def valuation(n: int, p: int) -> int:
    """The exponent of the prime p in the nonzero integer n."""
    if n == 0 or p < 2:
        raise ValueError(f"no valuation of {n} at {p}")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def diagonal_pair(i: int) -> tuple[int, int]:
    """Cantor order on pairs of naturals: (0,0), (0,1), (1,0), (0,2), (1,1), ..."""
    s = (math.isqrt(8 * i + 1) - 1) // 2  # largest s with s(s+1)/2 <= i
    a = i - s * (s + 1) // 2
    return (a, s - a)


class Enumeration:
    """The items of an iterator, by index: ``e[i]`` is its i-th item (from 0).

    Items are drawn from the iterator when an index first reaches them and
    kept, so each is computed once however often, in what order or from how
    many threads it is read.  A read of an item already drawn takes no lock;
    drawing takes one.  An index past the end of a finite iterator raises
    ``IndexError``; an error raised by the iterator ends the enumeration
    where it was raised, and every later read past that point raises it
    again.
    """

    def __init__(self, items: Iterable):
        self._source = iter(items)
        self._items: list = []
        self._error: Exception | None = None
        self._lock = threading.RLock()  # a source that reads itself back raises, not hangs

    def __getitem__(self, i: int):
        if i < 0:
            raise IndexError(f"enumeration indices are natural numbers, not {i}")
        items = self._items
        if i >= len(items):
            with self._lock:
                if self._error is not None:
                    raise self._error.with_traceback(None)
                if i >= len(items):  # another thread may have drawn it meanwhile
                    try:
                        items.extend(islice(self._source, i + 1 - len(items)))
                    except Exception as error:
                        self._error = error
                        raise
                    if i >= len(items):
                        raise IndexError(f"the enumeration ends after {len(items)} items")
        return items[i]


def int_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Z^n by max |k| and then lexicographically in the integer order
    0 < 1 < -1 < 2 < -2 < ...; the zero tuple comes first (and alone, for n = 0)."""
    yield (0,) * n
    if not n:
        return
    ordered = [0]
    for r in count(1):
        ordered += (r, -r)
        yield from (t for t in product(ordered, repeat=n) if max(map(abs, t)) == r)


_int_tuples = lru_cache(maxsize=None)(lambda n: Enumeration(int_tuples(n)))


def int_tuple(n: int, i: int, include_zero: bool = False) -> tuple[int, ...]:
    """i-th integer n-tuple in the diagonal order (by max |k|, then lex)."""
    return _int_tuples(n)[i if include_zero else i + 1]


_TABLE = PrimeTable()
nth_prime = _TABLE.nth_prime
prime_index = _TABLE.prime_index
is_prime = _TABLE.is_prime
primes_upto = _TABLE.primes_upto
primes = _TABLE.primes
factorize = _TABLE.factorize
