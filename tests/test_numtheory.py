import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from scottgroups import cli
from scottgroups import numtheory as nt
from scottgroups import rank1 as R

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_MAIN = "import sys; from scottgroups.cli import main; sys.exit(main(sys.argv[1:]))"
LINEAR = json.dumps({"exceptions": {}, "default": {"linear": [1, 0]}})


def naive_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


REFERENCE = [n for n in range(10 ** 4) if naive_is_prime(n)]


class TestPrimeTable:
    def test_reads_agree_with_trial_division(self):
        table = nt.PrimeTable()  # a fresh table grows several times below 10^4
        assert [n for n in range(10 ** 4) if table.is_prime(n)] == REFERENCE
        assert table.primes_upto(10 ** 4 - 1) == REFERENCE
        assert [table.nth_prime(i) for i in range(len(REFERENCE))] == REFERENCE
        assert [table.prime_index(p) for p in REFERENCE] == list(range(len(REFERENCE)))

    def test_each_read_grows_a_fresh_table(self):
        # every read below starts from an empty table and must grow it itself
        for i, p in enumerate(REFERENCE[::97]):
            assert nt.PrimeTable().nth_prime(97 * i) == p
            assert nt.PrimeTable().prime_index(p) == 97 * i
            assert nt.PrimeTable().primes_upto(p)[-1] == p

    def test_prime_index_rejects_composites(self):
        for n in (-3, 0, 1, 4, 9999, 7917 * 2):
            with pytest.raises(ValueError):
                nt.prime_index(n)

    def test_index_limit(self):
        last = max(n for n in range(nt.PRIME_INDEX_LIMIT - 100, nt.PRIME_INDEX_LIMIT)
                   if nt.is_prime(n))
        assert last == 16777213
        with pytest.raises(ValueError, match="below"):
            nt.prime_index(16777259)  # the first prime past 2^24
        with pytest.raises(ValueError):
            nt.primes_upto(nt.PRIME_INDEX_LIMIT)


class TestMillerRabin:
    PRIMES = (2 ** 31 - 1, 2 ** 61 - 1, 1000000007, 4294967291, 18446744073709551557)
    # Carmichael numbers and strong pseudoprimes to the first few prime bases
    COMPOSITES = (561, 1105, 1729, 2465, 2821, 6601, 8911, 2047, 3215031751,
                  2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
                  4294967291 * 4294967279)

    def test_known_primes_and_pseudoprimes(self):
        for p in self.PRIMES:
            assert nt.is_prime(p) is True
        for n in self.COMPOSITES:
            assert nt.is_prime(n) is False

    def test_agrees_with_trial_division_above_the_table(self):
        base = 10 ** 9
        for n in range(base, base + 300):
            assert nt.is_prime(n) == naive_is_prime(n), n

    def test_rejects_numbers_past_the_deterministic_bound(self):
        with pytest.raises(ValueError):
            nt.is_prime(nt.MR_LIMIT + 1)


class TestFactorize:
    def test_round_trip_on_products_of_large_primes(self):
        cases = [(998244353, 1000000007), (4294967291, 4294967279), (4294967291, 4294967291),
                 (1000003, 999983, 10007), (2, 2, 3, 65537, 65537, 4099)]
        for ps in cases:
            n = 1
            for p in ps:
                n *= p
            want = {p: ps.count(p) for p in sorted(set(ps))}
            got = list(nt.factorize(n))
            assert got == sorted(want.items())

    def test_agrees_with_trial_division(self):
        for n in range(1, 3000):
            m = 1
            for p, k in nt.factorize(n):
                assert naive_is_prime(p)
                m *= p ** k
            assert m == n

    def test_small_primes_of_a_huge_number(self):
        assert list(nt.factorize(2 ** 100 * 3 ** 7)) == [(2, 100), (3, 7)]

    def test_cofactor_bound(self):
        big = (2 ** 61 - 1) * (2 ** 31 - 1)
        with pytest.raises(ValueError):
            list(nt.factorize(2 * big))
        # a lazy reader stops before the cofactor it could not split
        assert next(nt.factorize(2 * big)) == (2, 1)


def test_valuation():
    assert nt.valuation(2 ** 10 * 3, 2) == 10
    assert nt.valuation(-45, 3) == 2
    assert nt.valuation(7, 5) == 0
    with pytest.raises(ValueError):
        nt.valuation(0, 2)


def test_diagonal_pair_is_cantor_order():
    expected = [(a, s - a) for s in range(200) for a in range(s + 1)]
    assert [nt.diagonal_pair(i) for i in range(len(expected))] == expected


def test_enumeration_draws_each_item_once():
    drawn = []

    def squares():
        for n in range(5):
            drawn.append(n)
            yield n * n

    e = nt.Enumeration(squares())
    assert [e[3], e[1], e[3], e[4]] == [9, 1, 9, 16]
    assert drawn == [0, 1, 2, 3, 4]
    for i in (5, -1):
        with pytest.raises(IndexError):
            e[i]
    assert drawn == [0, 1, 2, 3, 4]


def test_enumeration_raises_its_source_error_again():
    def failing():
        yield 1
        raise ValueError("no second item")

    e = nt.Enumeration(failing())
    for i in (1, 2, 1):
        with pytest.raises(ValueError, match="no second item"):
            e[i]
    assert e[0] == 1


class TestRegressionBounds:
    def test_linear_membership_near_10007(self):
        c = R.char(default=("linear", 1, 0))
        start = time.monotonic()
        assert R.contains(c, Fraction(1, 10007)) is True  # 10007 has index 1229
        assert time.monotonic() - start < 5

    def test_cli_member_near_a_million(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, "q", "member",
                               LINEAR, "1/1000003"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert time.monotonic() - start < 10
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"contains": True}

    def test_index_lookup_past_the_limit_is_a_domain_error(self, capsys):
        assert cli.main(["q", "member", LINEAR, "1/16777259"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and str(nt.PRIME_INDEX_LIMIT) in err

    def test_index_free_rules_answer_past_the_limit(self, capsys):
        zero = json.dumps({"exceptions": {}, "default": "zero"})
        assert cli.main(["q", "member", zero, "1/16777259"]) == 0
        assert json.loads(capsys.readouterr().out) == {"contains": False}
