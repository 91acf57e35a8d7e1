"""Byte-for-byte regression of the `sim` payloads.

A fixed, seeded list of `sim abelian|dihedral|rank1` commands runs through
`cli.main` in this process; the sha256 of every command's stdout and exit
code, in order, is pinned.  The digest was computed at commit 4b384a7, whose
simulators still did their arithmetic on `Fraction` and `DihedralElement`
and re-checked every fact after each rewrite, so it pins the integer stage
arithmetic to the payloads of that implementation.

Those commands run at most 24 stages.  A second digest pins 36 commands of
60 to 100 stages, the lengths the benchmark's `construct` workload runs; it
was computed at commit e6e12fe, before the simulators stopped passing their
`neq` facts through the seen-set and moved rank-1 values to integer pairs.

A third digest pins 60 seeded `sim cof` commands, with m from 1 to 15 and
bounds from 20 to 300, some refused (too few Pfin primes under the bound, or
Pfin finite); it was computed at commit fa1fce0, whose `run_cofinality`
still looked up each window prime's index in the a-primes list.
"""

import contextlib
import hashlib
import io
import random

from scottgroups import cli

PINNED_SHA256 = "9435dfc98d2ce0b8f0857171275f805402ae8dfc1c7bb80c543a0b79c48aac0f"
PINNED_LONG_SHA256 = "b110d852cf3db2eeead983e84d1d14a3d18e0fc15b159b4b6ae63a7297eec0c4"
PINNED_COF_SHA256 = "a41fbcdd19a58c8732c02978496029a379519247726d26eda1b29005eee8db6f"

CHARS = [('{"exceptions":{"2":"inf"},"default":"zero"}', 3, 2),
         ('{"exceptions":{"5":"inf"},"default":"zero"}', 2, 5),
         ('{"exceptions":{"7":0},"default":"inf"}', 7, 2),
         ('{"exceptions":{},"default":{"residue":["zero","inf"]}}', 2, 3),
         ('{"exceptions":{"2":6,"13":"inf"},"default":"zero"}', 2, 13),
         ('{"default":"zero"}', 2, 3)]  # q outside Pinf: exits 1


def sim_commands(count: int = 120, seed: int = 2024) -> list[list[str]]:
    rng = random.Random(seed)
    return [sim_command(rng, ("abelian", "dihedral", "rank1")[i % 3],
                        rng.randint(1, 24 if rng.random() < 0.2 else 10), 3)
            for i in range(count)]


def long_sim_commands(count: int = 36, seed: int = 1990) -> list[list[str]]:
    rng = random.Random(seed)
    return [sim_command(rng, ("abelian", "dihedral", "rank1")[i % 3], rng.randint(60, 100), 2)
            for i in range(count)]


COF_CHARS = ['{"default":{"linear":[1,1]}}',
             '{"exceptions":{"3":0,"5":"inf","7":4},"default":{"linear":[2,0]}}',
             '{"exceptions":{"2":3},"default":{"residue":["zero",{"linear":[1,1]},"inf"]}}',
             '{"exceptions":{"2":5},"default":"inf"}']  # Pfin finite: exits 1


def cof_commands(count: int = 60, seed: int = 1606) -> list[list[str]]:
    rng = random.Random(seed)
    commands = []
    for _ in range(count):
        m = rng.randint(1, 15)
        w = ",".join(str(k) for k in range(m) if rng.random() < 0.7)
        argv = ["sim", "cof", "--char", rng.choice(COF_CHARS), "--m", str(m), "--w", w,
                "--bound", str(rng.randint(20, 300))]
        if rng.random() < 0.25:
            argv.append("--no-verify")
        commands.append(argv)
    return commands


def sim_command(rng: random.Random, sim: str, stages: int, max_growth: int) -> list[str]:
    bits = ",".join(f"{rng.randint(0, 1)}{rng.randint(0, 1)}" for _ in range(stages))
    argv = ["sim", sim, "--trace", bits, "--growth", str(rng.randint(1, max_growth))]
    if sim == "abelian":
        argv += ["--k", str(rng.choice((2, 3, 4)))]
    elif sim == "rank1":
        char, p, q = rng.choice(CHARS)
        argv += ["--char", char, "--p", str(p), "--q", str(q)]
    if rng.random() < 0.2:
        argv.append("--no-verify")
    return argv


def payload_digest(commands: list[list[str]]) -> str:
    digest = hashlib.sha256()
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        digest.update(f"{out.getvalue()}\nexit {code}\n".encode())
    return digest.hexdigest()


def test_sim_payloads_are_pinned():
    commands = sim_commands()
    assert len(commands) >= 100
    assert payload_digest(commands) == PINNED_SHA256


def test_long_sim_payloads_are_pinned():
    commands = long_sim_commands()
    assert len(commands) >= 30
    assert all(60 <= len(argv[3].split(",")) <= 100 for argv in commands)
    assert payload_digest(commands) == PINNED_LONG_SHA256


def test_cof_payloads_are_pinned():
    commands = cof_commands()
    assert len(commands) == 60 and any("--no-verify" in argv for argv in commands)
    assert payload_digest(commands) == PINNED_COF_SHA256
