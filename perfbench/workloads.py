"""Seeded inputs for the three workloads.

Nothing here imports pincover: the benchmark makes its inputs from the seed
alone and hands the program only the generated words and command lines.

Seeds are mixed with the pass index, so every pass of a run gets its own
inputs.  In ``families`` each pass relabels every surface afresh (new letter
names, rotation, reversal, inversions), so no op input repeats within a run;
in ``cli`` each pass draws its commands from per-kind pools that are only
reshuffled once they are used up.
"""

from __future__ import annotations

import random

GENUS_LADDER = (1, 2, 3, 4, 6, 8, 10, 12, 14, 16)
KINDS = ("pin+", "pin-")


def rng_for(seed: int, *tags) -> random.Random:
    return random.Random("/".join(str(t) for t in (seed,) + tags))


# --- verify ------------------------------------------------------------------


def verify_seed(seed: int, pass_index: int) -> int:
    """The --seed handed to `pincover verify` in one pass."""
    return rng_for(seed, "verify", pass_index).randrange(1_000_000)


# --- families ------------------------------------------------------------------


def canonical_word(family: str, g: int) -> list[tuple[str, int]]:
    """sigma: a1 b1 a1' b1' ...; n1: ... x x; n2: ... c d c d'."""
    word = []
    for i in range(1, g + 1):
        word += [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]
    if family == "n1":
        word += [("x", 1), ("x", 1)]
    elif family == "n2":
        word += [("c", 1), ("d", 1), ("c", 1), ("d", -1)]
    return word


def relabel(word, rng: random.Random, prefix: str) -> list[tuple[str, int]]:
    """The same surface under a cyclic rotation, maybe a reversal, letter
    inversions and fresh letter names."""
    r = rng.randrange(len(word))
    word = word[r:] + word[:r]
    if rng.random() < 0.5:  # read the boundary the other way round
        word = [(name, -exp) for name, exp in reversed(word)]
    letters = list(dict.fromkeys(name for name, _ in word))
    flips = {name for name in letters if rng.random() < 0.5}
    ids = rng.sample(range(10 * len(letters) + 10), len(letters))
    names = {name: f"{prefix}{i}" for name, i in zip(letters, ids)}
    return [(names[name], -exp if name in flips else exp) for name, exp in word]


def family_pass(seed: int, pass_index: int) -> list[dict]:
    """The surfaces of one pass, in visiting order, each with its ops."""
    rng = rng_for(seed, "families", pass_index)
    surfaces = []
    for g in GENUS_LADDER:
        for family in ("sigma", "n1", "n2"):
            ops = ["homology", "obstructions"]
            if family != "sigma":
                ops += ["covermaps", f"descend {rng.choice(KINDS)}"]
            surfaces.append({
                "family": family,
                "g": g,
                "word": relabel(canonical_word(family, g), rng, f"p{pass_index}e"),
                "ops": ops,
            })
    rng.shuffle(surfaces)
    return surfaces


# --- cli ---------------------------------------------------------------------

_FAMILY_NAMES = [f"n({g},{k})" for g in range(3, 7) for k in (1, 2)]
_NAMED = ["s2", "rp2", "t2", "k2"]

# command pools, one per subcommand, and how many of each one pass draws
CLI_POOLS: dict[str, list[list[str]]] = {
    "surfaces": [["surfaces"]],
    "homology": [["homology", s] for s in _NAMED + ["sigma(2)", "sigma(3)"] + _FAMILY_NAMES],
    "covermaps": [["covermaps", s] for s in ["k2", "rp2"] + _FAMILY_NAMES],
    "obstructions": [["obstructions", s]
                     for s in _NAMED + ["sigma(2)", "sigma(3)"] + _FAMILY_NAMES],
    "structures": [["structures", s, "--kind", k]
                   for s in ("t2", "cyl", "k2", "moebius", "rp2") for k in KINDS],
    "descend": [["descend", s, "--kind", k]
                for s in ("k2", "rp2", "n(1,1)", "n(1,2)", "n(2,1)", "n(2,2)") for k in KINDS],
    "moebius": [["moebius"]],
    "pinors": [["pinors", "check", "t2", "--structure", str(i), "--kind", k, "--sign", sign]
               for i in range(4) for k in KINDS for sign in "+-"],
}
CLI_PER_PASS = {"surfaces": 1, "homology": 4, "covermaps": 4, "obstructions": 4,
                "structures": 4, "descend": 4, "moebius": 1, "pinors": 3}


def cli_universe() -> list[list[str]]:
    return [cmd for pool in CLI_POOLS.values() for cmd in pool]


def cli_key(cmd: list[str]) -> str:
    return " ".join(cmd)


class CliDraw:
    """Draws each pass's commands without replacement from per-subcommand pools.

    A pool is reshuffled only when used up, so a command repeats within a run
    only after its whole pool has been run.  The same seed gives the same
    passes.  Each command runs in its own cold process, so a repeat cannot hit
    a warm cache.
    """

    def __init__(self, seed: int):
        self._rng = rng_for(seed, "cli")
        self._queues: dict[str, list[list[str]]] = {name: [] for name in CLI_POOLS}

    def next_pass(self) -> list[list[str]]:
        cmds = []
        for name, count in CLI_PER_PASS.items():
            for _ in range(count):
                queue = self._queues[name]
                if not queue:
                    queue.extend(self._rng.sample(CLI_POOLS[name], len(CLI_POOLS[name])))
                cmds.append(queue.pop())
        self._rng.shuffle(cmds)
        return [cmd + ["--format", "json"] for cmd in cmds]
