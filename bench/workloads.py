"""The benchmark's workloads: the CLI calls that make up one pass, and the
checks on their output that hold at every seed.

A pass is a fixed amount of work, so passes of one workload are comparable
whatever the host's speed; a run makes a fixed number of passes.
The reasons for each workload are in README.md next to this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

MC_K1_N = 30
MC_K1_TRIALS = 10_000
MC_PAIRS_N = (10, 20, 40, 80)
MC_PAIRS_GENERATORS = ((0, 2), (1, 1))  # (permutations, endofunctions)
MC_PAIRS_TRIALS = 500  # per row
EXACT_TUPLES = 120 * 5**5  # one permutation and one map of degree 5
EXACT_ANSWER = "2277/3125"
EXPLORE_GRAPHS = 2 ** (5 * 4 // 2)
EXPLORE_PASSING = 231


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``calls(seed)`` gives the argument lists of one pass, each run through
    ``syncmonoid.cli.main``.  ``check(seed, outputs)`` gets the stdout of
    each call and returns the problems it finds.  ``seeded`` is False when
    the program's inputs do not depend on the seed; the golden copy is then
    compared at every seed, not only at ``default_seed``.  ``streaming`` is
    True when the subcommand writes each record as soon as it is ready.
    ``pass_s`` is the nominal time of one pass in reference-speed seconds;
    it sets how many passes fill a run, and is not changed with the program.
    ``host_kernel`` names the kernel of ``hostspeed.KERNELS`` that times
    the host for this workload.
    """

    name: str
    default_seed: int
    seeded: bool
    streaming: bool
    unit: str  # what one item is
    items: int  # items per pass
    pass_s: float
    host_kernel: str
    calls: Callable[[int], list[list[str]]]
    check: Callable[[int, list[str]], list[str]]

    @property
    def monte_carlo(self) -> bool:
        return self.unit == "trials"


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _mc_k1_calls(seed: int) -> list[list[str]]:
    return [[
        "estimate", "--n", str(MC_K1_N), "--k", "1", "--trials", str(MC_K1_TRIALS),
        "--seed", str(seed), "--threads", "1",
    ]]


def _mc_k1_check(seed: int, outputs: list[str]) -> list[str]:
    records = _records(outputs[0])
    if len(records) != 1:
        return [f"expected one record, got {len(records)}"]
    rec = records[0]
    p = 1 / MC_K1_N
    sigma = math.sqrt(p * (1 - p) / MC_K1_TRIALS)
    problems = []
    if (rec["n"], rec["trials"], rec["seed"]) != (MC_K1_N, MC_K1_TRIALS, seed):
        problems.append(f"record does not echo its inputs: {rec}")
    if abs(rec["estimate"] - p) > 5 * sigma:
        problems.append(f"estimate {rec['estimate']} is more than 5 sigma from 1/{MC_K1_N}")
    return problems


def _mc_pairs_calls(seed: int) -> list[list[str]]:
    return [
        [
            "sweep", "--n", ",".join(map(str, MC_PAIRS_N)), "--perms", str(r),
            "--maps-count", str(s), "--trials", str(MC_PAIRS_TRIALS),
            "--seed", str(seed), "--threads", "1",
        ]
        for r, s in MC_PAIRS_GENERATORS
    ]


def _mc_pairs_check(seed: int, outputs: list[str]) -> list[str]:
    from syncmonoid.rng import derive_seed

    problems = []
    for (r, s), text in zip(MC_PAIRS_GENERATORS, outputs):
        records = _records(text)
        if [rec["n"] for rec in records] != list(MC_PAIRS_N):
            problems.append(f"(r,s)=({r},{s}): rows for n={[rec['n'] for rec in records]}")
            continue
        for index, rec in enumerate(records):
            where = f"(r,s)=({r},{s}) n={rec['n']}"
            if (rec["r"], rec["s"], rec["trials"]) != (r, s, MC_PAIRS_TRIALS):
                problems.append(f"{where}: record does not echo its inputs")
            if rec["seed"] != derive_seed(seed, index):
                problems.append(f"{where}: seed {rec['seed']} != derive_seed({seed}, {index})")
            if not 0 <= rec["ci_low"] <= rec["estimate"] <= rec["ci_high"] <= 1:
                problems.append(f"{where}: interval out of order: {rec}")
    return problems


def _exact_calls(seed: int) -> list[list[str]]:
    return [["exact", "--n", "5", "--perms", "1", "--maps-count", "1"]]


def _exact_check(seed: int, outputs: list[str]) -> list[str]:
    expected = json.dumps({"exact": EXACT_ANSWER}) + "\n"
    return [] if outputs[0] == expected else [f"output {outputs[0]!r} != {expected!r}"]


def _explore_calls(seed: int) -> list[list[str]]:
    return [["explore", "--n", "5"]]


def _explore_check(seed: int, outputs: list[str]) -> list[str]:
    records = _records(outputs[0])
    passing = [rec for rec in records if rec["passes"]]
    problems = []
    if len(records) != EXPLORE_GRAPHS:
        problems.append(f"{len(records)} records, expected {EXPLORE_GRAPHS}")
    if len(passing) != EXPLORE_PASSING:
        problems.append(f"{len(passing)} graphs pass the conditions, expected {EXPLORE_PASSING}")
    not_maximal = sum(1 for rec in passing if rec["maximal"] is not True)
    if not_maximal:
        problems.append(f"{not_maximal} passing graphs are not reported maximal")
    return problems


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("mc_k1", 7, True, False, "trials", MC_K1_TRIALS, 0.65, "ints_and_dicts",
                 _mc_k1_calls, _mc_k1_check),
        Workload("mc_pairs", 99, True, False, "trials",
                 len(MC_PAIRS_N) * len(MC_PAIRS_GENERATORS) * MC_PAIRS_TRIALS, 1.15,
                 "ints_and_dicts",
                 _mc_pairs_calls, _mc_pairs_check),
        Workload("exact_enum", 0, False, False, "tuples", EXACT_TUPLES, 6.8, "ints_and_dicts",
                 _exact_calls, _exact_check),
        Workload("explore5", 0, False, True, "graphs", EXPLORE_GRAPHS, 12.0, "tuple_pairs",
                 _explore_calls, _explore_check),
    )
}
