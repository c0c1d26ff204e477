#!/usr/bin/env python3
"""Regenerate the default train/test problem manifests.

The split mirrors the experiment protocol this package reproduces: the
benchmark pool is divided roughly in half, with suite budgets fixed per
problem family.  The MaOP family is listed as unavailable (its problem
definitions are not published in a reproducible form; the problem interface
is pluggable so it can be added later).  The source listing of the test
split contains duplicate DTLZ rows; each problem appears at most once here,
and DTLZ6, which the source lists on both sides, stays in the training
split.  DTLZ5 is left out of the test split: at the registry's two
objectives it has no intermediate angle to bend and is the same problem as
DTLZ2, so listing both would count one problem twice in every W-D-L tally.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from moeapap.problems import get_problem  # noqa: E402

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "moeapap" / "manifests"

TRAIN = [
    "UF2", "UF3", "UF5", "UF9", "UF10",
    "WFG2", "WFG3", "WFG4", "WFG6", "WFG9",
    "DTLZ3", "DTLZ4", "DTLZ6",
    "ZDT3", "ZDT4", "ZDT5",
]
TRAIN_UNAVAILABLE = ["MaOP2", "MaOP5", "MaOP7", "MaOP8", "MaOP10"]

TEST = [
    "UF1", "UF4", "UF6", "UF7", "UF8",
    "WFG1", "WFG5", "WFG7", "WFG8",
    "DTLZ1", "DTLZ2", "DTLZ7",
    "ZDT1", "ZDT2", "ZDT6",
]
TEST_UNAVAILABLE = ["MaOP1", "MaOP3", "MaOP4", "MaOP6", "MaOP9"]

SEEDS = [1, 2, 3]


def default_budget(name: str) -> tuple[int, int]:
    """(population size, max generations) defaults per benchmark suite."""
    p = get_problem(name)
    if p.suite == "UF":
        return (100, 500) if p.index <= 7 else (150, 600)
    if p.suite == "WFG":
        return (150, 250)
    return (100, 250)


def build(names, unavailable, notes) -> dict:
    problems = []
    for name in names:
        pop, gens = default_budget(name)
        problems.append(
            {"name": name, "pop_size": pop, "max_generations": gens, "seeds": SEEDS}
        )
    return {
        "format": "moeapap-manifest",
        "version": 1,
        "notes": notes,
        "problems": problems,
        "unavailable": [
            {"name": n, "reason": "MaOP family not implemented (no reproducible definition)"}
            for n in unavailable
        ],
    }


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    specs = {
        "train.json": build(
            TRAIN,
            TRAIN_UNAVAILABLE,
            "default training split; budgets per suite: UF1-7 (100,500), "
            "UF8-10 (150,600), WFG (150,250), DTLZ/ZDT (100,250)",
        ),
        "test.json": build(
            TEST,
            TEST_UNAVAILABLE,
            "default testing split; duplicate DTLZ rows in the source listing were "
            "deduplicated, DTLZ6 kept on the training side, and DTLZ5 dropped because "
            "at m = 2 it is the same problem as DTLZ2",
        ),
    }
    for fname, payload in specs.items():
        path = OUT_DIR / fname
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
