"""Paired benchmark runs of a parent revision against the working tree.

    python3 tools/bench_pairs.py REV --workload W --pairs N --seed S
        [--seconds T] [--metric op_s.p50] [--trace 0|1] [--work DIR]

Run from the root of a git checkout; it needs the standard library only,
gates nothing and is not part of tier-1.

It extracts ``git archive REV`` and the working tree's tracked files (as
they are on disk) into two sibling directories whose paths have the same
length, so that a metric that counts the bytes of an absolute path, as
``cli.out_bytes`` does through ``compile``'s ``wrote <path>`` lines, reads
the same on both.  Neither copy has a bytecode cache, and every run has
``PYTHONDONTWRITEBYTECODE=1``, so both sides compile the package from
source at every start and ``setup_s`` is not biased by a stale cache.

Pair i runs ``bench/run.py --workload W --seed S+i`` once on each side,
the side that goes first alternating from pair to pair.  At the end it
prints, per side, the median and quartiles of every metric the runs
report, then for each metric the number of pairs the working tree wins
(ties count for neither side) in the direction ``BENCHMARK.json`` gives,
and for the ``--metric`` named whether the claim rule holds: the working
tree wins at least nine tenths of the pairs and the medians differ by more
than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")  # equal lengths: equal paths below one directory


def extract(rev: str, work: Path) -> dict:
    """The two trees under ``work``, fresh: ``git archive rev`` and the
    working tree's tracked files."""
    trees = {side: work / side for side in SIDES}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(trees["parent"], filter="data")
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True, capture_output=True).stdout
    for name in listed.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted on disk is left out
            target = trees["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return trees


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The metrics of one ``bench/run.py`` run in ``tree``, by name."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {tree}:\n{result.stderr}")
    last = json.loads(result.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        print(f"  {tree.name}: run not correct, {last['failed']} of {last['attempted']} failed", flush=True)
    return {name: m["value"] for name, m in last["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(q1, median, q3); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def directions() -> dict:
    """Whether each metric of BENCHMARK.json is better lower, by name."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "lower" for m in contract["end_to_end"] + contract["per_layer"]}


def summarize(runs: dict, claimed: str) -> bool:
    """Print the per-side statistics and win counts; whether the claim rule holds for ``claimed``."""
    lower = directions()
    pairs = len(runs["parent"])
    holds = False
    names = [n for n in runs["parent"][0] if all(n in r for side in SIDES for r in runs[side])]
    print(f"{'metric':40} {'side':7} {'q1':>12} {'median':>12} {'q3':>12}  change wins")
    for name in names:
        stats = {side: quartiles([r[name] for r in runs[side]]) for side in SIDES}
        better = (lambda a, b: a < b) if lower.get(name, True) else (lambda a, b: a > b)
        wins = sum(better(c[name], p[name]) for p, c in zip(runs["parent"], runs["change"]))
        for side in SIDES:
            q1, median, q3 = stats[side]
            tail = f"  {wins}/{pairs}" if side == "change" else ""
            print(f"{name:40} {side:7} {q1:12.6g} {median:12.6g} {q3:12.6g}{tail}")
        if name == claimed:
            q1, parent_median, q3 = stats["parent"]
            gap = abs(stats["change"][1] - parent_median)
            holds = wins * 10 >= 9 * pairs and better(stats["change"][1], parent_median) and gap > q3 - q1
            print(f"claim on {name}: change wins {wins}/{pairs}, median gap {gap:.6g}, "
                  f"parent IQR {q3 - q1:.6g}: {'holds' if holds else 'does not hold'}")
    return holds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the parent revision, as git names it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--metric", default="op_s.p50", help="the metric a gain is claimed on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", help="directory for the two trees, outside the checkout (default: a temporary one)")
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    work = Path(args.work or tempfile.mkdtemp(prefix="bench_pairs_")).resolve()
    if work == ROOT or ROOT in work.parents:
        parser.error("--work must lie outside the checkout")
    trees = extract(args.rev, work)
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run(trees[side], args.workload, args.seed + i, seconds, args.trace))
        p, c = runs["parent"][-1].get(args.metric), runs["change"][-1].get(args.metric)
        print(f"pair {i + 1} seed {args.seed + i} ({order[0]} first): {args.metric} {p} -> {c}", flush=True)
    summarize(runs, args.metric)
    if args.work is None:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
