"""Parity of the commands' outputs: a revision against the working tree.

    python3 tools/parity.py REV [--work DIR]

Run from the root of a git checkout; it needs the standard library and the
package's own dependencies, gates nothing and is not part of tier-1.

It extracts ``git archive REV`` and the working tree's tracked files (as
they are on disk) into two sibling directories, as ``tools/bench_pairs.py``
does.  The seeded inputs of every benchmark workload are built once, by the
revision's ``bench/workloads.py`` (loaded without writing bytecode, so
``bench/`` is left as it is) and its package.  Then each command of those
workloads, for each of SEEDS, and ``demo`` and ``check`` run once on each side,
each in a fresh process and a fresh working directory.  For each command it
compares the exit code, stdout, stderr (the output prefix spelled the same
on both sides) and the sha256 of every file the command wrote, and prints
the first difference it finds.  It exits 0 when nothing differs and 1 when
something does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, SIDES, extract

#: The seeds each benchmark workload's inputs are built from.
SEEDS = (1, 2, 3)

#: The commands run besides the workloads', as argv lists.
EXTRA = (["demo"], ["check", "--trials", "200"])

#: Builds every workload's inputs with the package and ``bench/workloads.py``
#: of the tree given as argv[1], under argv[2]; prints the commands as JSON.
_BUILD = """
import importlib.util, json, sys
from pathlib import Path
sys.dont_write_bytecode = True
tree, inputs, seeds = Path(sys.argv[1]), Path(sys.argv[2]), json.loads(sys.argv[3])
spec = importlib.util.spec_from_file_location("bench_workloads", tree / "bench" / "workloads.py")
workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
commands = []
for name in sorted(workloads.BUILDERS):
    for seed in seeds:
        work = inputs / f"{name}_{seed}"
        work.mkdir(parents=True)
        for k, argv in enumerate(workloads.BUILDERS[name](seed, work).commands):
            commands.append([f"{name} seed {seed} command {k + 1}", argv])
print(json.dumps(commands))
"""


def environment(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")


def run(tree: Path, argv: list, place: Path) -> dict:
    """Exit code, stdout, stderr and {file: sha256} of one command run in
    ``place``, a fresh directory; "{out}" in ``argv`` is an output prefix
    inside it, and its path is spelled "{out}" in stdout and stderr."""
    place.mkdir(parents=True)
    out = str(place / "out")
    argv = [arg.replace("{out}", out) for arg in argv]
    result = subprocess.run(
        [sys.executable, "-m", "gadgetgraph.cli", *argv], cwd=place, env=environment(tree),
        capture_output=True, text=True,
    )
    files = {
        str(path.relative_to(place)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(place.rglob("*")) if path.is_file()
    }
    return {"exit code": result.returncode, "stdout": result.stdout.replace(out, "{out}"),
            "stderr": result.stderr.replace(out, "{out}"), "files": files, "place": place}


def first_difference(parent: dict, change: dict) -> str | None:
    """The first way the two runs of one command differ, or None."""
    if parent["exit code"] != change["exit code"]:
        return f"exit code {parent['exit code']} -> {change['exit code']}"
    for what in ("stdout", "stderr"):
        if parent[what] != change[what]:
            return f"{what} {_first_line(parent[what], change[what])}"
    if parent["files"].keys() != change["files"].keys():
        return f"written files {sorted(parent['files'])} -> {sorted(change['files'])}"
    for name, digest in parent["files"].items():
        if change["files"][name] != digest:
            old, new = ((run["place"] / name).read_text(errors="replace") for run in (parent, change))
            return f"{name} (sha256 differs) {_first_line(old, new)}"
    return None


def _first_line(old: str, new: str) -> str:
    """The first line at which two texts differ, with both versions."""
    old, new = old.splitlines(), new.splitlines()
    i = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    return f"line {i + 1}: {(old + ['<end>'])[i]!r} -> {(new + ['<end>'])[i]!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to compare against, as git names it")
    parser.add_argument("--work", help="directory for the trees and outputs, outside the checkout (default: a temporary one)")
    args = parser.parse_args(argv)

    work = Path(args.work or tempfile.mkdtemp(prefix="parity_")).resolve()
    if work == ROOT or ROOT in work.parents:
        parser.error("--work must lie outside the checkout")
    trees = extract(args.rev, work)
    inputs = work / "inputs"
    for old in (inputs, work / "runs"):
        shutil.rmtree(old, ignore_errors=True)
    built = subprocess.run(
        [sys.executable, "-c", _BUILD, str(trees["parent"]), str(inputs), json.dumps(SEEDS)],
        env=environment(trees["parent"]), capture_output=True, text=True, check=True,
    )
    commands = json.loads(built.stdout) + [[" ".join(argv), argv] for argv in EXTRA]
    differ = 0
    for i, (label, command) in enumerate(commands):
        runs = {side: run(trees[side], command, work / "runs" / side / str(i)) for side in SIDES}
        difference = first_difference(runs["parent"], runs["change"])
        print(f"{label}: {'same' if difference is None else 'DIFFERS: ' + difference}", flush=True)
        differ += difference is not None
    print(f"{differ} of {len(commands)} commands differ")
    if args.work is None:
        shutil.rmtree(work)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
