"""Mutation audit: does tier-1 notice when a check of the package is switched off?

    python3 tools/mutation_audit.py src/gadgetgraph/rounding.py src/gadgetgraph/reverse.py
        [--work DIR]

Run from the root of a source checkout; it needs the standard library only.
Each site of the named modules is disabled on its own, in a copy of the
checkout, and tier-1 runs there with ``-x``:

- every ``raise`` statement becomes ``pass``;
- every call ``X.require(...)`` becomes ``X``, so an ``InequalityReport``
  is built but never asserted;
- every check tuple ``(failed, lambda i: error)``, the form the batched
  checks hand to ``linalg._raise_first``, becomes ``(failed & False,
  lambda i: error)``, so its items never fail.

A mutant is *killed* when a test fails and *survives* when every test
passes.  A survivor is a check that no tier-1 test shows firing.  Before the
mutants, the unmutated copy (written back by ``ast.unparse``, as every
mutant is) must pass.  The audit prints one line per site and the
survivors at the end; it gates nothing and is not part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: What the copy of the checkout leaves out.
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*", "tools")


def sites(tree: ast.Module) -> list:
    """(line, kind) of every site, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            found.append((node.lineno, "raise"))
        elif _is_require(node):
            found.append((node.lineno, "require"))
        elif _is_check(node):
            found.append((node.lineno, "check"))
    return sorted(found)


def _is_require(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "require"


def _is_check(node) -> bool:
    return isinstance(node, ast.Tuple) and len(node.elts) == 2 and isinstance(node.elts[1], ast.Lambda)


class _Mutate(ast.NodeTransformer):
    """Disable the one site at ``line`` of kind ``kind``."""

    def __init__(self, line: int, kind: str) -> None:
        self.line, self.kind, self.done = line, kind, False

    def visit_Raise(self, node):
        if self.kind == "raise" and node.lineno == self.line and not self.done:
            self.done = True
            return ast.copy_location(ast.Pass(), node)
        return self.generic_visit(node)

    def visit_Call(self, node):
        if self.kind == "require" and _is_require(node) and node.lineno == self.line and not self.done:
            self.done = True
            return self.visit(node.func.value)
        return self.generic_visit(node)

    def visit_Tuple(self, node):
        if self.kind == "check" and _is_check(node) and node.lineno == self.line and not self.done:
            self.done = True
            never = ast.BinOp(node.elts[0], ast.BitAnd(), ast.Constant(False))
            node.elts[0] = ast.copy_location(never, node.elts[0])
        return self.generic_visit(node)


def tier1(checkout: Path) -> tuple:
    """(passed, seconds) of tier-1 with -x in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return result.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module files to mutate, relative to the checkout root")
    parser.add_argument("--work", help="directory for the copy of the checkout, outside it (default: a temporary one)")
    args = parser.parse_args(argv)

    if args.work is None:
        with tempfile.TemporaryDirectory(prefix="mutation_audit_") as work:
            return audit(args.modules, Path(work))
    work = Path(args.work).resolve()
    if work == ROOT or ROOT in work.parents:
        parser.error("--work must lie outside the checkout, which is copied into it")
    return audit(args.modules, work)


def audit(modules, work: Path) -> int:
    """Mutate every site of ``modules`` in a copy of the checkout under ``work``."""
    checkout = work / "checkout"
    shutil.rmtree(checkout, ignore_errors=True)
    shutil.copytree(ROOT, checkout, ignore=IGNORED)
    survivors = []
    for module in modules:
        source = (ROOT / module).read_text()
        tree = ast.parse(source)
        target = checkout / module
        target.write_text(ast.unparse(tree) + "\n")
        passed, seconds = tier1(checkout)
        print(f"{module}: unmutated copy {'passes' if passed else 'FAILS'} ({seconds:.0f} s)", flush=True)
        if not passed:
            return 1
        for line, kind in sites(tree):
            mutant = _Mutate(line, kind).visit(copy.deepcopy(tree))
            target.write_text(ast.unparse(ast.fix_missing_locations(mutant)) + "\n")
            passed, seconds = tier1(checkout)
            killed = not passed
            code = source.splitlines()[line - 1].strip()
            verdict = "killed" if killed else "SURVIVED"
            print(f"{module}:{line} {kind:7} {verdict} ({seconds:.0f} s)  {code}", flush=True)
            if not killed:
                survivors.append(f"{module}:{line} {kind}  {code}")
        target.write_text(source)
    print(f"{len(survivors)} survivors" + "".join(f"\n  {s}" for s in survivors))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
