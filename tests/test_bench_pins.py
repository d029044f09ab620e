"""The call counts the benchmark pins, checked without a benchmark run.

Each workload of ``bench/workloads.py`` pins how often some functions run in
every command, and the benchmark's traced run reports a broken pin as
``correct: false``.  Here the seed-1 inputs of each workload are built in a
temporary directory and its first two commands run in process under the
benchmark's own span tracer (``bench/spans.py``), so a change that moves a
pinned count fails tier-1 instead.  Nothing under ``bench/`` is written.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from gadgetgraph import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


workloads = _load("workloads")
spans = _load("spans")


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_traced_commands_make_the_pinned_calls(tmp_path, name):
    wl = workloads.BUILDERS[name](1, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    counts = []
    try:
        for k, command in enumerate(wl.commands[:2]):
            argv = [arg.replace("{out}", str(tmp_path / f"c{k}")) for arg in command]
            tracer.begin()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            counts.append({span: calls for span, (calls, _) in tracer.collect().items()})
    finally:
        tracer.restore()
    assert tracer.leftovers() == []
    for seen in counts:
        assert {span: seen.get(span, 0) for span in wl.expected_calls} == wl.expected_calls
    assert counts[0] == counts[-1]
