"""The measured process of the benchmark.

``run.py`` starts this script in a fresh interpreter whose environment pins
the BLAS pool, so that import time and peak memory belong to one workload.

    worker.py probe              print the set-up times of a cold start as JSON
    worker.py run PLAN RESULT    run the plan's commands, write timings as JSON

A run calls ``gadgetgraph.cli.main(argv)`` in-process, one command after the
other (a closed loop with one client), and times each call from outside.
Around each call it also times a fixed pure-Python kernel, from which
``run.py`` scales the call's time to a reference machine speed.
The plan's command lines are cycled; ``{out}`` in an argument becomes a
fresh output prefix per command so that ``run.py`` can check every output
after this process has ended.  With tracing on, an untraced loop comes
first and a traced loop second, and the span wrappers are removed before
the process reports.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
from time import perf_counter


class ReferenceKernel:
    """A fixed amount of work whose time tracks the machine's speed.

    Half of it is pure Python (dict and string work), half numpy (small
    complex products and a sum over 8 MB), so that it slows down with the
    shared machine about as much as the commands do.  Each half counts its
    best of three repeats, so that one interrupt does not count but a slow
    spell of the machine, which lasts seconds, does.
    """

    def __init__(self) -> None:
        import numpy as np

        self.small = np.full((48, 48), 0.01 + 0.01j)
        self.big = np.ones(1_000_000)

    def _python(self) -> None:
        table = {}
        acc = 0
        for i in range(15_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[(i & 255, "k%d" % (i & 63))] = acc

    def _numpy(self) -> None:
        for _ in range(6):
            b = self.small
            for _ in range(8):
                b = self.small @ b
            self.big.sum()

    def __call__(self) -> float:
        total = 0.0
        for part in (self._python, self._numpy):
            best = float("inf")
            for _ in range(3):
                t0 = perf_counter()
                part()
                best = min(best, perf_counter() - t0)
            total += best
        return total


def probe() -> dict:
    """Cold-start cost: importing the CLI (numpy included) and the first BLAS call."""
    t0 = perf_counter()
    import gadgetgraph.cli  # noqa: F401
    import numpy as np

    t1 = perf_counter()
    a = np.ones((48, 48), dtype=np.complex128)
    (a @ a).sum()
    t2 = perf_counter()
    return {"import_s": t1 - t0, "blas_first_call_s": t2 - t1, "reference_s": ReferenceKernel()()}


class Loop:
    def __init__(self, commands: list, outdir: str) -> None:
        from gadgetgraph import cli

        self.main = cli.main
        self.reference = ReferenceKernel()
        self.commands = commands
        self.outdir = outdir
        self.records: list[dict] = []
        self.next_input = 0

    def run_one(self, phase: str) -> dict:
        index = self.next_input % len(self.commands)
        self.next_input += 1
        out = f"{self.outdir}/c{len(self.records):04d}"
        argv = [arg.replace("{out}", out) for arg in self.commands[index]]
        buf = io.StringIO()
        error = None
        # Start every command from a collected heap, as a fresh CLI process
        # does, so that one command's garbage is not collected in the next.
        gc.collect()
        before = self.reference()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped exception is a failed command
            rc, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        record = {
            "phase": phase, "input": index, "out": out, "rc": rc, "error": error,
            "dt": dt, "reference_s": (before + self.reference()) / 2, "stdout": buf.getvalue(),
        }
        self.records.append(record)
        return record

    def closed_loop(self, seconds: float, phase: str, tracer=None) -> None:
        """Run commands back to back until ``seconds`` have passed (at least one)."""
        t_start = perf_counter()
        while True:
            if tracer is not None:
                tracer.begin()
            record = self.run_one(phase)
            if tracer is not None:
                record["spans"] = tracer.collect()
            if perf_counter() - t_start >= seconds:
                return


def run(plan_path: str, result_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    loop = Loop(plan["commands"], plan["outdir"])
    seconds = plan["seconds"] / 2 if plan["trace"] else plan["seconds"]
    loop.run_one("warm")
    # Read after one command: later peaks depend on how many commands the
    # run fits in, and so on the machine's speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.closed_loop(seconds, "timed")
    leftovers = []
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            loop.closed_loop(seconds, "traced", tracer)
        finally:
            tracer.restore()
        leftovers = tracer.leftovers()
    result = {"peak_rss_mb": peak_rss_mb, "wrappers_left": leftovers, "records": loop.records}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1:2] == ["probe"]:
        print(json.dumps(probe()))
    elif sys.argv[1:2] == ["run"] and len(sys.argv) == 4:
        run(sys.argv[2], sys.argv[3])
    else:
        sys.exit("usage: worker.py probe | worker.py run PLAN RESULT")
