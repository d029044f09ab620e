"""Benchmark of the gadgetgraph command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs to be installed.  The
workloads (forward, reverse, compile, maxcut) are defined in workloads.py;
bench/metric_map.json says why each was chosen and which per-layer metric
should move which end-to-end metric on which workload.

One run:

1. pins the BLAS pool to one thread (OPENBLAS_NUM_THREADS=1 and
   GADGETGRAPH_THREADS=1, set here before numpy is imported, and inherited
   by every child process);
2. times the cold start ``SETUP_PROBES`` times, each in a fresh interpreter
   (import of gadgetgraph.cli plus the first BLAS call);
3. writes the workload's seeded input files;
4. starts worker.py in a fresh process, which runs one warm-up command,
   reads its own peak memory, and then runs CLI commands back to back for S
   seconds (with ``--trace 1``: S/2 seconds untraced, then S/2 seconds with
   every public function of the package wrapped in a span), timing a fixed
   reference kernel around each command;
5. checks every command's output with the package-independent code of
   checks.py, shows that each checker rejects one corrupted output, and
   checks the traced call counts against counts read off the code.

Times are reported in reference seconds (see ``REFERENCE_S``); the record
keeps the raw wall times too.  Standard output ends with two JSON lines: a
record of the environment, the input sizes and the tail latency, and then
the result, whose metrics are the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import os

# Before anything can import numpy, in this process and its children.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "GADGETGRAPH_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from hashlib import sha256  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import TRACED_MODULES  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("forward", "reverse", "compile", "maxcut")
SETUP_PROBES = 7

#: Time of worker.ReferenceKernel on an unloaded core of the machine the
#: baseline was taken on (2-core shared x86-64 sandbox, CPython 3.11, numpy
#: with OpenBLAS on 1 thread).  That machine's speed swings by up to 40% for
#: tens of seconds at a time, so every time the benchmark reports is first
#: scaled to this reference speed.
REFERENCE_S = 0.008
CHILD_TIMEOUT_S = 150

#: Per-layer metric prefixes that sum several spans; besides these, each
#: traced module has <module>.self_s and <module>.calls.
GROUPS = {
    "games.load": ("games.load_game", "games.load_game_strategy", "games.load_coloring_strategy"),
    "games.to_json": ("games.game_to_json", "games.game_strategy_to_json", "games.coloring_strategy_to_json"),
    "games.strategy_init": ("games.GameStrategy.__post_init__", "games.ColoringStrategy.__post_init__"),
}

#: Span metrics beyond the per-layer totals: "<span or group>.<calls|self_s>".
SPAN_METRICS = (
    "games.load.self_s", "games.to_json.self_s",
    "games.strategy_init.calls", "games.strategy_init.self_s",
    "games.sync_value.calls", "games.sync_value.self_s",
    "linalg.require_pvm.calls", "linalg.require_pvm.self_s",
    "linalg.spectral_projection_half.calls", "linalg.spectral_projection_half.self_s",
    "graphs.build_graph.calls", "graphs.build_graph.self_s",
    "graphs.export_graph.calls", "graphs.export_graph.self_s",
    "forward.forward_translate.calls", "forward.forward_translate.self_s",
    "forward.coloring_value.calls", "forward.coloring_value.self_s",
    "forward.certify_forward.self_s",
    "rounding.perturb_two.calls", "rounding.perturb_two.self_s",
    "reverse.symmetrize.calls", "reverse.symmetrize.self_s",
    "reverse.compute_diagnostics.self_s",
    "reverse.control_compressions.calls", "reverse.control_compressions.self_s",
    "reverse.certify_reverse_lemmas.self_s", "reverse.reverse_translate.self_s",
    "rounding.perturb_pvm.calls", "rounding.perturb_pvm.self_s",
    "rounding.perturb_pvm_with_reports.self_s",
    "maxcut.value_bridge.self_s",
    "maxcut.max3cut_bruteforce.calls", "maxcut.max3cut_bruteforce.self_s",
    "maxcut.unitary_cut_value.calls", "maxcut.unitary_cut_value.self_s",
    "maxcut.roots_identity_check.self_s",
)


def _worker(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )


def _git_commit():
    """The checkout's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "blas": blas,
        "pinned": PINNED,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }


# -- output checks ---------------------------------------------------------


def _fingerprint(record: dict, suffixes) -> str:
    h = sha256(record["stdout"].replace(record["out"], "{out}").encode())
    for suffix in suffixes:
        h.update(Path(record["out"] + suffix).read_bytes())
    return h.hexdigest()


def _out_bytes(record: dict, suffixes) -> int:
    return len(record["stdout"].encode()) + sum(
        Path(record["out"] + s).stat().st_size for s in suffixes
    )


def check_outputs(wl, records: list) -> dict:
    """Verify every command; repeats of an input must be byte-identical to
    its first output, which is verified in full."""
    from checks import CHECKERS

    load, verify, corrupt = CHECKERS[wl.name]
    first = {}  # input index -> (fingerprint, problems, out bytes)
    problems_seen = []
    failed = 0
    self_test = None
    for rec in records:
        if rec["rc"] != 0 or rec["error"]:
            problems = [f"exit {rec['rc']}: {rec['error'] or rec['stdout'][-200:]}"]
        else:
            fp = _fingerprint(rec, wl.outputs)
            if rec["input"] not in first:
                try:
                    parsed = load(rec["stdout"], rec["out"])
                    problems = verify(parsed, wl.reference, rec["input"])
                except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
                    parsed, problems = None, [f"unreadable output: {type(exc).__name__}: {exc}"]
                if not problems and self_test is None:
                    try:
                        self_test = bool(verify(corrupt(parsed), wl.reference, rec["input"]))
                    except (ValueError, KeyError, IndexError, TypeError):
                        self_test = True
                first[rec["input"]] = (fp, problems, _out_bytes(rec, wl.outputs))
            else:
                fp0, problems0, _ = first[rec["input"]]
                problems = problems0 if fp == fp0 else ["output differs from an earlier run of the same input"]
        if problems:
            failed += 1
            problems_seen.extend(problems[:3])
    return {
        "failed": failed,
        "problems": problems_seen[:10],
        "self_test": self_test,
        "out_bytes": statistics.fmean(b for _, _, b in first.values()) if first else 0.0,
    }


# -- metrics ---------------------------------------------------------------


def scaled(seconds: float, measured: dict) -> float:
    """A wall time in reference seconds: scaled by how much slower than
    REFERENCE_S the reference kernel ran around it."""
    return seconds * REFERENCE_S / measured["reference_s"]


def _tail(samples: list) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return {"percentile": None, "value": None, "samples": n}
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11], "samples": n}


def span_metrics(traced: list) -> dict:
    """Per-command means of the per-layer span metrics over traced commands."""
    totals: dict = {}
    for rec in traced:
        for name, (calls, self_s) in rec["spans"].items():
            self_s = scaled(self_s, rec)
            keys = [name.split(".", 1)[0], name]
            keys += [g for g, members in GROUPS.items() if name in members]
            for key in keys:
                entry = totals.setdefault(key, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
    n = len(traced)
    out = {}
    for layer in TRACED_MODULES:
        calls, self_s = totals.get(layer, (0, 0.0))
        out[f"{layer}.self_s"] = (self_s / n, "s")
        out[f"{layer}.calls"] = (calls / n, "count")
    for metric in SPAN_METRICS:
        key, kind = metric.rsplit(".", 1)
        calls, self_s = totals.get(key, (0, 0.0))
        out[metric] = (calls / n, "count") if kind == "calls" else (self_s / n, "s")
    return out


def check_calls(wl, traced: list) -> list:
    """Traced call counts must equal the counts read off the code, and every
    traced command of one run must make exactly the same calls."""
    problems = []
    counts = [{name: c for name, (c, _) in rec["spans"].items()} for rec in traced]
    for name, expected in wl.expected_calls.items():
        seen = sorted({c.get(name, 0) for c in counts})
        if seen != [expected]:
            problems.append(f"{name}: expected {expected} calls per command, saw {seen}")
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced commands")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gadgetgraph" / "cli.py").is_file():
        print(f"gadgetgraph sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    probes = [json.loads(_worker("probe").stdout) for _ in range(SETUP_PROBES)]
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            work = Path(tmp)
            (work / "out").mkdir()
            wl = workloads.BUILDERS[args.workload](args.seed, work)
            plan = {"commands": wl.commands, "outdir": str(work / "out"),
                    "seconds": args.seconds, "trace": bool(args.trace)}
            (work / "plan.json").write_text(json.dumps(plan))
            _worker("run", str(work / "plan.json"), str(work / "result.json"))
            result = json.loads((work / "result.json").read_text())
            checked = check_outputs(wl, result["records"])
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    records = result["records"]
    timed = [r for r in records if r["phase"] == "timed"]
    traced = [r for r in records if r["phase"] == "traced"]
    problems = list(checked["problems"])
    if checked["self_test"] is None:
        problems.append(f"no correct {wl.name} output to test the checker with")
    elif not checked["self_test"]:
        problems.append(f"the {wl.name} checker accepted a corrupted output")
    if args.trace:
        problems += check_calls(wl, traced)
        problems += [f"wrapper left bound at {name}" for name in result["wrappers_left"]]
    sizes = dict(wl.sizes, out_bytes=checked["out_bytes"])
    graph_line = re.search(r"^graph: (\d+) vertices, (\d+) edges$", records[0]["stdout"], re.M)
    if graph_line:
        sizes.update(V=int(graph_line[1]), E=int(graph_line[2]))

    op_s = [scaled(r["dt"], r) for r in timed]
    p50 = statistics.median(op_s)
    if args.trace:
        metrics = span_metrics(traced)
        metrics["cli.out_bytes"] = (checked["out_bytes"], "bytes")
        for key in ("import_s", "blas_first_call_s"):
            metrics[f"setup.{key}"] = (statistics.median(scaled(p[key], p) for p in probes), "s")
        traced_p50 = statistics.median(scaled(r["dt"], r) for r in traced)
        metrics["trace.overhead_ratio"] = (traced_p50 / p50, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(scaled(p["import_s"] + p["blas_first_call_s"], p) for p in probes), "s"),
            "ops_per_s": (len(op_s) / math.fsum(op_s), "1/s"),
            "op_s.p50": (p50, "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "ok_ratio": (1.0 - checked["failed"] / len(records), "ratio"),
        }
    wall = [r["dt"] for r in timed]
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "sizes": sizes,
        "load": "closed loop, 1 client, in-process CLI calls",
        "op_s": {"p50": p50, "tail": _tail(op_s)},
        "wall": {"op_s.p50": statistics.median(wall), "tail": _tail(wall),
                 "ops_per_s": len(wall) / math.fsum(wall),
                 "reference_s.p50": statistics.median(r["reference_s"] for r in timed)},
        "setup_probes": probes, "problems": problems,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not problems and checked["failed"] == 0,
        "attempted": len(records),
        "failed": checked["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
