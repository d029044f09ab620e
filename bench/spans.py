"""Span tracing of gadgetgraph from outside the package.

Every public function of the traced modules, and every validating
``__post_init__`` of their classes, is replaced by a wrapper that records a
span: its own id, the id of the span that called it, its name and its
duration.  The wrapper is rebound under every name any ``gadgetgraph``
module (the package namespace included) imported it by, so calls between
modules are caught as well as calls from the CLI.  ``restore`` puts every
original back, and ``leftovers`` proves that it did.

Spans are kept in memory for one command at a time and folded into
per-name call counts and self times, where a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

#: Modules whose public functions get spans, in the order reports list them.
#: ``instances`` only generates inputs, but ``maxcut`` draws its random
#: unitary families through it, and without spans that time would be
#: billed to ``cli``.
TRACED_MODULES = (
    "cli", "games", "graphs", "forward", "reverse", "rounding", "linalg", "maxcut", "instances",
)

_MARK = "__bench_span__"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, parent id, name index, duration)
        self.stack = [0]  # 0 is the root: no span
        self.next_id = 1
        self._rebound: list[tuple] = []  # (namespace, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                spans.append((sid, parent, index, dt))

        functools.update_wrapper(traced, fn)
        setattr(traced, _MARK, name)
        return traced

    def install(self) -> None:
        """Wrap the traced modules' public functions and post-init hooks."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in TRACED_MODULES:
            mod = sys.modules[f"gadgetgraph.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    hook = vars(obj)["__post_init__"]
                    self._rebound.append((obj, "__post_init__", hook))
                    setattr(obj, "__post_init__", self._wrap(hook, f"{short}.{attr}.__post_init__"))
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, pair[1])

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._rebound):
            setattr(namespace, attr, original)
        self._rebound.clear()

    @staticmethod
    def leftovers() -> list[str]:
        """Names under which a wrapper is still bound anywhere in the package."""
        found = []
        for mod in _package_modules():
            for attr, obj in vars(mod).items():
                if hasattr(obj, _MARK):
                    found.append(f"{mod.__name__}.{attr}")
                elif inspect.isclass(obj) and hasattr(vars(obj).get("__post_init__"), _MARK):
                    found.append(f"{mod.__name__}.{attr}.__post_init__")
        return found

    # -- per-command aggregation -------------------------------------------

    def begin(self) -> None:
        self.spans.clear()
        self.next_id = 1

    def collect(self) -> dict:
        """Fold the spans since ``begin`` into {name: [calls, self seconds]}."""
        covered = [0.0] * self.next_id
        for _, parent, _, dt in self.spans:
            covered[parent] += dt
        out: dict = {}
        for sid, _, index, dt in self.spans:
            entry = out.setdefault(self.names[index], [0, 0.0])
            entry[0] += 1
            entry[1] += dt - covered[sid]
        self.spans.clear()
        return out


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "gadgetgraph" or name.startswith("gadgetgraph."))
    ]
