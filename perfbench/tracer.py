"""Span recorder that wraps fedbilevel's layers from outside the package.

``Tracer.install()`` replaces every public module-level function of the traced
modules at *every* module attribute that binds it (``aggregate_mean`` is bound
in ``runtime``, ``lower``, ``hypergrad``, ``drivers`` and the package itself),
and the oracle, lane and evaluator methods on their classes. Each call then
records one span: name, start, end, parent span and the tracer's run id.
Spans stay in memory; ``write()`` dumps them when the run ends.

Self time is a span's duration minus the part covered by its child spans;
busy time is the inclusive duration, counted once when a name nests within
itself.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED_MODULES = ("rng", "problems", "quadratic", "hyperrep", "runtime",
                  "lower", "hypergrad", "drivers", "oracle")

# (module, class, attribute, span name): methods patched on their classes
TRACED_METHODS = (
    ("rng", "RngStream", "generator", "rng.generator"),
    ("problems", "BilevelProblem", "grad_lower_y", "problems.grad_lower_y"),
    ("problems", "BilevelProblem", "grad_upper_x", "problems.grad_upper_x"),
    ("problems", "BilevelProblem", "grad_upper_y", "problems.grad_upper_y"),
    ("problems", "BilevelProblem", "hvp_lower_yy", "problems.hvp_lower_yy"),
    ("problems", "BilevelProblem", "jvp_lower_xy", "problems.jvp_lower_xy"),
    ("drivers", "Evaluator", "record", "drivers.Evaluator.record"),
    ("drivers", "Evaluator", "hypergradient", "drivers.Evaluator.hypergradient"),
)


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, package, run_id: str):
        self.package = package
        self.run_id = run_id
        self.names: list[str] = []
        self.stats: list[list[int]] = []   # per name: [calls, self_ns, busy_ns]
        self.spans: list = []              # (name idx, parent span idx, start_ns, end_ns)
        self._index: dict[str, int] = {}
        self._stack: list[int] = []        # open span indices
        self._covered: list[int] = []      # ns covered by children, per open span
        self._depth: list[int] = []        # open spans per name
        self._patches: list = []           # (owner, attribute, original)
        self.bindings: dict[str, int] = {} # span name -> attributes patched

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0, 0])
            self._depth.append(0)
        return idx

    def wrap(self, name: str, fn):
        idx = self._name_index(name)
        stat = self.stats[idx]
        spans, stack, covered, depth = self.spans, self._stack, self._covered, self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            covered.append(0)
            depth[idx] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[sid] = (idx, parent, t0, t1)
                stat[0] += 1
                stat[1] += dur - covered.pop()
                depth[idx] -= 1
                if depth[idx] == 0:
                    stat[2] += dur
                if covered:
                    covered[-1] += dur
        return traced

    # -- patching ----------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        mods = [self.package]
        mods += [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
        return mods

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.bindings = {}
        mods = self._modules()
        originals = {}  # id(fn) -> (fn, span name)
        for short in TRACED_MODULES:
            mod = sys.modules[f"{self.package.__name__}.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, f"{short}.{attr}")
        wrappers = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(hit[1], obj)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
                self.bindings[hit[1]] = self.bindings.get(hit[1], 0) + 1
        for short, cls_name, attr, name in TRACED_METHODS:
            cls = getattr(sys.modules[f"{self.package.__name__}.{short}"], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
            self.bindings[name] = 1

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """name -> {calls, self_s, busy_s} for every name that ran."""
        return {name: {"calls": c, "self_s": s * 1e-9, "busy_s": b * 1e-9}
                for name, (c, s, b) in zip(self.names, self.stats) if c}

    def self_s(self) -> float:
        """Summed self time of every span: the time spent inside the library."""
        return sum(s for _, s, _ in self.stats) * 1e-9

    def write(self, path: str) -> None:
        """One header line, then one tab-separated line per span."""
        with open(path, "w") as fh:
            fh.write(f"# run_id={self.run_id} columns=span\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for sid, (idx, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{names[idx]}\t{t0}\t{t1}\n")
