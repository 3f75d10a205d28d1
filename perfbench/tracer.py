"""Outside-in tracer for poql: timed wrappers swapped in for public functions.

The tracer never edits the program. `install()` replaces each traced
function at every module binding through which callers resolve it (for
example both `poql.learn.run_ioalergia` and `poql.agent.run_ioalergia`), and
`uninstall()` puts the originals back.

Two kinds of wrapper exist:

* span wrappers record one span per call: name, start, end, parent span and
  run id. Spans are kept in memory and written out by `write()`.
* counted wrappers are for per-step functions called hundreds of thousands
  of times per run. They add a call count and a total time to the innermost
  open span instead of recording a span each.

A span's self time is its duration minus the time of its child spans and of
the counted calls made directly inside it. GC pauses, taken from
`gc.callbacks`, are charged to the innermost open span. Work the tracer does
for itself, such as walking a prefix tree to count its nodes, runs with the
clock paused, so it is charged to no span.

A traced name that the program no longer defines is recorded in `absent` and
its metrics read 0, so a refactor that renames a function does not crash the
tracer.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run_id",
                 "child_s", "gc_s", "counted")

    def __init__(self, sid, name, start, parent, run_id):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id
        self.child_s = 0.0
        self.gc_s = 0.0
        # name -> [calls, total seconds, extra count]
        self.counted: dict[str, list] = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "run": self.run_id,
            "self_s": self.self_s, "gc_s": self.gc_s,
            "counted": {k: {"calls": c, "s": s, "extra": e}
                        for k, (c, s, e) in sorted(self.counted.items())},
        }


def _tree_counts(tree) -> tuple[int, int]:
    """(nodes, nodes under a frequency-1 edge) of a freshly built prefix tree."""
    nodes = tails = 0
    stack = [(tree.root, False)]
    while stack:
        node, tail = stack.pop()
        nodes += 1
        tails += tail
        for key, child in node.children.items():
            stack.append((child, tail or node.freq[key] == 1))
    return nodes, tails


def _dir_bytes(path, names) -> int:
    return sum((Path(path) / n).stat().st_size
               for n in names if (Path(path) / n).exists())


class Tracer:
    """Spans and counters for one traced process; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.gc_collections = 0
        self.gc_s = 0.0
        self._paused_s = 0.0
        self._pausing = False
        self._gc_start = None
        self._patches: list[tuple[object, str, object]] = []

    # -- clock, spans and GC ------------------------------------------------

    def now(self) -> float:
        return clock() - self._paused_s

    @contextmanager
    def paused(self):
        t0 = clock()
        self._pausing = True
        try:
            yield
        finally:
            self._pausing = False
            self._paused_s += clock() - t0

    def open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, self.now(), parent, self.run_id)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.now()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self.stack:
            self.stack[-1].child_s += span.end - span.start

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = clock()
        elif self._gc_start is not None:
            dt = clock() - self._gc_start
            self._gc_start = None
            self.gc_collections += 1
            self.gc_s += dt
            if self.stack and not self._pausing:
                self.stack[-1].gc_s += dt

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def set(self, counter: str, value: float) -> None:
        self.counters[counter] = value

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                with tracer.paused():
                    args = before(tracer, args)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                with tracer.paused():
                    after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counted_wrapper(self, name, fn, extra=None):
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            span = stack[-1]
            span.child_s += dt
            entry = span.counted.get(name)
            if entry is None:
                entry = span.counted[name] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += dt
            if extra is not None and extra(result):
                entry[2] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Swap the wrappers in at every poql module binding of each target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "poql" or n.startswith("poql.")) and m is not None]
        for module_name, qualname, kind, hooks in TARGETS:
            name = f"{module_name.split('.')[-1]}.{qualname.split('.')[-1]}"
            try:
                module = importlib.import_module(module_name)
                owner = module
                for part in qualname.split(".")[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, qualname.split(".")[-1])
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            if kind == "span":
                wrapper = self._span_wrapper(name, original, **hooks)
            else:
                wrapper = self._counted_wrapper(name, original, **hooks)
            attr = qualname.split(".")[-1]
            if owner is not module:  # a method: patch the class only
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        out = {name: 0 for name in LAYER_COUNTS}
        out.update({name: 0.0 for name in LAYER_TIMES})
        for span in self.spans:
            calls_key, s_key, gc_key = (f"{span.name}.calls", f"{span.name}.s",
                                        f"{span.name}.gc_s")
            if calls_key in out:
                out[calls_key] += 1
            if s_key in out:
                out[s_key] += span.self_s
            if gc_key in out:
                out[gc_key] += span.gc_s
            for name, (calls, total, extra) in span.counted.items():
                if f"{name}.calls" in out:
                    out[f"{name}.calls"] += calls
                if f"{name}.s" in out:
                    out[f"{name}.s"] += total
                extra_key = EXTRA_COUNTS.get(name)
                if extra_key:
                    out[extra_key] += extra
                if name == "envs.step" and span.name == "agent.evaluate":
                    out["agent.evaluate.steps"] += calls
        for key, value in self.counters.items():
            out[key] = value
        out["gc.collections"] = self.gc_collections
        out["gc.s"] = self.gc_s
        return out

    def counts(self) -> dict[str, float]:
        """The deterministic part of `metrics()`: the program's counts.

        GC collections are left out: they depend on the heap the process
        already holds, not only on the work traced.
        """
        return {k: v for k, v in self.metrics().items()
                if k in LAYER_COUNTS and k != "gc.collections"}

    def write(self, fh) -> None:
        """Write every span as one JSON line, then a line of counters."""
        for span in self.spans:
            fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        fh.write(json.dumps({"run": self.run_id, "counters": self.counters,
                             "absent": self.absent}, sort_keys=True) + "\n")


# -- hooks that compute counters outside the timed region ----------------------

def _materialize_first(args):
    """Turn an iterable first argument into a list so a hook can read it."""
    if args and not isinstance(args[0], (list, tuple)):
        args = (list(args[0]), *args[1:])
    return args


def _ioalergia_before(tracer, args):
    args = _materialize_first(args)
    tracer.add("learn.input_steps", sum(len(steps) for _, steps in args[0]))
    return args


def _ioalergia_after(tracer, args, kwargs, model):
    tracer.set("learn.model_states", len(model.states))


def _iofpta_after(tracer, args, kwargs, tree):
    nodes, tails = _tree_counts(tree)
    tracer.add("learn.iofpta.nodes", nodes)
    tracer.add("learn.iofpta.tail_nodes", tails)


def _replay_before(tracer, args):
    args = (*args[:2], *_materialize_first(args[2:]))
    tracer.add("agent.replay.steps", sum(len(ep.steps) for ep in args[2]))
    return args


def _replay_after(tracer, args, kwargs, result):
    tracer.set("agent.q_rows", len(args[0]))


def _save_after(tracer, args, kwargs, result):
    tracer.add("checkpoint.bytes_written", _dir_bytes(args[0], CHECKPOINT_FILES))


def _load_after(tracer, args, kwargs, result):
    tracer.add("checkpoint.bytes_read", _dir_bytes(
        args[0], ("config.json", "qtable.txt", "model.json", "traces.txt")))


CHECKPOINT_FILES = ("config.json", "model.json", "model.dot", "qtable.txt",
                    "traces.txt")

# (module, qualified name, kind, hooks). Per-step functions are "counted".
TARGETS = (
    ("poql.cli", "main", "span", {}),
    ("poql.envs", "make_environment", "span", {}),
    ("poql.envs", "Environment.reset", "counted", {}),
    ("poql.envs", "Environment.step", "counted", {}),
    ("poql.models", "reset_to_initial", "counted", {}),
    ("poql.models", "step_to", "counted",
     {"extra": lambda tracker: not tracker.defined}),
    ("poql.models", "parse_trace", "counted", {}),
    ("poql.models", "read_trace_file", "span", {}),
    ("poql.models", "write_trace_file", "span", {}),
    ("poql.learn", "observation_traces_from_file", "span", {}),
    ("poql.learn", "run_ioalergia", "span",
     {"before": _ioalergia_before, "after": _ioalergia_after}),
    ("poql.learn", "build_iofpta", "span", {"after": _iofpta_after}),
    ("poql.learn", "compatible", "counted", {"extra": bool}),
    ("poql.agent", "train", "span", {}),
    ("poql.agent", "evaluate", "span", {}),
    ("poql.agent", "replay", "span",
     {"before": _replay_before, "after": _replay_after}),
    ("poql.agent", "get_action", "counted", {}),
    ("poql.agent", "update_q_values", "counted", {}),
    ("poql.checkpoint", "save_checkpoint", "span", {"after": _save_after}),
    ("poql.checkpoint", "load_checkpoint", "span", {"after": _load_after}),
    ("poql.beliefs", "build_belief_mdp", "span", {}),
    ("poql.beliefs", "optimal_expected_steps", "span", {}),
)

# Counted wrappers whose third slot counts a property of the result.
EXTRA_COUNTS = {
    "models.step_to": "models.step_to.undefined",
    "learn.compatible": "learn.compatible.accepted",
}

LAYER_COUNTS = (
    "envs.step.calls", "envs.reset.calls",
    "models.step_to.calls", "models.step_to.undefined",
    "models.parse_trace.calls",
    "learn.run_ioalergia.calls", "learn.input_steps",
    "learn.iofpta.nodes", "learn.iofpta.tail_nodes",
    "learn.compatible.calls", "learn.compatible.accepted", "learn.model_states",
    "agent.replay.calls", "agent.replay.steps",
    "agent.update_q_values.calls", "agent.q_rows",
    "agent.get_action.calls", "agent.evaluate.calls", "agent.evaluate.steps",
    "checkpoint.bytes_written", "checkpoint.bytes_read",
    "gc.collections",
)

LAYER_TIMES = (
    "envs.step.s", "models.step_to.s",
    "models.parse_trace.s", "models.write_trace_file.s",
    "learn.run_ioalergia.s", "learn.run_ioalergia.gc_s",
    "learn.build_iofpta.s", "learn.build_iofpta.gc_s",
    "learn.compatible.s",
    "agent.replay.s", "agent.update_q_values.s",
    "agent.get_action.s", "agent.evaluate.s",
    "checkpoint.save_checkpoint.s", "checkpoint.load_checkpoint.s",
    "beliefs.optimal_expected_steps.s", "beliefs.build_belief_mdp.s",
    "cli.main.s", "gc.s",
)
