"""Spans around calls into the repository's layers, from outside it.

The benchmark does not trace inside the program.  It wraps public entry
points at the module attribute their callers look up (for example
``schedule_program`` where :mod:`repro.backends.mib` imported it, or a
method on its class) and records one span per call: name, start, end,
parent span and request id.  Spans are kept in memory and written out
when the traced process ends.

A span's layer is the first part of its name (``serve``, ``io``,
``backends``, ``solver``, ``linalg``, ``compiler``, ``arch``).  A
layer's *self time* is its spans' durations minus the part their child
spans cover.  Serve requests cross threads (an HTTP handler thread
admits, a worker thread solves); the worker's root span is linked to
the admitting handler span through the queued request's id, so the
handler's self time holds the queue wait and the dispatch window.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = [
    "LAYERS",
    "Recorder",
    "TARGETS",
    "layer_self_ms",
    "load_spans",
    "span_stats",
]

LAYERS = ("serve", "io", "backends", "solver", "linalg", "compiler", "arch")

# Span fields, in the order they are stored and written.
SID, PARENT, NAME, T0, T1, RID, EXTRA = range(7)

_KERNEL_EMITTERS = (
    "load_vector", "store_vector", "permute_vector", "gather", "set_zero",
    "set_from_stream", "axpby", "ew_prod", "ew_add", "ew_sub", "ew_recip",
    "ew_copy", "ew_scale", "stream_mul", "stream_axpy", "clip", "spmv",
    "spmv_transpose", "lsolve_columns", "lsolve_rows", "ltsolve", "dsolve",
    "factorization",
)


def _lanes(args, kwargs, result):
    return len(args[1])


def _schedule_size(args, kwargs, result):
    """Slots, issued ops and busy slots of a schedule (as
    ``Schedule.mean_issue_width`` counts them)."""
    busy = [len(bundle) for bundle in result.slots if bundle]
    return [result.n_slots, sum(busy), len(busy)]


def _returned(args, kwargs, result):
    return float(result)


# (module, attribute path, span name, extra) — the entry points the
# benchmark times.  ``extra`` turns a call into a number kept with its
# span (lanes of a batch pass, size of a schedule, a granted window).
TARGETS = (
    ("repro.serve.server", "ServeServer.handle_solve", "serve.handle", None),
    ("repro.serve.server", "ServeServer.handle_sequence", "serve.handle", None),
    ("repro.serve.server", "ServeServer.handle_scenarios", "serve.handle", None),
    ("repro.serve.server", "problem_from_dict", "io.decode", None),
    ("repro.serve.server", "problem_with_values", "io.decode", None),
    ("repro.serve.pool", "SolverPool.fingerprint", "serve.fingerprint", None),
    ("repro.serve.pool", "SolverPool.solve", "serve.pool_solve", None),
    ("repro.serve.pool", "SolverPool.solve_sequence", "serve.solve_sequence", None),
    ("repro.serve.pool", "SolverPool.solve_batch", "serve.pool_solve_batch", None),
    ("repro.serve.controller", "BatchController.dispatch_window",
     "serve.dispatch_window", _returned),
    ("repro.serve.engine", "SolveEngine._process", "serve.process", None),
    ("repro.backends.mib", "MIBSolver.__init__", "backends.construct", None),
    ("repro.backends.mib", "MIBSolver.update_values", "backends.update_values", None),
    ("repro.backends.mib", "MIBSolver.solve", "backends.host_solve", None),
    ("repro.backends.mib", "MIBSolver.solve_batch", "backends.solve_batch", _lanes),
    ("repro.backends.session", "SolveSession.step", "backends.session_step", None),
    ("repro.solver.admm", "OSQPSolver.__init__", "solver.setup", None),
    ("repro.solver.admm", "OSQPSolver.solve", "solver.admm", None),
    ("repro.solver.direct", "DirectKKTSolver.solve", "solver.kkt_solve", None),
    ("repro.solver.indirect", "IndirectKKTSolver.solve_reduced", "solver.kkt_solve", None),
    ("repro.solver.direct", "amd_order", "linalg.amd", None),
    ("repro.solver.direct", "symbolic_factor", "linalg.symbolic", None),
    ("repro.solver.direct", "ldl_factor", "linalg.ldl_factor", None),
    ("repro.solver.direct", "ldl_refactor", "linalg.ldl_refactor", None),
    ("repro.linalg.ldl", "solve_lower_unit_columns", "linalg.triangular", None),
    ("repro.linalg.ldl", "solve_lower_unit_rows", "linalg.triangular", None),
    ("repro.linalg.ldl", "solve_upper_unit_transpose", "linalg.triangular", None),
    ("repro.backends.mib", "schedule_program", "compiler.schedule", _schedule_size),
    *(
        ("repro.compiler.kernels", f"KernelBuilder.{name}", "compiler.lower", None)
        for name in _KERNEL_EMITTERS
    ),
    ("repro.backends.mib", "compile_trace", "arch.trace_compile", None),
    ("repro.arch.trace", "CompiledTrace.replay", "arch.replay", None),
    ("repro.arch.trace", "CompiledTrace.replay_batch", "arch.replay_batch", None),
)


class Recorder:
    """Collects spans from wrapped entry points (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        # Queued request id -> (request id, admitting span id).
        self._links: dict[int, tuple[int, int]] = {}
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, extra):
        rec = self
        root = name == "serve.handle"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = rec._local
            stack = rec._stack()
            sid = next(rec._ids)
            if root:
                local.rid = next(rec._rids)
            parent = stack[-1] if stack else getattr(local, "link", 0)
            stack.append(sid)
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.monotonic()
                stack.pop()
            rec.spans.append(
                (
                    sid,
                    parent,
                    name,
                    t0,
                    t1,
                    getattr(local, "rid", 0),
                    None if extra is None else extra(args, kwargs, result),
                )
            )
            return result

        return wrapper

    def _wrap_submit(self, fn):
        """``SolveEngine.submit``: remember which request and span
        admitted the queued request."""
        rec = self

        @functools.wraps(fn)
        def submit(engine, request):
            stack = rec._stack()
            rec._links[request.request_id] = (
                getattr(rec._local, "rid", 0),
                stack[-1] if stack else 0,
            )
            return fn(engine, request)

        return submit

    def _wrap_process(self, fn):
        """``SolveEngine._process``: run the worker-side span under the
        admitting request's id, as a child of its handler span."""
        rec = self
        inner = self._wrap("serve.process", fn, None)

        @functools.wraps(fn)
        def process(engine, request):
            local = rec._local
            local.rid, local.link = rec._links.pop(request.request_id, (0, 0))
            try:
                return inner(engine, request)
            finally:
                local.rid, local.link = 0, 0

        return process

    def install(self) -> "Recorder":
        """Wrap every target in :data:`TARGETS` (imports the modules)."""
        targets = list(TARGETS) + [
            ("repro.serve.engine", "SolveEngine.submit", None, None)
        ]
        for module_name, path, name, extra in targets:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if owners else getattr(owner, attr)
            if path == "SolveEngine.submit":
                wrapped = self._wrap_submit(original)
            elif path == "SolveEngine._process":
                wrapped = self._wrap_process(original)
            else:
                wrapped = self._wrap(name, original, extra)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_spans(path: str) -> list[tuple]:
    with open(path) as fh:
        return [tuple(span) for span in json.load(fh)]


def _self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time (seconds) of every span: its duration minus the part of
    its interval its children cover."""
    by_id = {s[SID]: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is None:
            continue
        lo = max(s[T0], parent[T0])
        hi = min(s[T1], parent[T1])
        if hi > lo:
            covered[parent[SID]] += hi - lo
    return {
        s[SID]: max(0.0, (s[T1] - s[T0]) - covered[s[SID]]) for s in spans
    }


def span_stats(spans: list[tuple], lo: float, hi: float) -> dict:
    """Per span name, over spans that started in ``[lo, hi]``: calls,
    inclusive seconds of the outermost spans of that name, and the
    extras they carried."""
    window = [s for s in spans if lo <= s[T0] <= hi]
    by_id = {s[SID]: s for s in window}
    stats: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "seconds": 0.0, "extras": []}
    )
    for s in window:
        entry = stats[s[NAME]]
        entry["calls"] += 1
        if s[EXTRA] is not None:
            entry["extras"].append(s[EXTRA])
        # Count nested spans of the same name once (a kernel emitter
        # calling another emitter).
        parent = by_id.get(s[PARENT])
        while parent is not None and parent[NAME] != s[NAME]:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            entry["seconds"] += s[T1] - s[T0]
    return dict(stats)


def layer_self_ms(spans: list[tuple], lo: float, hi: float) -> dict[str, float]:
    """Total self time per layer (ms) of the spans started in ``[lo, hi]``,
    and the time covered by root spans under ``"covered"``."""
    window = [s for s in spans if lo <= s[T0] <= hi]
    selfs = _self_times(window)
    ids = {s[SID] for s in window}
    out = {layer: 0.0 for layer in LAYERS}
    covered = 0.0
    for s in window:
        layer = s[NAME].split(".", 1)[0]
        out[layer] += 1e3 * selfs[s[SID]]
        if s[PARENT] not in ids:
            covered += 1e3 * (s[T1] - s[T0])
    out["covered"] = covered
    return out
