"""Timing, span recording and LAPACK counting for the polarkit benchmark.

A :class:`Recorder` wraps every call the benchmark makes into polarkit.
It keeps time on a reference clock (see :class:`SpeedProbe`), so that
the end-to-end figures do not follow the host's speed swings.  Inside
:meth:`Recorder.tracing` it also records a span per call (name, start,
end, parent, operation id) and counts the matrices handed to
``numpy.linalg.svd`` / ``eigh`` / ``eigvalsh`` through wrappers installed
in this process.  With ``memory=True`` it instead tracks the
``tracemalloc`` peak of each call; tracemalloc slows Python allocation
several times over, so those spans give peaks, not times.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
import tracemalloc
import traceback
from collections import defaultdict
from fractions import Fraction
from statistics import median

import numpy as np

MB = 1024.0 * 1024.0

# numpy.linalg entry points counted per matrix, grouped by the counter
# they feed.  polarkit calls them as np.linalg.<name> at call time, so
# replacing the module attribute is enough.
COUNTED = {"svd": "svd_mats", "eigh": "eigh_mats", "eigvalsh": "eigh_mats"}


def _matrices(a) -> int:
    """Matrices in an (..., n, n) argument: a (k, n, n) stack counts as k."""
    return math.prod(np.shape(a)[:-2])


class SpeedProbe:
    """A fixed small kernel whose run time tracks the host's current speed.

    On a shared host the same code runs 1.5 to 1.9 times slower for seconds
    at a time.  The kernel mixes the two kinds of work polarkit does, small
    dense LAPACK/BLAS calls and Python arithmetic, and takes REF_S seconds
    at the reference speed.  Its functions are bound here, before any
    counting wrapper is installed, so its SVDs are never counted.
    """

    REF_S = 0.0013
    INTERVAL_S = 0.1

    def __init__(self):
        rng = np.random.default_rng(20021)
        self._x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self._svd = np.linalg.svd

    def kernel(self) -> float:
        start = time.perf_counter()
        x = self._x
        for _ in range(20):
            self._svd(x, compute_uv=False)
            x @ x
        acc = Fraction(0)
        for i in range(1, 80):
            acc += Fraction(1, i)
        return time.perf_counter() - start

    def factor(self, samples: int = 3) -> float:
        """Reference seconds per wall second right now."""
        return self.REF_S / median([self.kernel() for _ in range(samples)])


class Span:
    __slots__ = (
        "id", "op", "parent", "name", "phase", "memory", "tags", "start", "end", "ref_s",
        "svd_mats", "eigh_mats", "peak_mb", "_base", "_peak", "_svd0", "_eigh0", "_ref0",
    )

    def to_json(self, t0: float) -> dict:
        return {
            "id": self.id,
            "op": self.op,
            "parent": self.parent,
            "name": self.name,
            "phase": self.phase,
            "memory": self.memory,
            "tags": self.tags,
            "start": self.start - t0,
            "end": self.end - t0,
            "ref_s": self.ref_s,
            "svd_mats": self.svd_mats,
            "eigh_mats": self.eigh_mats,
            "peak_mb": self.peak_mb,
        }


class Recorder:
    """Times calls into the program; records spans while tracing.

    Time is kept on a reference clock: wall time scaled by the speed
    factor of the latest probe sample, taken every INTERVAL_S while
    :meth:`sampling` is active.  The probe's own run time is left out.
    """

    def __init__(self):
        self.probe = SpeedProbe()
        self.t0 = time.perf_counter()
        self.speed = 1.0
        self._ref_base = 0.0
        self._wall_base = self.t0
        self.paused = 0.0
        self.busy = 0.0
        self.wall_busy = 0.0
        self.calls: list[float] = []
        self.by_key: dict[tuple, float] = defaultdict(float)
        self.traced = False
        self.memory = False
        self.phase = "setup"
        self.spans: list[Span] = []
        self.counts = {"svd_mats": 0, "eigh_mats": 0}
        self._stack: list[Span] = []
        self._tags: tuple = ()
        self._op = 0
        self._ops = 0
        self._saved: dict[str, object] = {}

    # -- reference clock ----------------------------------------------------

    def ref_now(self) -> float:
        return self._ref_base + (time.perf_counter() - self._wall_base) * self.speed

    def _sample(self, *_):
        ref = self.ref_now()
        start = time.perf_counter()
        self.speed = self.probe.REF_S / self.probe.kernel()
        self._ref_base = ref
        self._wall_base = time.perf_counter()
        self.paused += self._wall_base - start

    @contextlib.contextmanager
    def sampling(self):
        """Sample the host's speed every INTERVAL_S inside the block."""
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        interval = self.probe.INTERVAL_S
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    # -- calls -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed call named ``name``."""
        span = self._open(name) if self.traced else None
        paused = self.paused
        ref = self.ref_now()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start - (self.paused - paused)
            dt = self.ref_now() - ref
            self.busy += dt
            self.wall_busy += wall
            self.calls.append(dt)
            self.by_key[(self._tags, name)] += dt
            if span is not None:
                self._close(span)

    @contextlib.contextmanager
    def op(self, label: str, **tags):
        """Group the calls of one operation: they share an id and tags."""
        self._ops += 1
        saved_tags, saved_op = self._tags, self._op
        self._tags = tuple(sorted(tags.items()))
        self._op = self._ops
        span = self._open(label) if self.traced else None
        try:
            yield
        finally:
            if span is not None:
                self._close(span)
            self._tags, self._op = saved_tags, saved_op

    def start_pass(self):
        self.busy = 0.0
        self.wall_busy = 0.0
        self.calls = []

    # -- tracing -----------------------------------------------------------

    @contextlib.contextmanager
    def tracing(self, phase: str, memory: bool = False):
        """Record spans and LAPACK counts inside the block, or with
        ``memory`` the allocation peak of each span."""
        self.phase = phase
        self.memory = memory
        self._install()
        if memory:
            tracemalloc.start()
        self.traced = True
        try:
            yield
        finally:
            self.traced = False
            if memory:
                tracemalloc.stop()
            self._restore()

    def _install(self):
        for fname, counter in COUNTED.items():
            orig = getattr(np.linalg, fname)
            self._saved[fname] = orig
            setattr(np.linalg, fname, self._counting(orig, counter))

    def _restore(self):
        for fname, orig in self._saved.items():
            setattr(np.linalg, fname, orig)
        self._saved.clear()

    def _counting(self, fn, counter: str):
        counts = self.counts

        def wrapper(a, *args, **kwargs):
            counts[counter] += _matrices(a)
            return fn(a, *args, **kwargs)

        return wrapper

    def _open(self, name: str) -> Span:
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent._peak = max(parent._peak, peak)
            tracemalloc.reset_peak()
        s = Span()
        s.id = len(self.spans)
        s.op = self._op
        s.parent = self._stack[-1].id if self._stack else None
        s.name = name
        s.phase = self.phase
        s.memory = self.memory
        s.tags = dict(self._tags)
        s._base = cur
        s._peak = cur
        s._svd0 = self.counts["svd_mats"]
        s._eigh0 = self.counts["eigh_mats"]
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        s._ref0 = self.ref_now()
        return s

    def _close(self, s: Span):
        s.ref_s = self.ref_now() - s._ref0
        s.end = time.perf_counter()
        self._stack.pop()
        s.svd_mats = self.counts["svd_mats"] - s._svd0
        s.eigh_mats = self.counts["eigh_mats"] - s._eigh0
        s.peak_mb = None
        if s.memory:
            _, peak = tracemalloc.get_traced_memory()
            s._peak = max(s._peak, peak)
            s.peak_mb = (s._peak - s._base) / MB
            if self._stack:
                parent = self._stack[-1]
                parent._peak = max(parent._peak, s._peak)
            tracemalloc.reset_peak()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its child spans cover (reference
        seconds)."""
        out = {s.id: s.ref_s for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.ref_s
        return out

    def layer_totals(self) -> dict[str, dict]:
        """Per call name: summed seconds and self seconds, calls and LAPACK
        matrices from the timing spans; the largest allocation peak of one
        call from the memory spans."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for s in self.spans:
            if s.name.startswith("op:"):
                continue
            t = out.setdefault(
                s.name,
                {"s": 0.0, "self_s": 0.0, "calls": 0, "svd_mats": 0, "eigh_mats": 0,
                 "peak_mb": 0.0},
            )
            if s.memory:
                t["peak_mb"] = max(t["peak_mb"], s.peak_mb)
                continue
            t["s"] += s.ref_s
            t["self_s"] += own[s.id]
            t["calls"] += 1
            t["svd_mats"] += s.svd_mats
            t["eigh_mats"] += s.eigh_mats
        return out

    def spans_json(self) -> list[dict]:
        return [s.to_json(self.t0) for s in self.spans]


def pass_seconds(passes: list[list[float]]) -> float:
    """Sum over a pass's calls of each call's median over the passes.

    Every pass makes the same calls in the same order; a per-call median
    drops the calls a host stall hit.  Falls back to the median pass sum
    if the passes differ in length.
    """
    if len({len(p) for p in passes}) != 1:
        return median([sum(p) for p in passes])
    return sum(median(column) for column in zip(*passes))


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool, why: str = "check rejected the output"):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {why}")

    def attempt(self, rec: Recorder, label: str, fn, **tags) -> bool:
        """Run one operation; it fails if the program or its check raises,
        or if the check says no."""
        with rec.op("op:" + label, **tags):
            why = "check rejected the output"
            try:
                ok = bool(fn())
            except Exception:  # one failing operation must not stop the run
                ok = False
                why = traceback.format_exc().strip()
        self.record(label, ok, why)
        return ok
