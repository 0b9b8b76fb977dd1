"""Host-time measurement primitives of the perf benchmark.

Three pieces, none of which knows about any workload:

* :func:`calibrate` — a fixed pure-Python heap/dict/float loop whose
  wall time tracks how fast the host runs Python *right now*.  The
  sandbox slows down in episodes (identical runs differ 10-20% in raw
  wall time), so every timed window is scaled by
  ``(C_REF_S / c) ** SLOWDOWN_EXPONENT``, where ``c`` is the mean of
  the calibrations on either side of the window.
* :class:`Windows` — splits one timed phase into short windows and
  keeps per-op host latency samples, each corrected like its window.
  Calibration runs between windows, outside their timing.
* :class:`LayerTimers` — outside-in layer attribution.  It wraps the
  public functions of each layer (:data:`LAYERS`) for the duration of a
  ``with`` block, keeps a span stack, and aggregates self time (span
  time minus child spans) online by the stack of layers above it.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import inspect
import math
import statistics
import sys
import time

#: Median :func:`calibrate` time on the reference host (a 2-core x86-64
#: sandbox, CPython 3.11).  Corrected times read as if measured there.
C_REF_S = 0.0180

#: How much of a calibration slowdown the workloads feel: the tight
#: calibration loop slows more than they do when the host is contended.
#: Fitted on three batches of ten runs per workload on the reference
#: host: the best exponent per workload and batch ranged 0.6-0.9, and
#: 0.8 kept every batch's ops_per_s spread (IQR/median) under 4.2%,
#: against up to 5.8% at 1.0 and 10-14% uncorrected.
SLOWDOWN_EXPONENT = 0.8

#: A window whose calibration exceeds the run's median by this factor
#: marks the run as noisy (reported, never dropped).
NOISY_FACTOR = 1.5

_CAL_ROUNDS = 30_000


def calibrate() -> float:
    """Run the fixed calibration loop once; returns its wall seconds."""
    t0 = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, float] = {}
    x = 0.0
    for i in range(_CAL_ROUNDS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i & 1023] = x
        x = x * 0.5 + i
    return time.perf_counter() - t0


def corrected(raw_s: float, cal_s: float) -> float:
    """``raw_s`` as it would read at reference host speed."""
    return raw_s * (C_REF_S / cal_s) ** SLOWDOWN_EXPONENT


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Windows:
    """One timed phase, split into windows of about ``window_s`` seconds.

    The workload calls :meth:`tick` at a public hook once per unit of
    progress (a completed request, a served ``submit``, a swept
    record).  Each tick records the host time since the previous tick
    as one latency sample; the first tick past ``window_s`` closes the
    window and :func:`calibrate` runs, outside every window and sample.
    Calibration also runs once at :meth:`start`, so every window has a
    calibration on each side and is corrected by their mean: a host
    slowdown is sampled twice per window, and short windows keep one
    unlucky sample from scaling seconds of work.
    """

    def __init__(self, window_s: float = 0.25, clock=time.perf_counter):
        self.window_s = window_s
        self.clock = clock
        self.raw_s: list[float] = []
        #: Calibrations at the window boundaries (one more than windows).
        self.cal_s: list[float] = []
        self.ops: list[int] = []
        #: Per-op latency samples, corrected like their window.
        self.latencies_s: list[float] = []
        self._pending: list[float] = []
        self._window_ops = 0
        self._window_start = 0.0
        self._last = 0.0

    def start(self) -> None:
        self.cal_s.append(calibrate())
        self._window_start = self._last = self.clock()

    def tick(self, ops: int = 1) -> None:
        """Count ``ops`` ops; the time since the last tick is one sample."""
        now = self.clock()
        self._pending.append(now - self._last)
        self._window_ops += ops
        if now - self._window_start >= self.window_s:
            self._close()
        self._last = self.clock()

    def finish(self) -> None:
        """Close the last window (it also holds any work after the last tick)."""
        self._close()

    def _close(self) -> None:
        self.raw_s.append(self.clock() - self._window_start)
        self.cal_s.append(calibrate())
        self.ops.append(self._window_ops)
        cal = (self.cal_s[-2] + self.cal_s[-1]) / 2
        self.latencies_s.extend(corrected(s, cal) for s in self._pending)
        self._pending = []
        self._window_ops = 0
        self._window_start = self.clock()

    @property
    def window_cal_s(self) -> list[float]:
        """Each window's calibration: the mean of the two around it."""
        return [(a + b) / 2 for a, b in zip(self.cal_s, self.cal_s[1:])]

    @property
    def total_ops(self) -> int:
        return sum(self.ops)

    @property
    def raw_total_s(self) -> float:
        return sum(self.raw_s)

    @property
    def corrected_total_s(self) -> float:
        return sum(corrected(w, c) for w, c in zip(self.raw_s, self.window_cal_s))


def noise_report(cal_s: list[float]) -> dict:
    """Calibration spread of a run and whether any window was noisy."""
    median = statistics.median(cal_s)
    worst = max(cal_s) / median
    return {
        "host_speed": C_REF_S / median,
        "cal_median_s": median,
        "cal_max_over_median": worst,
        "noisy": worst > NOISY_FACTOR,
    }


#: Layer -> the functions whose calls are attributed to it.  A target is
#: ``module:function`` (rebound in every module that imported it),
#: ``module:Class.method``, or ``module:Class*.method`` (the class
#: and every subclass that defines the method itself).  Targets missing
#: from the code under test are skipped and reported, so a refactor that
#: renames one degrades the attribution instead of breaking the run.
LAYERS: dict[str, tuple[str, ...]] = {
    "serving.options": (
        "repro.serving.options:serve_trace",
        "repro.serving.options:ServeOptions.__post_init__",
    ),
    "serving.service": (
        "repro.serving.service:PartitioningService.submit",
        "repro.serving.service:PartitioningService.submit_graph",
        "repro.serving.service:PartitioningService._submit",
        "repro.serving.service:PartitioningService._submit_many",
        "repro.serving.service:PartitioningService._submit_graph",
    ),
    "core.database": (
        "repro.core.database:TrainingDatabase.merge_timings",
        "repro.core.database:TrainingDatabase.record_for",
    ),
    "serving.eventloop": ("repro.serving.eventloop:EventLoop.run",),
    "serving.cache": (
        "repro.serving.cache:PredictionCache.get",
        "repro.serving.cache:PredictionCache.put",
        "repro.serving.cache:PredictionCache.peek",
        "repro.serving.cache:PredictionCache.invalidate",
    ),
    "serving.drift": ("repro.serving.drift:DriftDetector.observe",),
    "engine": (
        "repro.engine.sweep:SweepEngine.measure",
        "repro.engine.sweep:SweepEngine.measure_graph",
        "repro.engine.sweep:SweepEngine.sweep_with_energy",
    ),
    "runtime": (
        "repro.runtime.plan:plan_device_commands",
        "repro.runtime.measurement:Runner.run",
    ),
    "benchsuite": ("repro.benchsuite.base:Benchmark*.make_instance",),
    "compiler": ("repro.benchsuite.base:Benchmark.compiled",),
    "core.features": (
        "repro.core.features:combined_features",
        "repro.core.predictor:PartitioningPredictor.features_for",
    ),
    "ml": (
        "repro.ml.base:Classifier*.fit",
        "repro.ml.base:Classifier*.predict",
        "repro.ml.neural:MLPRegressor.fit",
        "repro.ml.neural:MLPRegressor.predict",
    ),
    "core.predictor": (
        "repro.core.predictor:PartitioningModel.fit",
        "repro.core.predictor:PartitioningModel.refit",
        "repro.core.predictor:PartitioningModel.predict_features",
        "repro.core.predictor:PartitioningModel.predict_features_many",
        "repro.core.predictor:PartitioningScorerModel.fit",
        "repro.core.predictor:PartitioningScorerModel.refit",
        "repro.core.predictor:PartitioningScorerModel.predict_features",
        "repro.core.predictor:PartitioningScorerModel.predict_features_many",
        "repro.core.predictor:PartitioningPredictor.predict_features",
        "repro.core.predictor:PartitioningPredictor.predict_features_many",
        "repro.core.predictor:PartitioningPredictor.refit",
    ),
    "fleet": (
        "repro.fleet.router:FleetRouter.place",
        "repro.fleet.router:FleetRouter.serve_on",
        "repro.fleet.router:FleetRouter.tick",
    ),
    "cluster": (
        "repro.cluster.router:ClusterRouter.place",
        "repro.cluster.router:ClusterRouter.serve_on",
        "repro.cluster.router:ClusterRouter.speculative_index",
        "repro.cluster.router:ClusterRouter.steal_candidates",
        "repro.cluster.router:ClusterRouter.observe_completion",
        "repro.cluster.router:ClusterRouter.home_pool",
    ),
    "serving.histogram": (
        "repro.serving.histogram:LatencyHistogram.record",
        "repro.serving.histogram:LatencyHistogram.quantile",
    ),
    "serving.slo": (
        "repro.serving.slo:shed_decision",
        "repro.serving.slo:SLOTracker.record_completion",
        "repro.serving.slo:SLOTracker.record_shed",
        "repro.serving.slo:SLOTracker.record_failed",
    ),
    "faults": (
        "repro.faults.injector:FaultInjector.crash_windows",
        "repro.faults.injector:FaultInjector.crashed",
        "repro.faults.injector:FaultInjector.slowdown",
        "repro.faults.injector:FaultInjector.exec_error",
        "repro.faults.injector:FaultInjector.predict_error",
    ),
    "telemetry": (
        "repro.telemetry.spans:Tracer.event",
        "repro.telemetry.spans:Tracer.begin",
        "repro.telemetry.spans:Tracer.enqueue",
        "repro.telemetry.spans:Tracer.start",
        "repro.telemetry.spans:Tracer.fail_attempt",
        "repro.telemetry.spans:Tracer.cancel_attempt",
        "repro.telemetry.spans:Tracer.steal",
        "repro.telemetry.spans:Tracer.complete",
        "repro.telemetry.spans:Tracer.fail",
        "repro.telemetry:Telemetry.collect",
    ),
    "workloads": (
        "repro.workloads.generators:make_workload",
        "repro.workloads.arrivals:arrival_times",
        "repro.cluster.router:with_tenants",
    ),
    "core.trainer": (
        "repro.core.trainer:generate_training_data",
        "repro.core.trainer:build_record",
        "repro.core.trainer:sweep_measurements",
        "repro.core.pipeline:train_system",
    ),
}

#: The benchmark's own code: tick bookkeeping and calibration.  Timed so
#: that neither inflates the self time of the layer it runs inside;
#: neither is a layer of the program.
HARNESS_LAYERS: dict[str, tuple[str, ...]] = {
    "harness": ("harness:Windows.tick",),
    "calibration": ("harness:calibrate",),
}

_MISSING = object()


class LayerTimers:
    """Outside-in span timers over :data:`LAYERS`, active inside ``with``.

    Every wrapped call opens a span.  On exit its duration is added to
    the parent span's child time, and ``duration - child time`` is added
    to the self time of its *path*: the phase name followed by the
    distinct layers on the span stack (a layer calling into itself does
    not deepen the path).  Everything the program does outside every
    span is the phase's unattributed time, computed by the caller.
    """

    def __init__(self, layers: dict[str, tuple[str, ...]], clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        #: path -> [self seconds, calls]
        self.paths: dict[tuple[str, ...], list] = {}
        self.skipped: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Open spans as [path, layer, child seconds]; the root frame first.
        self._stack: list[list] = []
        self.phase("run")

    # -- spans ----------------------------------------------------------------

    def phase(self, name: str) -> None:
        """Attribute subsequent spans under a new root (``setup``, ``measure``)."""
        if len(self._stack) > 1:
            raise RuntimeError("cannot switch phase inside a span")
        self._stack[:] = [[(name,), None, 0.0]]

    def wrap(self, layer: str, fn):
        """``fn`` with every call timed as a span of ``layer``."""
        frames = self._stack
        paths = self.paths
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = frames[-1]
            path = parent[0] if parent[1] == layer else parent[0] + (layer,)
            frame = [path, layer, 0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                frames.pop()
                parent[2] += elapsed
                cell = paths.get(path)
                if cell is None:
                    cell = paths[path] = [0.0, 0]
                cell[0] += elapsed - frame[2]
                cell[1] += 1

        return timed

    # -- patching -------------------------------------------------------------

    def __enter__(self) -> "LayerTimers":
        try:
            for layer, targets in self.layers.items():
                for target in targets:
                    self._install(layer, target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, layer: str, target: str) -> None:
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.skipped.append(target)
            return
        if "." not in qualname:
            fn = getattr(module, qualname, None)
            if not callable(fn):
                self.skipped.append(target)
                return
            wrapped = self.wrap(layer, fn)
            # Rebind every module-level alias (``from x import f``), so
            # callers that imported the function by name are timed too.
            for mod in list(sys.modules.values()):
                if vars(mod).get(qualname) is fn:
                    self._patch(mod, qualname, wrapped)
            return
        class_name, _, method = qualname.partition(".")
        cls = getattr(module, class_name.rstrip("*"), None)
        if not inspect.isclass(cls):
            self.skipped.append(target)
            return
        owners = _subclasses(cls) if class_name.endswith("*") else [cls]
        owners = [c for c in owners if method in vars(c)]
        if not owners:
            self.skipped.append(target)
            return
        for owner in owners:
            raw = vars(owner)[method]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.wrap(layer, raw.__func__))
            elif callable(raw):
                wrapped = self.wrap(layer, raw)
            else:
                self.skipped.append(f"{target} ({owner.__name__}: not a function)")
                continue
            self._patch(owner, method, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        if any(o is owner and n == name for o, n, _ in self._patches):
            return
        self._patches.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def _restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- results ----------------------------------------------------------------

    def layer_totals(self, phase: str) -> dict[str, list]:
        """layer -> [self seconds, calls] over one phase."""
        totals: dict[str, list] = {}
        for path, (self_s, calls) in self.paths.items():
            if path[0] != phase or len(path) < 2:
                continue
            cell = totals.setdefault(path[-1], [0.0, 0])
            cell[0] += self_s
            cell[1] += calls
        return totals

    def by_caller(self, phase: str) -> dict[str, float]:
        """``"layer<-caller"`` -> self seconds over one phase."""
        out: dict[str, float] = {}
        for path, (self_s, _calls) in self.paths.items():
            if path[0] != phase or len(path) < 2:
                continue
            caller = path[-2] if len(path) > 2 else "<top>"
            key = f"{path[-1]}<-{caller}"
            out[key] = out.get(key, 0.0) + self_s
        return out

    def folded(self) -> list[str]:
        """Folded stacks (``a;b;c <self microseconds>``) for flame graphs."""
        return [
            f"{';'.join(path)} {round(self_s * 1e6)}"
            for path, (self_s, _calls) in sorted(self.paths.items())
            if len(path) > 1
        ]


def _subclasses(cls) -> list[type]:
    seen: list[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen
