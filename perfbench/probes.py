"""Layer probes for the traced benchmark run.

Wraps the public functions of each layer of ``repro`` from outside the
package: every wrapped call is timed, counted and, for the coarse layers,
recorded as a span.  Spans and counters stay in memory and are written out
once, when the process ends its run (:meth:`Recorder.dump`), as one JSON
file per process.  Nothing under ``src/`` knows about this module.

Names imported with ``from x import f`` are bound in the importing module,
so a wrapper replaces the name in every module that calls it (for example
``solve_dl_batch`` in ``repro.core.calibration`` and
``repro.core.prediction``).

Process-pool children forked from a traced daemon inherit the wrappers and
a copy of the parent's recorder; the first record in a new process clears
that copy and registers a flush for when the worker exits, so each process
reports only its own work.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import threading
import time
from collections import defaultdict
from pathlib import Path

def _cache_counts() -> "tuple[int, int]":
    """(hits, misses) of the factorized Crank-Nicolson operator cache."""
    from repro.numerics.operator_cache import cache_stats

    info = cache_stats()["crank_nicolson_operator"]
    return int(info["hits"]), int(info["misses"])


class Recorder:
    """In-memory spans, per-call timings, samples and counts of one process."""

    def __init__(self, out_dir: "str | Path", role: str) -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. a set-up's warm-up work)."""
        self.pid = os.getpid()
        self.spans: "list[dict]" = []
        #: name -> [calls, seconds]
        self.timings: "dict[str, list]" = defaultdict(lambda: [0, 0.0])
        #: name -> list of per-call samples (iterations, columns, bytes ...)
        self.samples: "dict[str, list]" = defaultdict(list)
        self.counts: "dict[str, int]" = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._cache_start = _cache_counts()

    def _check_process(self) -> None:
        if os.getpid() != self.pid:
            # A forked pool worker: drop the parent's records and flush this
            # worker's own when it exits.
            from multiprocessing import util

            self.reset()
            util.Finalize(None, self.dump, exitpriority=10)

    # -- recording -------------------------------------------------------- #
    def count(self, name: str, amount: int = 1) -> None:
        self._check_process()
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        self._check_process()
        self.samples[name].append(float(value))

    def set_job(self, job: "str | None") -> None:
        # Reset first in a fresh pool worker, or the reset would drop the job.
        self._check_process()
        self._local.job = job

    def timed(self, name: str, span: "str | None", call, *args, **kwargs):
        """Run ``call``, timing it under ``name`` and spanning it as ``span``."""
        self._check_process()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = None
        if span is not None:
            span_id = f"{self.pid}-{next(self._ids)}"
            parent = stack[-1] if stack else None
            stack.append(span_id)
        wall = time.time()
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            with self._lock:
                entry = self.timings[name]
                entry[0] += 1
                entry[1] += seconds
            if span_id is not None:
                stack.pop()
                self.spans.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "job": getattr(self._local, "job", None),
                        "name": span,
                        "start": wall,
                        "end": wall + seconds,
                    }
                )

    def record_span(
        self, name: str, job: str, start: float, end: float, span_id: str
    ) -> None:
        """A span measured by the caller (the load generator's job spans)."""
        self.spans.append(
            {"id": span_id, "parent": None, "job": job, "name": name,
             "start": start, "end": end}
        )

    # -- output ----------------------------------------------------------- #
    def snapshot(self) -> dict:
        hits, misses = _cache_counts()
        return {
            "role": self.role,
            "pid": self.pid,
            "spans": list(self.spans),
            "timings": {k: list(v) for k, v in self.timings.items()},
            "samples": {k: list(v) for k, v in self.samples.items()},
            "counts": dict(self.counts),
            "cache_hits": hits - self._cache_start[0],
            "cache_misses": misses - self._cache_start[1],
        }

    def dump(self) -> None:
        """Write this process's records to ``<out_dir>/<role>-<pid>.json``."""
        if os.getpid() != self.pid:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{self.role}-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(tmp, path)


def _wrap(recorder: Recorder, name: str, span: "str | None", function, after=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        result = recorder.timed(name, span, function, *args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


class _PickleProbe:
    """Stands in for ``pickle`` in one module, measuring what it encodes."""

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder
        self.loads = pickle.loads
        self.HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

    def dumps(self, obj, *args, **kwargs) -> bytes:
        start = time.perf_counter()
        data = pickle.dumps(obj, *args, **kwargs)
        seconds = time.perf_counter() - start
        kind = "payload" if type(obj).__name__ == "ShardPayload" else "report"
        self._recorder.sample(f"execution.{kind}_bytes", len(data))
        self._recorder.sample(f"execution.{kind}_encode_s", seconds)
        return data


def _job_of(payload) -> "str | None":
    """The job a shard belongs to: service names are ``<job>:<story>``."""
    for name in payload.surfaces:
        return str(name).split(":", 1)[0]
    return None


def install(recorder: Recorder) -> None:
    """Wrap every probed public function of ``repro`` (idempotent per process)."""
    from repro.core import calibration, dl_model, prediction
    from repro.corpus import store
    from repro.models import temporal
    from repro.numerics import operator_cache
    from repro.service import cluster, daemon, execution, manifest

    if getattr(prediction.BatchPredictor.fit_story, "__wrapped_by_perfbench__", False):
        return

    # core.prediction
    prediction.BatchPredictor.fit_story = _wrap(
        recorder, "prediction.fit", "core.prediction",
        prediction.BatchPredictor.fit_story,
    )
    prediction.BatchPredictor.evaluate = _wrap(
        recorder, "prediction.evaluate", "core.prediction",
        prediction.BatchPredictor.evaluate,
    )

    # core.calibration (called by name from prediction)
    prediction.calibrate_dl_model = _wrap(
        recorder, "calibration.total", "core.calibration",
        prediction.calibrate_dl_model,
    )

    def after_refine(result, args, kwargs):
        recorder.sample("calibration.lm_iterations", result.iterations)
        converged = result.converged
        recorder.sample(
            "calibration.converged_start_fraction",
            float(converged.sum()) / max(len(converged), 1),
        )

    calibration.multi_start_least_squares = _wrap(
        recorder, "calibration.refine", "core.calibration.refine",
        calibration.multi_start_least_squares, after_refine,
    )

    # core.dl_model (called by name from calibration and prediction)
    def after_solve(result, args, kwargs):
        recorder.sample("dl_model.columns", len(result))

    solve = _wrap(
        recorder, "dl_model.solve_batch", "core.dl_model",
        dl_model.solve_dl_batch, after_solve,
    )
    for module in (dl_model, calibration, prediction):
        module.solve_dl_batch = solve

    # numerics: the banded tridiagonal solve runs once per time step, so
    # it is counted, not timed.
    banded_solve = operator_cache.BandedFactorization.solve

    @functools.wraps(banded_solve)
    def counted_solve(self, rhs):
        recorder.count("numerics.tridiagonal_solves")
        return banded_solve(self, rhs)

    operator_cache.BandedFactorization.solve = counted_solve

    # models: the logistic baseline's per-story fit
    temporal.PerDistanceLogisticModel.fit = _wrap(
        recorder, "models.baseline_fit", "models",
        temporal.PerDistanceLogisticModel.fit,
    )

    # corpus
    store_open = store.CorpusStore.open.__func__
    store.CorpusStore.open = classmethod(
        _wrap(recorder, "corpus.store_open", "corpus", store_open)
    )
    manifest.StoryManifest.resolve = _wrap(
        recorder, "corpus.resolve", "corpus", manifest.StoryManifest.resolve
    )

    def after_mmap(result, args, kwargs):
        recorder.count(
            "corpus.bytes_mapped", sum(int(a.nbytes) for a in result.values())
        )

    store.mmap_npz = _wrap(recorder, "corpus.mmap", None, store.mmap_npz, after_mmap)

    # service.execution: the single shard-numerics path of every backend
    shard_solve = execution.solve_shard_payload

    @functools.wraps(shard_solve)
    def traced_shard_solve(payload):
        recorder.set_job(_job_of(payload))
        try:
            return recorder.timed(
                "execution.shard_solve", "service.execution", shard_solve, payload
            )
        finally:
            recorder.set_job(None)

    execution.solve_shard_payload = traced_shard_solve

    # Reports only cross a boundary in process workers (the pool pickles
    # the returned report) and cluster workers (the worker op pickles it).
    report_solve = execution.solve_shard_report
    home_pid = os.getpid()

    @functools.wraps(report_solve)
    def measured_report_solve(payload, tracer=None):
        report = report_solve(payload, tracer)
        if os.getpid() != home_pid:
            recorder.sample(
                "execution.report_bytes",
                len(pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)),
            )
        return report

    execution.solve_shard_report = measured_report_solve
    for module in (execution, cluster, daemon):
        module.pickle = _PickleProbe(recorder)

    # service.cluster: one shard's round trip through a worker daemon
    cluster.WorkerPool.solve_payload = _async_timed(
        recorder, "cluster.worker_roundtrip", cluster.WorkerPool.solve_payload
    )


def _async_timed(recorder: Recorder, name: str, function):
    @functools.wraps(function)
    async def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = await function(*args, **kwargs)
        recorder.sample(name, time.perf_counter() - start)
        return result

    return wrapper


def load_records(out_dir: "str | Path") -> "list[dict]":
    """Every per-process record file written under ``out_dir``."""
    records = []
    for path in sorted(Path(out_dir).glob("*.json")):
        records.append(json.loads(path.read_text(encoding="utf-8")))
    return records
