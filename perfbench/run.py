"""The repository's benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``calibrate`` -- generated stories without explicit parameters, scored
  in-process by a one-worker ``PredictionService`` in a closed loop.
* ``store-scan`` -- one pass over a generated store (80 stories per second
  of the window) submitted as one store manifest to a Unix-socket daemon
  (process executor, 2 workers).
* ``open-loop-small`` / ``open-loop`` -- inline-manifest jobs mixing
  explicit-parameter ``dl`` and ``logistic`` stories, sent on a fixed
  schedule to a TCP daemon over two multiplexed connections; jobs hold
  1-8 stories (``-small``) or 1-32 stories, which crosses the daemon's
  64 KiB request-line limit.
* ``fleet`` -- the ``store-scan`` input sent to a cluster router fronting
  two worker daemons, with a whole-job deadline.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` measures the
workload once untraced and once with the layer probes of ``probes.py``
installed in every process, and prints the per-layer metrics.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
an output check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import atexit
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import metrics as report
from hostspeed import HostSpeed
from procs import Fleet, tree_peak_rss_mb

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
#: Run directories (stores, sockets, daemon logs, span files) live here,
#: relative to the repository root so Unix socket paths stay short.
RUNS = Path(".perfbench")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Hard wall-clock limit of one run; daemons are killed and the run fails.
RUN_LIMIT_S = 170

# calibrate: predict hours 2-6 from a two-hour training window.
CAL_SHAPE = dict(min_distances=6, max_distances=6, min_hours=8, max_hours=8)
CAL_TRAIN = [1.0, 2.0]
CAL_EVAL = [2.0, 3.0, 4.0, 5.0, 6.0]
CAL_POOL = 48
#: Stories every calibrate run completes, however slow; accuracy_median is
#: taken over exactly these, so it repeats for a seed.
CAL_MIN_STORIES = 6
#: Stories of the fixed golden set re-calibrated and checked in every run.
CAL_GOLDEN_STORIES = 2
CAL_GOLDEN_SEED = 20120612

# store-scan / fleet: one pass over a store of STORE_STORIES_PER_S stories
# per second of the window (2400 at 30 s), in the daemon's default six-hour
# window.  The size depends on --seconds alone, never on the host's speed.
STORE_STORIES_PER_S = 80
DAEMON_HOURS = 6
DAEMON_TRAIN = [float(t) for t in range(1, DAEMON_HOURS + 1)]
DAEMON_EVAL = DAEMON_TRAIN[1:]
STORE_DEADLINE_S = 150.0

# open-loop: offered rate (jobs/s), job-size range and story shape per
# variant.  The registered variant fixes the distance count, the main
# driver of a story's solve cost, so its latencies vary little by seed.
OPEN_LOOP = {
    "open-loop-small": {"rate": 3.0, "max_stories": 4,
                        "shape": {"min_distances": 8, "max_distances": 8}},
    "open-loop": {"rate": 1.2, "max_stories": 32, "shape": {}},
}
OPEN_LOOP_DEADLINE_S = 10.0
CONNECTIONS = 2

#: Workloads whose program work runs on one CPU: one thread worker, or a
#: thread daemon whose solves hold the GIL.  Their runs, daemons included,
#: are pinned to one CPU, so the host-speed sampler times the CPU the
#: program runs on; the two CPUs of the sizing VM drift apart.
ONE_CPU = {"calibrate", "open-loop-small", "open-loop"}

#: Explicit-parameter results must match BatchPredictor this closely.
EXPLICIT_TOLERANCE = 1e-12
#: Calibrated parameters must match the golden fixture this closely.
CALIBRATION_TOLERANCE = 1e-8
CHECK_STORIES = 16


@dataclass
class Phase:
    """What one measured window observed (client side)."""

    #: ``time.perf_counter()`` (start, end) of each set-up and of the window
    setups: "list[tuple[float, float]]" = field(default_factory=list)
    window: "tuple[float, float]" = (0.0, 0.0)
    wall: float = 0.0
    jobs: int = 0
    attempted: int = 0
    succeeded: int = 0
    latencies: "list[float]" = field(default_factory=list)
    #: ``time.perf_counter()`` when each job of ``latencies`` ended
    latency_ends: "list[float]" = field(default_factory=list)
    first_results: "list[float]" = field(default_factory=list)
    #: story -> result event of every succeeded story
    results: "dict[str, dict]" = field(default_factory=dict)
    #: stories whose accuracies form accuracy_median (a fixed set per seed)
    accuracy_set: "list[str]" = field(default_factory=list)
    peak_rss_mb: float = 0.0
    accept: "list[float]" = field(default_factory=list)
    request_bytes: int = 0
    event_bytes: int = 0
    dropped_connections: int = 0
    result_gaps: "list[float]" = field(default_factory=list)
    lateness: "list[float]" = field(default_factory=list)
    #: (job id, start wall, end wall) of every job, for the trace
    job_spans: "list[tuple[str, float, float]]" = field(default_factory=list)
    #: service stats/metrics before and after the window
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    failures: "dict[str, int]" = field(default_factory=dict)

    def fail(self, reason: str, stories: int) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + stories

    @property
    def stories_per_s(self) -> float:
        return self.succeeded / self.wall if self.wall > 0 else 0.0

    def accuracy_median(self) -> float:
        values = [
            self.results[name]["overall_accuracy"]
            for name in self.accuracy_set
            if name in self.results
        ]
        # No succeeded story (a stalled fleet) has no accuracy to report.
        return statistics.median(values) if values else 0.0


class Context:
    """Per-run state: seed, window, run directory, daemons, probe output."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.run_dir = RUNS / f"{workload}-{seed}-{time.time_ns()}"
        self.run_dir.mkdir(parents=True)
        self.fleet = Fleet(self.run_dir)
        atexit.register(self.fleet.stop_all)
        self.probe_dir: "Path | None" = None
        self.recorder = None

    def enable_probes(self) -> None:
        import probes

        self.probe_dir = (self.run_dir / "probes").resolve()
        self.recorder = probes.Recorder(self.probe_dir, "bench")
        probes.install(self.recorder)

    def daemon_args(self) -> "list[str]":
        if self.probe_dir is None:
            return []
        return ["--probe-dir", str(self.probe_dir)]


# ---------------------------------------------------------------------- #
# calibrate: in-process service, one thread worker, closed loop
# ---------------------------------------------------------------------- #
def calibrate_inputs(seed: int, stories: int):
    from repro.corpus import WorkloadConfig, generate_workload

    return generate_workload(WorkloadConfig(stories=stories, seed=seed, **CAL_SHAPE))


async def calibrate_setup(ctx: Context):
    from repro.core.prediction import BatchPredictor
    from repro.service import PredictionService

    from common import explicit_parameters

    stories = calibrate_inputs(ctx.seed, CAL_POOL)
    service = PredictionService(max_workers=1, executor="thread")
    service.start()
    # Warm the numerics imports and solver path with one explicit solve.
    name, surface = next(iter(stories.items()))
    BatchPredictor(parameters=explicit_parameters()).fit(
        {name: surface}, CAL_TRAIN
    ).evaluate({name: surface}, times=CAL_EVAL)
    return service, stories


async def calibrate_job(service, job_id: str, name: str, surface, phase: Phase):
    from repro.service import JobStatus, story_result_payload

    start_wall = time.time()
    start = time.perf_counter()
    job = await service.submit(
        f"{job_id}:{name}", surface, CAL_TRAIN, CAL_EVAL, timeout=STORE_DEADLINE_S
    )
    await job.finished()
    elapsed = time.perf_counter() - start
    phase.jobs += 1
    phase.attempted += 1
    phase.job_spans.append((job_id, start_wall, start_wall + elapsed))
    if job.status is JobStatus.SUCCEEDED:
        phase.succeeded += 1
        phase.latencies.append(elapsed)
        phase.latency_ends.append(start + elapsed)
        phase.first_results.append(elapsed)
        phase.results[name] = story_result_payload(job.result)
    else:
        phase.latencies.append(STORE_DEADLINE_S)
        phase.latency_ends.append(start + elapsed)
        phase.fail(job.status.value, 1)
    return job


async def calibrate_measure(ctx: Context, state, phase: Phase) -> None:
    service, stories = state
    names = list(stories)
    phase.stats_before = service_stats(service)
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < ctx.seconds or index < CAL_MIN_STORIES:
        name = names[index % len(names)]
        await calibrate_job(service, f"j{index}", name, stories[name], phase)
        index += 1
    phase.wall = time.perf_counter() - start
    phase.accuracy_set = names[:CAL_MIN_STORIES]
    phase.stats_after = service_stats(service)
    phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def service_stats(service) -> dict:
    return {"service": service.stats(), "metrics": service.metrics.snapshot()}


async def calibrate_teardown(ctx: Context, state) -> None:
    await state[0].close()


async def calibrate_golden(ctx: Context, state, golden: dict, record: bool) -> "list[str]":
    """Re-calibrate the fixed golden stories; compare with the fixture."""
    service = state[0]
    stories = calibrate_inputs(CAL_GOLDEN_SEED, CAL_GOLDEN_STORIES)
    scratch = Phase()
    for index, (name, surface) in enumerate(stories.items()):
        await calibrate_job(service, f"golden{index}", name, surface, scratch)
    observed = {
        name: {
            "parameters": event["parameters"],
            "overall_accuracy": event["overall_accuracy"],
        }
        for name, event in scratch.results.items()
    }
    if record:
        golden["calibrate_golden"] = {"seed": CAL_GOLDEN_SEED, "stories": observed}
        return []
    expected = golden.get("calibrate_golden", {}).get("stories")
    if not expected:
        return ["the golden fixture has no calibrate_golden stories"]
    problems = []
    for name, want in expected.items():
        got = observed.get(name)
        if got is None:
            problems.append(f"golden story {name} did not succeed")
            continue
        delta = max_numeric_delta(want["parameters"], got["parameters"])
        if delta > CALIBRATION_TOLERANCE:
            problems.append(
                f"golden story {name}: calibrated parameters differ by {delta:.3g} "
                f"(> {CALIBRATION_TOLERANCE:g})"
            )
    return problems


def max_numeric_delta(a, b) -> float:
    """Largest absolute difference between matching numeric leaves."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return math.inf
        return max((max_numeric_delta(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b))
    return 0.0 if a == b else math.inf


# ---------------------------------------------------------------------- #
# Daemon workloads: store-scan, fleet, open-loop
# ---------------------------------------------------------------------- #
class Link:
    """One client connection, multiplexing jobs by id."""

    def __init__(self, client, phase: Phase, jobs: dict) -> None:
        self.client = client
        self.phase = phase
        self.jobs = jobs
        self.pending: "set[str]" = set()
        self.alive = True
        self.reader = asyncio.get_running_loop().create_task(self._read())

    async def send(self, payload: dict) -> int:
        line = json.dumps(payload)
        await self.client.send(payload)
        return len(line) + 1

    async def _read(self) -> None:
        from repro.core.errors import DaemonConnectionError

        try:
            while True:
                event = await self.client.receive()
                self.phase.event_bytes += len(json.dumps(event)) + 1
                job = self.jobs.get(str(event.get("id")))
                if job is not None:
                    job.on_event(event)
                    if job.done.is_set():
                        self.pending.discard(job.id)
        except (DaemonConnectionError, ConnectionError, OSError):
            self.alive = False
            if self.pending:
                self.phase.dropped_connections += 1
            for job_id in list(self.pending):
                self.jobs[job_id].finish("dropped_connection")
            self.pending.clear()

    async def close(self) -> None:
        self.reader.cancel()
        await asyncio.gather(self.reader, return_exceptions=True)
        await self.client.close()


class Job:
    """Client-side state of one submitted job."""

    def __init__(self, job_id: str, stories: int, phase: Phase, due: float, deadline: float) -> None:
        self.id = job_id
        self.stories = stories
        self.phase = phase
        self.due = due
        self.deadline = deadline
        self.sent = 0.0
        self.sent_wall = 0.0
        self.last_result = 0.0
        self.results: "dict[str, dict]" = {}
        self.done = asyncio.Event()

    def on_event(self, event: dict) -> None:
        now = time.perf_counter()
        kind = event.get("event")
        if kind == "accepted":
            self.phase.accept.append(now - self.sent)
        elif kind == "result":
            if not self.results:
                self.phase.first_results.append(now - self.sent)
            else:
                self.phase.result_gaps.append(now - self.last_result)
            self.last_result = now
            self.results[event["story"]] = event
        elif kind == "job":
            self.finish(None)
        elif kind == "error":
            self.finish("error_event")

    def finish(self, failure: "str | None") -> None:
        if self.done.is_set():
            return
        now = time.perf_counter()
        phase = self.phase
        phase.jobs += 1
        phase.attempted += self.stories
        ok = 0
        for name, event in self.results.items():
            if event.get("status") == "succeeded":
                phase.results[name] = event
                ok += 1
            else:
                phase.fail(str(event.get("status")), 1)
        phase.succeeded += ok
        missing = self.stories - len(self.results)
        if missing:
            phase.fail(failure or "missing_result", missing)
        failed = failure is not None or ok < self.stories
        # A failed job enters the latency percentiles at its deadline.
        phase.latencies.append(self.deadline if failed else now - self.due)
        phase.latency_ends.append(now)
        phase.job_spans.append((self.id, self.sent_wall, self.sent_wall + (now - self.sent)))
        self.done.set()


async def run_job(link: Link, job: Job, payload: dict) -> None:
    """Send one job and wait for it, up to its client-side deadline."""
    job.sent = time.perf_counter()
    job.sent_wall = time.time()
    link.pending.add(job.id)
    try:
        link.phase.request_bytes += await link.send(payload)
    except (ConnectionError, OSError):
        # The daemon hung up mid-request; the reader reports the drop.
        link.alive = False
        link.pending.discard(job.id)
        job.finish("dropped_connection")
        return
    remaining = job.due + job.deadline - time.perf_counter()
    try:
        await asyncio.wait_for(job.done.wait(), max(remaining, 0.0))
    except asyncio.TimeoutError:
        link.pending.discard(job.id)
        job.finish("missed_deadline")


async def connect(address: str):
    from repro.service import DaemonClient

    return await DaemonClient.connect(address, retries=5, backoff=0.05)


async def daemon_stats(address: str) -> dict:
    client = await connect(address)
    try:
        return await client.stats()
    finally:
        await client.close()


def store_stories(ctx: Context) -> int:
    return round(STORE_STORIES_PER_S * ctx.seconds)


def store_inputs(ctx: Context) -> Path:
    from repro.corpus import WorkloadConfig, generate_store

    root = (ctx.run_dir / f"store-{time.time_ns()}").resolve()
    generate_store(WorkloadConfig(stories=store_stories(ctx), seed=ctx.seed), root)
    return root


async def warm(address: str, manifest: dict) -> None:
    client = await connect(address)
    try:
        async for _ in client.submit(manifest, timeout=STORE_DEADLINE_S):
            pass
    finally:
        await client.close()


def warm_manifest(store: Path) -> dict:
    from repro.corpus import CorpusStore

    names = CorpusStore.open(store).story_names
    return {"store": str(store), "hours": DAEMON_HOURS, "stories": list(names[:2])}


async def store_scan_setup(ctx: Context):
    store = store_inputs(ctx)
    proc, address = ctx.fleet.spawn(
        "--listen", f"unix:{ctx.run_dir / 'daemon.sock'}",
        "--executor", "process", "--explicit-parameters",
        *ctx.daemon_args(),
    )
    await warm(address, warm_manifest(store))
    return {"store": store, "stories": store_stories(ctx), "address": address,
            "addresses": [address], "procs": [proc]}


async def fleet_setup(ctx: Context):
    store = store_inputs(ctx)
    workers = []
    procs = []
    for index in range(2):
        proc, address = ctx.fleet.spawn(
            "--listen", "tcp:127.0.0.1:0", "--executor", "thread",
            *ctx.daemon_args(), role=f"worker{index}",
        )
        procs.append(proc)
        workers.append(address)
    router, address = ctx.fleet.spawn(
        "--listen", "tcp:127.0.0.1:0", "--executor", "cluster",
        "--explicit-parameters", "--worker", workers[0], "--worker", workers[1],
        *ctx.daemon_args(), role="router",
    )
    procs.insert(0, router)
    await warm(address, warm_manifest(store))
    return {"store": store, "stories": store_stories(ctx), "address": address,
            "addresses": [address, *workers], "procs": procs}


async def store_measure(ctx: Context, state, phase: Phase, deadline: float) -> None:
    """One whole-store job on one connection; the store is sized to the window."""
    address = state["address"]
    phase.stats_before = await daemon_stats(address)
    jobs: "dict[str, Job]" = {}
    link = Link(await connect(address), phase, jobs)
    start = time.perf_counter()
    try:
        job = Job("scan", state["stories"], phase, start, deadline)
        jobs[job.id] = job
        await run_job(
            link, job,
            {"op": "submit", "id": job.id, "timeout": deadline,
             "manifest": {"store": str(state["store"]), "hours": DAEMON_HOURS}},
        )
    finally:
        phase.wall = time.perf_counter() - start
        phase.peak_rss_mb = sum(tree_peak_rss_mb(p.pid) for p in state["procs"])
        phase.stats_after = await daemon_stats(address)
        await link.close()
    phase.accuracy_set = sorted(phase.results)


async def store_scan_measure(ctx: Context, state, phase: Phase) -> None:
    await store_measure(ctx, state, phase, STORE_DEADLINE_S)


async def fleet_measure(ctx: Context, state, phase: Phase) -> None:
    # The job's deadline is the run window: the fleet ends on time whether
    # or not its workers answer.
    await store_measure(ctx, state, phase, ctx.seconds)


async def daemons_teardown(ctx: Context, state) -> None:
    from repro.service import DaemonClient

    # Ask every daemon to stop; a stalled router never drains, so each one
    # gets a short grace period before its process group is killed.
    for address in state["addresses"]:
        try:
            client = await DaemonClient.connect(address)
            try:
                await asyncio.wait_for(client.shutdown(drain=False), 2.0)
            finally:
                client.close_nowait()
        except (OSError, ConnectionError, asyncio.TimeoutError):
            pass
    for proc in state["procs"]:
        ctx.fleet.stop(proc, grace=3.0)


def open_loop_inputs(ctx: Context) -> "list[tuple[float, dict, dict]]":
    """The schedule: (due offset, manifest, surfaces) per job, from the seed."""
    from repro.corpus import WorkloadConfig, generate_workload

    spec = OPEN_LOOP[ctx.workload]
    rng = random.Random(ctx.seed)
    count = int(spec["rate"] * ctx.seconds)
    # Every block of jobs holds each size from 1 to max_stories once, in a
    # seeded order, so the offered stories/s is the same for every seed.
    sizes: "list[int]" = []
    while len(sizes) < count:
        block = list(range(1, spec["max_stories"] + 1))
        rng.shuffle(block)
        sizes.extend(block)
    sizes = sizes[:count]
    surfaces = generate_workload(
        WorkloadConfig(stories=sum(sizes), seed=ctx.seed, **spec["shape"])
    )
    names = iter(surfaces)
    schedule = []
    story = 0
    for index, size in enumerate(sizes):
        entries = []
        chosen = {}
        for _ in range(size):
            name = next(names)
            surface = surfaces[name]
            chosen[name] = surface
            entry = {
                "name": name,
                "distances": surface.distances.tolist(),
                "times": surface.times.tolist(),
                "values": surface.values.tolist(),
            }
            # Alternate the two models: half the stories are logistic.
            if story % 2:
                entry["model"] = "logistic"
            story += 1
            entries.append(entry)
        manifest = {"hours": DAEMON_HOURS, "stories": entries}
        schedule.append((index / spec["rate"], manifest, chosen))
    return schedule


async def open_loop_setup(ctx: Context):
    schedule = open_loop_inputs(ctx)
    proc, address = ctx.fleet.spawn(
        "--listen", "tcp:127.0.0.1:0", "--executor", "thread",
        "--explicit-parameters", *ctx.daemon_args(),
    )
    first = schedule[0][1]["stories"][0]
    await warm(address, {"hours": DAEMON_HOURS, "stories": [dict(first, model="logistic")]})
    await warm(address, {"hours": DAEMON_HOURS, "stories": [{k: v for k, v in first.items() if k != "model"}]})
    return {"schedule": schedule, "address": address, "addresses": [address], "procs": [proc]}


async def open_loop_measure(ctx: Context, state, phase: Phase) -> None:
    address = state["address"]
    schedule = state["schedule"]
    phase.stats_before = await daemon_stats(address)
    jobs: "dict[str, Job]" = {}
    links: "list[Link | None]" = [None] * CONNECTIONS
    tasks = []
    start = time.perf_counter() + 0.05
    try:
        for index, (offset, manifest, _) in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            slot = index % CONNECTIONS
            link = links[slot]
            if link is None or not link.alive:
                if link is not None:
                    await link.close()
                link = links[slot] = Link(await connect(address), phase, jobs)
            phase.lateness.append(max(time.perf_counter() - due, 0.0))
            job = Job(f"job{index}", len(manifest["stories"]), phase, due, OPEN_LOOP_DEADLINE_S)
            jobs[job.id] = job
            tasks.append(asyncio.get_running_loop().create_task(run_job(
                link, job,
                {"op": "submit", "id": job.id, "timeout": OPEN_LOOP_DEADLINE_S,
                 "manifest": manifest},
            )))
        await asyncio.gather(*tasks)
    finally:
        phase.wall = time.perf_counter() - start
        phase.stats_after = await daemon_stats(address)
        phase.peak_rss_mb = sum(tree_peak_rss_mb(p.pid) for p in state["procs"])
        for link in links:
            if link is not None:
                await link.close()
    phase.accuracy_set = sorted(phase.results)


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #
def check_explicit(phase: Phase, surfaces: dict) -> "list[str]":
    """Explicit-parameter ``dl`` results must match BatchPredictor to 1e-12."""
    from repro.core.prediction import BatchPredictor
    from repro.service import story_result_payload

    from common import explicit_parameters

    names = [n for n in sorted(phase.results) if phase.results[n]["model"] == "dl"]
    names = names[:CHECK_STORIES]
    if not names:
        return []
    chosen = {name: surfaces[name] for name in names}
    predictor = BatchPredictor(parameters=explicit_parameters()).fit(chosen, DAEMON_TRAIN)
    expected = predictor.evaluate(chosen, times=DAEMON_EVAL)
    problems = []
    for name in names:
        want = story_result_payload(expected[name])
        delta = max_numeric_delta(
            {k: want[k] for k in ("overall_accuracy", "accuracy_by_distance", "parameters")},
            {k: phase.results[name][k] for k in ("overall_accuracy", "accuracy_by_distance", "parameters")},
        )
        if delta > EXPLICIT_TOLERANCE:
            problems.append(f"{name}: differs from BatchPredictor by {delta:.3g}")
    return problems


def store_surfaces(store: Path, names) -> dict:
    from repro.corpus import CorpusStore

    opened = CorpusStore.open(store)
    return {name: opened.load(name) for name in names}


def check_outputs(ctx: Context, state, phase: Phase, golden: dict, record: bool) -> "list[str]":
    problems = []
    if ctx.workload in ("store-scan", "fleet"):
        dl = sorted(phase.results)[:CHECK_STORIES]
        problems += check_explicit(phase, store_surfaces(state["store"], dl))
    elif ctx.workload in OPEN_LOOP:
        surfaces = {}
        for _, _, chosen in state["schedule"]:
            surfaces.update(chosen)
        problems += check_explicit(phase, surfaces)
    # accuracy_median covers a fixed story set per seed only when nothing
    # failed; failures are reported through the failed count instead.
    median = phase.accuracy_median()
    table = golden.setdefault("accuracy_median", {}).setdefault(ctx.workload, {})
    # Only calibrate's story set is independent of the window; the others
    # size their inputs by it, so their fixture entries are per seed and window.
    key = str(ctx.seed) if ctx.workload == "calibrate" else f"{ctx.seed}@{ctx.seconds:g}s"
    if phase.failures:
        return problems
    if record:
        table[key] = median
    elif key in table and table[key] != median:
        problems.append(f"accuracy_median {median!r} != fixture {table[key]!r} for {key}")
    return problems


# ---------------------------------------------------------------------- #
# Driver
# ---------------------------------------------------------------------- #
WORKLOADS = {
    "calibrate": (calibrate_setup, calibrate_measure, calibrate_teardown),
    "store-scan": (store_scan_setup, store_scan_measure, daemons_teardown),
    "open-loop-small": (open_loop_setup, open_loop_measure, daemons_teardown),
    "open-loop": (open_loop_setup, open_loop_measure, daemons_teardown),
    "fleet": (fleet_setup, fleet_measure, daemons_teardown),
}


async def measure_phase(ctx: Context, setups: int, golden: dict, record: bool, check: bool = True):
    """Set up ``setups`` times (keeping the last), measure, check, tear down."""
    setup, measure, teardown = WORKLOADS[ctx.workload]
    phase = Phase()
    state = None
    for index in range(setups):
        start = time.perf_counter()
        state = await setup(ctx)
        phase.setups.append((start, time.perf_counter()))
        if index < setups - 1:
            await teardown(ctx, state)
    if ctx.recorder is not None:
        ctx.recorder.reset()
    problems: "list[str]" = []
    try:
        start = time.perf_counter()
        await measure(ctx, state, phase)
        phase.window = (start, time.perf_counter())
        if check:
            problems = check_outputs(ctx, state, phase, golden, record)
            if ctx.workload == "calibrate":
                problems += await calibrate_golden(ctx, state, golden, record)
    finally:
        await teardown(ctx, state)
    return phase, problems


async def run(args) -> int:
    ctx = Context(args.workload, args.seed, args.seconds)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    traced_values = None
    # The sampler runs through every phase, so a traced run's two phases
    # pay the same sampling cost.
    try:
        with HostSpeed() as host:
            if not args.trace:
                phase, problems = await measure_phase(ctx, SETUPS, golden, args.record_golden)
            else:
                untraced, problems = await measure_phase(ctx, 1, golden, False)
                ctx.enable_probes()
                # The untraced phase checked the outputs; the traced one only
                # measures, so the checks' own solves stay out of the layer data.
                phase, _ = await measure_phase(ctx, 1, golden, False, check=False)
        values = report.end_to_end(phase, host, ctx.workload in OPEN_LOOP)
        if args.trace:
            for job_id, start, end in phase.job_spans:
                ctx.recorder.record_span("loadgen.job", job_id, start, end, f"job-{job_id}")
            ctx.recorder.dump()
            traced_values = report.per_layer(ctx, untraced, phase)
            spans = RUNS / f"spans-{ctx.workload}-{ctx.seed}.json"
            report.write_spans(ctx, spans)
            print(f"spans of the traced run: {spans}")
    finally:
        ctx.fleet.stop_all()
    if args.record_golden and not problems:
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    report.print_human(ctx, phase, values, traced_values, problems)
    metrics = traced_values if args.trace else values
    payload = {
        "correct": not problems,
        "attempted": phase.attempted,
        "failed": phase.attempted - phase.succeeded,
        "metrics": report.contract_metrics(metrics, "per_layer" if args.trace else "end_to_end"),
    }
    print(json.dumps(payload))
    # A run that raised keeps its directory (daemon logs) for inspection.
    shutil.rmtree(ctx.run_dir, ignore_errors=True)
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden", action="store_true",
        help="write this run's outputs into golden.json instead of checking them",
    )
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root: src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path.cwd() / "src"))

    def on_signal(signum, frame):
        raise SystemExit(128 + signum)

    def on_alarm(signum, frame):
        raise TimeoutError(f"the run exceeded its {RUN_LIMIT_S} s limit")

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_LIMIT_S)
    if args.workload in ONE_CPU:
        # Before any thread or daemon starts: they inherit the affinity.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        return asyncio.run(run(args))
    except TimeoutError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
