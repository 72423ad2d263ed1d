"""The four benchmark workloads: ``serve``, ``ingest``, ``refresh`` and
``sharded`` (``ingest`` runs but does not gate; see ``METRICS.md``).

Each workload function takes a :class:`Config` and returns a
:class:`~harness.Outcome`.  It sets itself up, runs its timed loop for
``seconds`` in ``SETUP_REPS - 1`` segments with one more set-up
repetition between them (the median repetition is ``setup_s``), then
checks the program's outputs against the program's own reference path
outside the timed window; every mismatch is a failed operation.

With ``trace`` on, the run gets its per-layer numbers from timing
proxies around the objects the benchmark hands to the program (the
fleet given to ``DetectionServer``, the ensemble given to the fleet)
and from telemetry the program already exports (``obs`` histograms,
the refresh span tree, ``RefreshCoordinator.stats()``,
``ShardedFleet.telemetry()``, ``CAEEnsemble.train_seconds_``).  Traced
and untraced blocks of ``BLOCK_SECONDS`` alternate within the run, and
``trace.overhead_pct`` compares their p50s.  See ``METRICS.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import select
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

from harness import (WINDOW, Outcome, Switch, TimedEnsemble, TimedFleet,
                     alternate, blas_threads, chunk_rows, fabricate_ensemble,
                     import_seconds, make_series, make_streams, median, ms,
                     overhead_pct, p90, p99, peak_rss_mb, pss_mb,
                     reset_chunk_autotune, self_peak_rss_mb)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 5
BLOCK_SECONDS = 0.5
# A perturbed output must fail every check: bit-identity and the
# float32 1e-5 tolerance alike.
PERTURBATION = 1e-3


@dataclasses.dataclass
class Config:
    seed: int
    seconds: float
    trace: bool
    perturb: bool = False
    small: bool = False          # minimal sizes for the self-check


class Setups:
    """Times ``SETUP_REPS`` set-up repetitions spread over the run.

    :meth:`keep` builds the state the timed phase uses; :meth:`repeat`
    builds another and tears it down at once, between segments of the
    timed phase (see :func:`timed_phase`), so a host contention phase
    at the start of a run does not set ``setup_s`` alone.

    A repetition is a fresh interpreter's imports plus ``build()``: the
    benchmark process imports only once, so each repetition times the
    imports in a child process.  With ``imports=False`` (``serve``)
    ``build()`` itself starts a fresh interpreter that imports the
    program, and nothing is added."""

    def __init__(self, build, teardown=lambda state: None,
                 imports: bool = True):
        self.build = build
        self.teardown = teardown
        self.imports = imports
        self.times: List[float] = []

    def keep(self):
        reset_chunk_autotune()
        imports = import_seconds(ROOT) if self.imports else 0.0
        start = time.perf_counter()
        state = self.build()
        self.times.append(imports + time.perf_counter() - start)
        return state

    def repeat(self) -> None:
        self.teardown(self.keep())

    @property
    def seconds(self) -> float:
        return median(self.times)


def timed_phase(config: Config, setups: Setups, run_until) -> float:
    """Runs ``run_until(deadline)`` for ``config.seconds`` in
    ``SETUP_REPS - 1`` equal segments, with one set-up repetition after
    each, outside the timing.  Returns the timed seconds."""
    segments = SETUP_REPS - 1
    elapsed = 0.0
    for _ in range(segments):
        start = time.perf_counter()
        run_until(start + config.seconds / segments)
        elapsed += time.perf_counter() - start
        setups.repeat()
    return elapsed


def _sample(rng: np.random.Generator, n: int, k: int) -> List[int]:
    """Sorted sample of ``k`` indices of ``range(n)``, always with 0."""
    picked = set(rng.choice(n, size=min(k, n), replace=False).tolist())
    return sorted(picked | {0})


def _split(latencies, flags):
    on = [lat for lat, flag in zip(latencies, flags) if flag]
    off = [lat for lat, flag in zip(latencies, flags) if not flag]
    return on, off


def _end_to_end(outcome: Outcome, setups: Setups, latencies: List[float],
                observations: int, elapsed: float, rss: float) -> None:
    outcome.meta["setup_reps_s"] = setups.times
    outcome.end_to_end.update({
        "setup_s": setups.seconds,
        "p90_ms": ms(p90(latencies)),
        "rss_mb": rss,
    })
    # Reported, not gated: minute-long host contention phases spread
    # these further from run to run than any bound allows (METRICS.md).
    outcome.meta["obs_per_s"] = observations / elapsed
    outcome.meta["p50_ms"] = ms(median(latencies))
    outcome.meta["operations_timed"] = len(latencies)
    outcome.latencies = latencies


def _fused_layer(outcome: Outcome, calls: List[tuple],
                 n_models: int) -> None:
    outcome.per_layer.update({
        "fused.score_ms": ms(median([c[1] for c in calls])),
        "fused.us_per_window_model": median(
            [c[1] / (c[2] * n_models) * 1e6 for c in calls]),
        "streaming.windows_per_call": float(np.mean([c[2] for c in calls])),
    })


def _proxy_spans(ticks, calls, tick_name: str) -> List[dict]:
    spans = [{"name": tick_name, "start": t[0], "duration": t[1]}
             for t in ticks]
    spans += [{"name": "fused.score_windows_last", "start": c[0],
               "duration": c[1], "windows": c[2]} for c in calls]
    return spans


# ======================================================================
# ingest — in-process coalesced ticks over a 40-model ensemble
# ======================================================================
INGEST_STREAMS, INGEST_MODELS, INGEST_EMBED = 32, 40, 32
INGEST_ROWS = 4096


def ingest(config: Config) -> Outcome:
    from repro.streaming import shared_fleet

    n_streams, n_models = (4, 4) if config.small else \
        (INGEST_STREAMS, INGEST_MODELS)
    names = [f"ingest-{i:02d}" for i in range(n_streams)]
    data = make_streams(n_streams, INGEST_ROWS, config.seed, salt=1)
    switch = Switch()
    outcome = Outcome()

    def batch(k: int) -> Dict[str, np.ndarray]:
        return {name: data[i, WINDOW - 1 + k:WINDOW + k]
                for i, name in enumerate(names)}

    def build():
        ensemble = fabricate_ensemble(n_models, INGEST_EMBED, 2,
                                      config.seed)
        target = TimedEnsemble(ensemble, switch) if config.trace \
            else ensemble
        fleet = shared_fleet(target, history=WINDOW)
        for i, name in enumerate(names):
            fleet.warm_up(name, data[i, :WINDOW - 1])
        first = fleet.update_coalesced(batch(0))
        return ensemble, target, fleet, first

    setups = Setups(build)
    ensemble, target, fleet, first = setups.keep()
    outcome.meta["fused.chunk_rows"] = chunk_rows()
    scores = [[first[name][0].score for name in names]]
    latencies, flags, ticks = [], [], []
    phase = alternate(switch, BLOCK_SECONDS) if config.trace else None
    k = 1

    def run_until(deadline: float) -> None:
        nonlocal k
        while time.perf_counter() < deadline and k < INGEST_ROWS:
            flag = phase() if phase is not None else False
            inside = target.inside if flag else 0.0
            tick = time.perf_counter()
            results = fleet.update_coalesced(batch(k))
            latencies.append(time.perf_counter() - tick)
            flags.append(flag)
            if flag:
                ticks.append((tick, latencies[-1], target.inside - inside))
            scores.append([results[name][0].score for name in names])
            k += 1

    elapsed = timed_phase(config, setups, run_until)
    switch.set(False)
    # The set-up repetitions between segments re-tune the process-wide
    # fused chunk, which the kept fleet then scores with.
    outcome.meta["fused.chunk_rows_last"] = chunk_rows()

    # Check: sampled ticks against the per-model fused=False path.
    outcome.attempted = len(latencies)
    observed = np.array(scores, dtype=np.float64)
    if config.perturb:
        observed[0, 0] *= 1.0 + PERTURBATION
    checked = _sample(np.random.default_rng([config.seed, 2]),
                      len(scores), 6)
    for tick in checked:
        windows = data[:, tick:tick + WINDOW]
        expected = ensemble.score_windows_last(windows, fused=False)
        if not np.allclose(observed[tick], expected, rtol=1e-5, atol=0.0):
            outcome.failed += 1
    outcome.meta["ticks_checked"] = len(checked)

    if not config.trace:
        _end_to_end(outcome, setups, latencies,
                    len(latencies) * n_streams, elapsed,
                    self_peak_rss_mb())
        return outcome
    on, off = _split(latencies, flags)
    _fused_layer(outcome, target.calls, n_models)
    outcome.per_layer.update({
        "streaming.self_ms": ms(median([t[1] - t[2] for t in ticks])),
        "fused.chunk_rows": float(chunk_rows() or 0),
        "trace.overhead_pct": overhead_pct(on, off),
    })
    outcome.spans = _proxy_spans(ticks, target.calls, "ingest.tick")
    return outcome


# ======================================================================
# sharded — coalesced ticks scattered over 2 shard processes
# ======================================================================
SHARDED_STREAMS, SHARDED_ROWS, SHARDED_MODELS = 16, 16, 8
SHARDED_TICKS = 1500


def sharded(config: Config) -> Outcome:
    from repro.obs import default_registry
    from repro.runtime.fleet import ShardedFleet
    from repro.streaming import shared_fleet, sharded_fleet

    n_streams, rows = (4, 4) if config.small else \
        (SHARDED_STREAMS, SHARDED_ROWS)
    names = [f"shard-stream-{i:02d}" for i in range(n_streams)]
    data = make_streams(n_streams, rows * SHARDED_TICKS, config.seed,
                        salt=4)
    # Shared with the forked shards, whose proxies read it per call.
    switch = Switch(shared=True)
    outcome = Outcome()

    def batch(k: int) -> Dict[str, np.ndarray]:
        first = WINDOW - 1 + rows * k
        return {name: data[i, first:first + rows]
                for i, name in enumerate(names)}

    def scores(results) -> np.ndarray:
        # Compact, so what the benchmark keeps barely moves rss_mb.
        return np.array([[u.score for u in results[name]]
                         for name in names], dtype=np.float64)

    def traced_factory(ensemble):
        def factory(index, coordinator):
            fleet = shared_fleet(ensemble, history=WINDOW,
                                 coordinator=coordinator)
            return TimedFleet(fleet, switch, registry=default_registry(),
                              labels={"shard": str(index)})
        return factory

    def build():
        ensemble = fabricate_ensemble(SHARDED_MODELS, 16, 2, config.seed)
        if config.trace:
            fleet = ShardedFleet(traced_factory(ensemble), n_shards=2)
        else:
            fleet = sharded_fleet(ensemble, n_shards=2, history=WINDOW)
        try:
            for i, name in enumerate(names):
                fleet.warm_up(name, data[i, :WINDOW - 1])
            first = fleet.update_coalesced(batch(0))
        except BaseException:
            fleet.shutdown()
            raise
        return ensemble, fleet, first

    setups = Setups(build, lambda state: state[1].shutdown())
    ensemble, fleet, first = setups.keep()
    try:
        observed = [scores(first)]
        latencies, flags = [], []
        phase = alternate(switch, BLOCK_SECONDS) if config.trace else None
        k = 1

        def run_until(deadline: float) -> None:
            nonlocal k
            while time.perf_counter() < deadline and k < SHARDED_TICKS:
                flags.append(phase() if phase is not None else False)
                tick = time.perf_counter()
                results = fleet.update_coalesced(batch(k))
                latencies.append(time.perf_counter() - tick)
                observed.append(scores(results))
                k += 1

        elapsed = timed_phase(config, setups, run_until)
        switch.set(False)
        telemetry = fleet.telemetry()
        # Peak RSS counts the pages the shards share copy-on-write with
        # the parent once per process.  The proportional set sizes count
        # them once across the tree, but how many of those pages a shard
        # has copied varies with its GC timing (40-65 MB between runs),
        # so they are recorded without gating.
        pids = fleet.worker_pids()
        rss = self_peak_rss_mb() + sum(peak_rss_mb(pid) for pid in pids)
        outcome.meta["pss_mb"] = pss_mb() + sum(pss_mb(pid) for pid in pids)
        routing = [fleet.shard_of(name) for name in names]
    finally:
        fleet.shutdown()
    metrics = telemetry["metrics"]
    outcome.meta["fused.chunk_rows"] = _chunk_rows_from(metrics,
                                                        SHARDED_MODELS)

    # Check: sampled ticks against an in-process StreamFleet.
    outcome.attempted = len(latencies)
    if config.perturb:
        observed[0][0, 0] += PERTURBATION
    checked = _sample(np.random.default_rng([config.seed, 5]),
                      len(observed), 6)
    for k in checked:
        local = shared_fleet(ensemble, history=WINDOW)
        for i, name in enumerate(names):
            context = WINDOW - 1 + rows * k
            local.warm_up(name, data[i, context - (WINDOW - 1):context])
        expected = scores(local.update_coalesced(batch(k)))
        if not np.array_equal(observed[k], expected):
            outcome.failed += 1
    outcome.meta["ticks_checked"] = len(checked)

    if not config.trace:
        _end_to_end(outcome, setups, latencies,
                    len(latencies) * n_streams * rows, elapsed, rss)
        return outcome
    on, off = _split(latencies, flags)
    busy = {entry["labels"]["shard"]: entry["p50"]
            for entry in metrics["histograms"]
            if entry["name"] == "perfbench_update_seconds"
            and entry["p50"] is not None}
    slowest = max(busy.values())
    per_shard = [routing.count(index) * rows for index in range(2)]
    outcome.per_layer.update({
        "runtime.shard_busy_ms": ms(slowest),
        "runtime.ipc_ms": ms(median(on) - slowest),
        "runtime.shard_skew": max(per_shard) / float(np.mean(per_shard)),
        "fused.chunk_rows": float(outcome.meta["fused.chunk_rows"] or 0),
        "trace.overhead_pct": overhead_pct(on, off),
    })
    outcome.meta["shard_busy_p50_ms"] = {shard: ms(value)
                                         for shard, value in busy.items()}
    outcome.spans = [{"name": "sharded.tick", "duration": lat}
                     for lat, flag in zip(latencies, flags) if flag]
    return outcome


def _chunk_rows_from(metrics: dict, n_models: int):
    """Effective fused chunk in model-window rows, from the shards'
    exported counters: windows scored per timed chunk times models."""
    windows = sum(entry["value"] for entry in metrics["counters"]
                  if entry["name"] == "repro_fused_windows_total")
    chunks = sum(entry["count"] for entry in metrics["histograms"]
                 if entry["name"] == "repro_fused_chunk_seconds")
    return None if not chunks else windows / chunks * n_models


# ======================================================================
# refresh — co-drifting streams, one deduplicated build per round
# ======================================================================
REFRESH_STREAMS, REFRESH_MODELS, REFRESH_HISTORY = 4, 5, 64
REFRESH_EPOCHS = 1
ROUND_ROWS = 8
REFRESH_ROUNDS = 2000


class FireEvery:
    """Drift stub confirming a drift at the last arrival of every round,
    so all streams trigger at the same arrival."""

    def __init__(self, period: int):
        self.period = period

    def update(self, score, index):
        from repro.streaming import DriftEvent
        if index % self.period == self.period - 1:
            return DriftEvent(index=index, detector="perfbench",
                              kind="drift", statistic=1.0, threshold=0.0)
        return None

    def reset(self):
        pass


def refresh(config: Config) -> Outcome:
    from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
    from repro.obs import default_tracer
    from repro.streaming import (EnsembleRefresher, RefreshCoordinator,
                                 StreamingDetector)

    n_models, embed = (2, 8) if config.small else (REFRESH_MODELS, 32)
    data = make_streams(REFRESH_STREAMS, ROUND_ROWS * REFRESH_ROUNDS,
                        config.seed, salt=6)
    train = make_series(1024, np.random.default_rng([config.seed, 9]))
    tracer = default_tracer()
    outcome = Outcome()

    def build():
        ensemble = CAEEnsemble(
            CAEConfig(input_dim=3, embed_dim=embed, window=WINDOW,
                      n_layers=2),
            EnsembleConfig(n_models=n_models,
                           epochs_per_model=REFRESH_EPOCHS,
                           seed=config.seed, max_training_windows=256,
                           fused_training=True)).fit(train)
        coordinator = RefreshCoordinator(max_concurrent_builds=1)
        detectors = []
        for _ in range(REFRESH_STREAMS):
            detector = StreamingDetector(
                ensemble, drift_detector=FireEvery(ROUND_ROWS),
                refresher=EnsembleRefresher(
                    epochs_per_model=REFRESH_EPOCHS),
                history=REFRESH_HISTORY, refresh_mode="async",
                coordinator=coordinator)
            # A full history ring: every build trains on the same size.
            detector.warm_up(train[-REFRESH_HISTORY:])
            detectors.append(detector)
        run_round(detectors, 0)
        return coordinator, detectors

    def run_round(detectors, r: int) -> float:
        """Feed one round; returns first trigger -> last replacement."""
        rows = data[:, WINDOW - 1 + ROUND_ROWS * r:
                    WINDOW - 1 + ROUND_ROWS * (r + 1)]
        for detector, own in zip(detectors, rows):
            detector.update_batch(own[:-1])
        start = time.perf_counter()
        for detector, own in zip(detectors, rows):
            detector.update_batch(own[-1:])
        swapped = [detector.wait_for_refresh(timeout=60.0)
                   for detector in detectors]
        seconds = time.perf_counter() - start
        if not all(swapped):
            raise RuntimeError(f"round {r}: not every stream swapped")
        return seconds

    def teardown(state):
        state[0].shutdown()
        state[0].drain(timeout=60.0)

    setups = Setups(build, teardown)
    state = setups.keep()
    coordinator, detectors = state
    previous = detectors[0].ensemble
    latencies, flags, spans, fits = [], [], [], []
    stats_on = [0, 0]                         # requests, deduped
    phase = alternate(Switch(), BLOCK_SECONDS) if config.trace else None
    r = 1

    def run_until(deadline: float) -> None:
        nonlocal previous, r
        while time.perf_counter() < deadline and r < REFRESH_ROUNDS:
            flag = phase() if phase is not None else False
            # Drops the spans of set-up and of earlier rounds.
            tracer.clear()
            before = coordinator.stats()
            latencies.append(run_round(detectors, r))
            flags.append(flag)
            after = coordinator.stats()
            # Check: 4 requests, 3 deduplicated, 1 build; every stream
            # serves the same new replacement instance.
            replacements = {id(detector.ensemble) for detector in detectors}
            if config.perturb and r == 1:
                replacements.add(id(previous))
            ok = (after.n_requests - before.n_requests == REFRESH_STREAMS
                  and after.n_deduped - before.n_deduped ==
                  REFRESH_STREAMS - 1
                  and after.n_admitted - before.n_admitted == 1
                  and after.n_completed - before.n_completed == 1
                  and len(replacements) == 1
                  and detectors[0].ensemble is not previous)
            outcome.failed += 0 if ok else 1
            previous = detectors[0].ensemble
            if flag:
                spans.extend(span.to_dict() for span in tracer.finished())
                fits.append(previous.train_seconds_)
                stats_on[0] += after.n_requests - before.n_requests
                stats_on[1] += after.n_deduped - before.n_deduped
            r += 1

    elapsed = timed_phase(config, setups, run_until)
    teardown(state)
    outcome.attempted = len(latencies)
    outcome.meta["fused.chunk_rows"] = chunk_rows()

    if not config.trace:
        _end_to_end(outcome, setups, latencies,
                    len(latencies) * REFRESH_STREAMS * ROUND_ROWS, elapsed,
                    self_peak_rss_mb())
        return outcome
    on, off = _split(latencies, flags)

    def span_ms(name, keep=lambda span: True):
        return ms(median([span["duration"] for span in spans
                          if span["name"] == name and keep(span)]))

    windows = REFRESH_EPOCHS * (REFRESH_HISTORY - WINDOW + 1)
    outcome.per_layer.update({
        "fused.pack_ms": span_ms("refresh.pack"),
        "coordinator.admission_ms": span_ms(
            "refresh.admission",
            lambda span: not span["attributes"].get("deduped")),
        "coordinator.builds_per_request":
            (stats_on[0] - stats_on[1]) / stats_on[0],
        "refresh.build_ms": span_ms("refresh.build"),
        "training.fit_ms": ms(median(fits)),
        "training.windows_per_s": median(
            [windows * n_models / fit for fit in fits]),
        "fused.chunk_rows": float(chunk_rows() or 0),
        "trace.overhead_pct": overhead_pct(on, off),
    })
    outcome.spans = spans
    return outcome


# ======================================================================
# serve — closed loop over TCP to a DetectionServer process
# ======================================================================
SERVE_STREAMS, SERVE_CONNECTIONS, SERVE_MODELS = 64, 2, 8
SERVE_ROWS = 8192


def serve_process(seed: int, traced: bool) -> int:
    """The server process (``run.py --serve-process``): a
    DetectionServer over ``shared_fleet``.

    Prints ``{"port": ...}``, then reads control lines from stdin:
    ``on``/``off`` flip its proxies, ``stop`` drains the server and
    prints a report of proxy timings, telemetry and peak RSS."""
    from repro.obs import default_registry
    from repro.serving import DetectionServer
    from repro.streaming import shared_fleet

    switch = Switch()
    ensemble = fabricate_ensemble(SERVE_MODELS, 16, 2, seed)
    target = TimedEnsemble(ensemble, switch) if traced else ensemble
    fleet = shared_fleet(target, history=WINDOW)
    warm = make_streams(SERVE_STREAMS, SERVE_ROWS, seed, salt=3)
    for i in range(SERVE_STREAMS):
        fleet.warm_up(f"serve-{i:02d}", warm[i, :WINDOW - 1])
    served = TimedFleet(fleet, switch, target) if traced else fleet

    def control() -> None:
        for line in sys.stdin:
            if line.strip() == "stop":
                return
            switch.set(line.strip() == "on")

    async def main():
        server = DetectionServer(served, port=0)
        await server.start()
        print(json.dumps({"port": server.port}), flush=True)
        await asyncio.get_running_loop().run_in_executor(None, control)
        await server.stop()
        registry = default_registry()
        batches = registry.histogram("repro_serving_dispatch_batch_requests",
                                     low=1.0, high=1e5, buckets_per_decade=4)
        requests = registry.histogram("repro_serving_request_seconds")
        return {
            "rss_mb": self_peak_rss_mb(),
            "chunk_rows": chunk_rows(),
            "blas_threads": blas_threads(),
            "request_p50_s": requests.quantile(0.5),
            "flush_requests": batches.sum / batches.count
            if batches.count else 0.0,
            "ticks": served.ticks if traced else [],
            "calls": target.calls if traced else [],
        }

    print(json.dumps(asyncio.run(main())), flush=True)
    return 0


class _ServerProcess:
    """A ``run.py --serve-process`` child, driven over its stdin/stdout."""

    def __init__(self, seed: int, traced: bool):
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(
                os.path.abspath(__file__)), "run.py"), "--serve-process",
             "--seed", str(seed), "--trace", str(int(traced))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._read()["port"]
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise

    def _read(self, timeout: float = 120.0) -> dict:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"serve process {self.process.pid} did not "
                               f"answer within {timeout:.0f}s")
        return json.loads(line)

    def send(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def stop(self) -> dict:
        try:
            self.send("stop")
            return self._read()
        finally:
            self.process.stdin.close()
            try:
                self.process.wait(30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()


def serve(config: Config) -> Outcome:
    loop = asyncio.new_event_loop()
    try:
        return _serve(config, loop)
    finally:
        loop.close()


def _serve(config: Config, loop) -> Outcome:
    from repro.serving import ServingClient, encode_frame
    from repro.streaming import shared_fleet

    names = [f"serve-{i:02d}" for i in range(SERVE_STREAMS)]
    data = make_streams(SERVE_STREAMS, SERVE_ROWS, config.seed, salt=3)
    outcome = Outcome()
    sent = [0] * SERVE_STREAMS
    replies: List[list] = [[] for _ in range(SERVE_STREAMS)]

    async def connect(port: int):
        clients = [await ServingClient.connect("127.0.0.1", port)
                   for _ in range(SERVE_CONNECTIONS)]
        # The first, untimed call of each connection: stream c's first
        # row.
        first = [await client.update(names[c], data[c, WINDOW - 1].tolist())
                 for c, client in enumerate(clients)]
        return clients, first

    async def close(clients) -> None:
        for client in clients:
            await client.close()

    def build():
        server = _ServerProcess(config.seed, config.trace)
        try:
            clients, first = loop.run_until_complete(connect(server.port))
        except BaseException:
            server.stop()
            raise
        return server, clients, first

    def teardown(state) -> dict:
        server, clients, _ = state
        loop.run_until_complete(close(clients))
        return server.stop()

    # build() starts a fresh server interpreter, which imports the
    # program: the imports are counted there, once.
    setups = Setups(build, teardown, imports=False)
    state = setups.keep()
    server, clients, first = state
    for c, reply in enumerate(first):
        sent[c] = 1
        replies[c].append(reply)
    switch = Switch(notify=lambda on: server.send("on" if on else "off"))
    latencies, flags = [], []
    phase = alternate(switch, BLOCK_SECONDS) if config.trace else None
    position = [0] * SERVE_CONNECTIONS

    async def request(client, stream: int) -> None:
        row = data[stream, WINDOW - 1 + sent[stream]]
        sent[stream] += 1
        replies[stream].append(await client.update(names[stream],
                                                   row.tolist()))

    async def drive(c: int, client, deadline: float) -> None:
        mine = list(range(c, SERVE_STREAMS, SERVE_CONNECTIONS))
        while time.perf_counter() < deadline:
            stream = mine[position[c] % len(mine)]
            if sent[stream] >= SERVE_ROWS:
                break
            flag = phase() if phase is not None else False
            tick = time.perf_counter()
            await request(client, stream)
            latencies.append(time.perf_counter() - tick)
            flags.append(flag)
            position[c] += 1

    async def drive_all(deadline: float) -> None:
        await asyncio.gather(*[drive(c, client, deadline)
                               for c, client in enumerate(clients)])

    def run_until(deadline: float) -> None:
        loop.run_until_complete(drive_all(deadline))

    elapsed = timed_phase(config, setups, run_until)
    switch.set(False)
    rss_self = self_peak_rss_mb()
    report = teardown(state)
    outcome.meta["fused.chunk_rows"] = report["chunk_rows"]
    outcome.meta["blas_threads_server"] = report["blas_threads"]

    # Check: every reply ok; sampled streams bit-identical to a serial
    # in-process update_batch replay of the same rows.
    outcome.attempted = len(latencies)
    for log in replies:
        outcome.failed += sum(1 for reply in log
                              if reply.get("status") != "ok")
    if config.perturb:
        replies[0][0]["result"]["score"] += PERTURBATION
    local = shared_fleet(fabricate_ensemble(SERVE_MODELS, 16, 2,
                                            config.seed), history=WINDOW)
    checked = _sample(np.random.default_rng([config.seed, 10]),
                      SERVE_STREAMS, 8)
    for stream in checked:
        local.warm_up(names[stream], data[stream, :WINDOW - 1])
        for k, reply in enumerate(replies[stream]):
            update = local.update_batch(
                names[stream], data[stream, WINDOW - 1 + k][None])[0]
            result = reply.get("result") or {}
            if (result.get("index"), result.get("score"),
                    result.get("threshold"), result.get("alert")) != \
                    (update.index, update.score, update.threshold,
                     bool(update.alert)):
                outcome.failed += 1
    outcome.meta["streams_checked"] = len(checked)

    if not config.trace:
        _end_to_end(outcome, setups, latencies,
                    len(latencies), elapsed, rss_self + report["rss_mb"])
        return outcome
    on, off = _split(latencies, flags)
    fleet_s = median([t[1] for t in report["ticks"]])
    frames = []
    for stream in checked:
        for k, reply in enumerate(replies[stream][:25]):
            row = data[stream, WINDOW - 1 + k]
            asked = {"op": "update", "stream": names[stream],
                     "observation": row.tolist(), "id": reply.get("id")}
            frames.append(len(encode_frame(asked)) +
                          len(encode_frame(reply)))
    _fused_layer(outcome, report["calls"], SERVE_MODELS)
    outcome.per_layer.update({
        "serving.fleet_ms": ms(fleet_s),
        "serving.overhead_ms": ms(median(on) - fleet_s),
        "serving.queue_ms": ms(report["request_p50_s"] - fleet_s),
        "serving.flush_requests": report["flush_requests"],
        "serving.frame_bytes": median(frames),
        "serving.rtt_p99_ms": ms(p99(on)),
        "streaming.self_ms": ms(median([t[1] - t[2]
                                        for t in report["ticks"]])),
        "fused.chunk_rows": float(report["chunk_rows"] or 0),
        "trace.overhead_pct": overhead_pct(on, off),
    })
    outcome.spans = _proxy_spans(report["ticks"], report["calls"],
                                 "serving.fleet.update_coalesced")
    return outcome


WORKLOADS = {"serve": serve, "ingest": ingest, "refresh": refresh,
             "sharded": sharded}
