"""Shared pieces of the benchmark: inputs, ensembles, timing proxies,
statistics and per-run metadata.

Everything the program sees is generated here from the run's seed: a
D=3 sin/cos mixture plus noise, scored through window 16.  Stream names
are fixed and never depend on the seed, so crc32 shard routing (and with
it the per-shard load) is the same on every run.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
from repro.core.cae import CAE
from repro.core.fused import FusedEnsembleScorer
from repro.datasets.preprocess import StandardScaler

WINDOW = 16
DIMS = 3
PERIODS = (31.0, 47.0, 19.0)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_series(length: int, rng: np.random.Generator) -> np.ndarray:
    """``(length, 3)`` sin/cos mixture with a random phase plus noise."""
    t = np.arange(length) + rng.integers(0, 1000)
    clean = np.stack([np.sin(2 * np.pi * t / PERIODS[0]),
                      np.cos(2 * np.pi * t / PERIODS[1]),
                      np.sin(2 * np.pi * t / PERIODS[2])], axis=1)
    return clean + 0.05 * rng.standard_normal((length, DIMS))


def make_streams(n_streams: int, length: int, seed: int,
                 salt: int) -> np.ndarray:
    """``(n_streams, WINDOW - 1 + length, 3)``: each stream's warm-up
    context followed by its traffic rows."""
    rng = np.random.default_rng([seed, salt])
    return np.stack([make_series(WINDOW - 1 + length, rng)
                     for _ in range(n_streams)])


def fabricate_ensemble(n_models: int, embed_dim: int, n_layers: int,
                       seed: int) -> CAEEnsemble:
    """A random-initialised ensemble: inference cost does not depend on
    the weight values, and fabricating keeps large ensembles cheap to
    set up.  Scores still run scaler -> forward -> aggregation."""
    config = CAEConfig(input_dim=DIMS, embed_dim=embed_dim, window=WINDOW,
                       n_layers=n_layers)
    ensemble = CAEEnsemble(config, EnsembleConfig(n_models=n_models,
                                                  seed=seed))
    root = np.random.default_rng([seed, 7])
    ensemble.models = [CAE(config, np.random.default_rng(
        root.integers(2 ** 32))) for _ in range(n_models)]
    ensemble.scaler = StandardScaler().fit(
        make_series(2048, np.random.default_rng([seed, 8])))
    return ensemble


def import_seconds(root: str) -> float:
    """Wall time of a fresh interpreter importing the program's public
    packages: the import share of a process's set-up."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import numpy, repro.streaming, repro.serving, "
                    "repro.runtime.fleet", os.path.join(root, "src")],
                   check=True, timeout=120)
    return time.perf_counter() - start


def reset_chunk_autotune() -> None:
    """Forget the fused scorer's tuned chunk so the next large call
    re-tunes, as a fresh process would.  A no-op once the tuner is
    gone."""
    reset = getattr(FusedEnsembleScorer, "reset_chunk_autotune", None)
    if reset is not None:
        reset()


def chunk_rows() -> Optional[int]:
    """The fused chunk target this process scores with (the auto-tuned
    value, else the class default); None if the scorer has neither."""
    tuned = getattr(FusedEnsembleScorer, "_tuned_chunk_rows", None)
    if tuned is not None:
        return int(tuned)
    default = getattr(FusedEnsembleScorer, "CHUNK_TARGET_ROWS", None)
    return None if default is None else int(default)


# ----------------------------------------------------------------------
# Timing proxies (the benchmark's only view inside a call)
# ----------------------------------------------------------------------
class Switch:
    """Whether the proxies record.

    ``shared`` backs the flag with a byte of anonymous shared memory, so
    proxies in forked shard processes see the parent's flips; ``notify``
    forwards every flip (e.g. to a server process's control pipe).
    """

    def __init__(self, shared: bool = False, notify=None):
        self._shared = mmap.mmap(-1, 1) if shared else None
        self._on = False
        self._notify = notify

    @property
    def on(self) -> bool:
        if self._shared is not None:
            return self._shared[0] == 1
        return self._on

    def set(self, on: bool) -> None:
        if self._shared is not None:
            self._shared[0] = 1 if on else 0
        self._on = on
        if self._notify is not None:
            self._notify(on)


class TimedEnsemble:
    """Forwards to a :class:`CAEEnsemble`, timing ``score_windows_last``.

    ``inside`` accumulates the seconds spent in scoring so a caller can
    subtract it from the enclosing tick (streaming self time)."""

    def __init__(self, ensemble, switch: Switch):
        self._ensemble = ensemble
        self._switch = switch
        self.calls: List[tuple] = []        # (start, seconds, windows)
        self.inside = 0.0

    def score_windows_last(self, windows, *args, **kwargs):
        if not self._switch.on:
            return self._ensemble.score_windows_last(windows, *args,
                                                     **kwargs)
        start = time.perf_counter()
        scores = self._ensemble.score_windows_last(windows, *args, **kwargs)
        seconds = time.perf_counter() - start
        self.inside += seconds
        self.calls.append((start, seconds, int(windows.shape[0])))
        return scores

    def __getattr__(self, name):
        return getattr(self._ensemble, name)


class TimedFleet:
    """Forwards to a fleet, timing ``update_coalesced`` and the scoring
    time (from a :class:`TimedEnsemble`) inside each call."""

    def __init__(self, fleet, switch: Switch,
                 ensemble: Optional[TimedEnsemble] = None,
                 registry=None, labels: Optional[dict] = None):
        self._fleet = fleet
        self._switch = switch
        self._ensemble = ensemble
        self.ticks: List[tuple] = []        # (start, seconds, scoring s)
        # Shard-side proxies record into the shard's registry, which
        # the parent reads back through ShardedFleet.telemetry().
        self._histogram = None if registry is None else registry.histogram(
            "perfbench_update_seconds", low=1e-5, high=100.0,
            buckets_per_decade=60, **(labels or {}))

    def update_coalesced(self, batches):
        if not self._switch.on:
            return self._fleet.update_coalesced(batches)
        inside = self._ensemble.inside if self._ensemble is not None \
            else 0.0
        start = time.perf_counter()
        results = self._fleet.update_coalesced(batches)
        seconds = time.perf_counter() - start
        scoring = self._ensemble.inside - inside \
            if self._ensemble is not None else 0.0
        self.ticks.append((start, seconds, scoring))
        if self._histogram is not None:
            self._histogram.observe(seconds)
        return results

    def __len__(self):
        return len(self._fleet)

    def __getattr__(self, name):
        return getattr(self._fleet, name)


def alternate(switch: Switch, block_seconds: float):
    """Closure flipping ``switch`` every ``block_seconds``; returns the
    state an operation starting now runs under.  Traced and untraced
    blocks interleave so host drift hits both alike."""
    state = {"next": time.perf_counter() + block_seconds, "on": True}
    switch.set(True)

    def tick() -> bool:
        now = time.perf_counter()
        if now >= state["next"]:
            state["on"] = not state["on"]
            state["next"] = now + block_seconds
            switch.set(state["on"])
        return state["on"]
    return tick


# ----------------------------------------------------------------------
# Statistics and host facts
# ----------------------------------------------------------------------
def ms(seconds: float) -> float:
    return seconds * 1e3


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), 90))


def p99(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), 99))


def overhead_pct(traced: List[float], untraced: List[float]) -> float:
    """Traced p50 over untraced p50, as a percentage above 100."""
    return (median(traced) / median(untraced) - 1.0) * 100.0


def host_ref_ms() -> float:
    """A fixed numpy loop (GEMM + tanh), median of 15 repetitions, in
    ms: tracks how fast this host executes right now."""
    a = np.random.default_rng(0).standard_normal((96, 96))
    out = np.empty_like(a)
    times = []
    for _ in range(15):
        start = time.perf_counter()
        for _ in range(20):
            np.matmul(a, a, out=out)
            np.tanh(out, out=out)
        times.append(time.perf_counter() - start)
    return ms(median(times))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pss_mb(pid="self") -> float:
    """Proportional set size of a live process, in MB: each page counts
    divided by the number of processes that map it, so summing over a
    process tree counts shared pages once."""
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no Pss for pid {pid}")


def blas_threads() -> Dict[str, Optional[str]]:
    return {var: os.environ.get(var) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def source_digest(root: str) -> str:
    """Identity of the program under test: SHA-256 over ``src/`` (the
    checkout the benchmark runs in is not a git repository)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


class Outcome:
    """What one workload run reports back to ``run.py``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.meta: Dict[str, object] = {}
        self.spans: List[dict] = []
        self.latencies: List[float] = []
