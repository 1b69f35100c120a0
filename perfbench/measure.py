"""Timing helpers shared by the workloads: percentiles, set-up timing and
the load generators (blocking clients and open loop).

Each generator returns, for every completed request, aligned ``ids``,
``latencies`` (seconds) and ``finished`` (``perf_counter`` completion
times), which the traced run's request ledger joins with the spans."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


#: Set-ups per run; the reported set-up time is their median.
SETUP_REPEATS = 9
#: Equal slices of a serving window that the latency figures are taken over.
SLICES = 10


def window_metrics(result: dict, seconds: float) -> dict:
    """Latency percentiles of the timed window, each the median over
    ``SLICES`` equal slices of the window (by send or due time) of that
    slice's percentile.

    Every request counts in its slice and no slice is picked for being
    fast: a disturbance in most slices (hot-swap writes spread over the
    window, a slow machine) moves the median with it.  One confined to
    fewer than half of the slices, such as a neighbour's burst of load on
    a shared host, does not set the run's figure by itself, as it would
    set a whole-window p90 once it covered a tenth of the window.
    """
    latencies = np.asarray(result["latencies"], dtype=np.float64)
    sent = np.asarray(result["finished"], dtype=np.float64) - latencies - result["start"]
    slot = np.clip((sent / seconds * SLICES).astype(np.int64), 0, SLICES - 1)
    figures = {}
    for name, p in (("latency_p50_ms", 50), ("latency_p90_ms", 90)):
        per_slice = [percentile(latencies[slot == s], p) for s in range(SLICES) if (slot == s).any()]
        figures[name] = statistics.median(per_slice) * 1e3
    return figures


def derive_seeds(seed: int, count: int) -> list:
    """``count`` independent data seeds derived from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one measured window of a workload produced."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end metric name -> value (units fixed in BENCHMARK.json).
    e2e: dict = field(default_factory=dict)
    #: Per-layer metric name -> value, read from the program's stats.
    layers: dict = field(default_factory=dict)
    #: Human-readable lines printed before the result.
    notes: list = field(default_factory=list)
    #: Count of completed operations the per-operation layer figures divide by.
    operations: int = 0
    #: ``perf_counter`` bounds of the timed window (set-up spans precede it).
    window: tuple = (0.0, 0.0)
    #: The load generator's ``ids``, ``latencies`` and ``finished`` times
    #: of every completed request (or offline job run) in the window.
    requests: dict = field(default_factory=dict)
    #: Server-side request traces of the window (socket workloads, traced).
    server_traces: Optional[list] = None


def timed_setups(build: Callable[[], object], teardown: Callable[[object], None], repeats: int):
    """Run ``build`` ``repeats`` times; keep the last result.

    Returns ``(result, median_seconds)``.  Every result but the last is
    torn down and collected before the next build starts, so each set-up
    starts from the same state and only one is live when timing starts.
    """
    seconds = []
    for _ in range(repeats - 1):
        start = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - start)
        teardown(built)
        del built
        gc.collect()
    start = time.perf_counter()
    built = build()
    seconds.append(time.perf_counter() - start)
    return built, statistics.median(seconds)


def _count_failures(check: Callable, outcomes: list) -> int:
    """Check every ``(index, outcome)`` after timing; errors count as failed."""
    failed = 0
    for index, outcome in outcomes:
        try:
            failed += 0 if check(index, outcome.result()) else 1
        except Exception:  # noqa: BLE001 - a failed request counts as failed
            failed += 1
    return failed


class _Done:
    """A completed call's result, shaped like a settled future."""

    def __init__(self, value=None, error: Optional[BaseException] = None):
        self.value, self.error = value, error

    def result(self, timeout=None):
        if self.error is not None:
            raise self.error
        return self.value


def _settled(future) -> "_Done":
    """The result (or error) of a settled future, without the future."""
    try:
        return _Done(future.result())
    except Exception as exc:  # noqa: BLE001 - kept and counted by the check
        return _Done(error=exc)


def client_request_id(thread: int, index: int) -> int:
    """The request id of request ``index`` of blocking client ``thread``."""
    return thread * 10_000_000 + index


def blocking_clients(call: Callable, check: Callable, threads: int, seconds: float, tracer=None) -> dict:
    """``threads`` client threads, each with one blocking request in flight.

    ``call(thread, index)`` performs request ``index`` of client
    ``thread`` and returns its result; ``check(thread, index, result)``
    runs after the window closes.
    """
    latencies: list = [[] for _ in range(threads)]
    finished: list = [[] for _ in range(threads)]
    ids: list = [[] for _ in range(threads)]
    outcomes: list = [[] for _ in range(threads)]
    start = time.perf_counter()
    deadline = start + seconds

    def client(thread: int) -> None:
        index = 0
        while time.perf_counter() < deadline:
            if tracer is not None:
                tracer.set_request(client_request_id(thread, index))
            sent = time.perf_counter()
            try:
                outcome = _Done(call(thread, index))
            except Exception as exc:  # noqa: BLE001 - a failed request counts as failed
                outcome = _Done(error=exc)
            done = time.perf_counter()
            latencies[thread].append(done - sent)
            finished[thread].append(done)
            ids[thread].append(client_request_id(thread, index))
            outcomes[thread].append(((thread, index), outcome))
            index += 1

    workers = [threading.Thread(target=client, args=(t,), daemon=True) for t in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=seconds + 60.0)
    elapsed = time.perf_counter() - start
    flat = [item for chunk in outcomes for item in chunk]
    return {
        "attempted": len(flat),
        "failed": _count_failures(lambda key, out: check(key[0], key[1], out), flat),
        "latencies": [value for chunk in latencies for value in chunk],
        "finished": [value for chunk in finished for value in chunk],
        "ids": [value for chunk in ids for value in chunk],
        "start": start,
        "elapsed": elapsed,
    }


def open_loop(submit: Callable, check: Callable, rate: float, seconds: float,
              rng: np.random.Generator, tracer=None) -> dict:
    """Poisson arrivals at ``rate`` per second for ``seconds``.

    Each request's latency runs from its *due* time, so a stalled
    generator charges its delay to every request it held back; the
    generator's own lateness (send time minus due time) is reported too.
    """
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    due = np.cumsum(gaps)
    due = due[due < seconds]
    latencies: list = []
    finished: list = []
    ids: list = []
    lateness: list = []
    outcomes: list = []
    lock = threading.Lock()

    def settle(index, due_at, future):
        done = time.perf_counter()
        outcome = _settled(future)
        with lock:
            latencies.append(done - due_at)
            finished.append(done)
            ids.append(index)
            outcomes.append((index, outcome))

    start = time.perf_counter()
    for index, offset in enumerate(due):
        due_at = start + float(offset)
        wait = due_at - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        lateness.append(time.perf_counter() - due_at)
        if tracer is not None:
            tracer.set_request(index)
        submit(index).add_done_callback(lambda f, i=index, d=due_at: settle(i, d, f))
    give_up = time.perf_counter() + 60.0
    while len(latencies) < len(due) and time.perf_counter() < give_up:
        time.sleep(0.001)
    if tracer is not None:
        tracer.set_request(None)
    return {
        "attempted": len(due),
        "failed": _count_failures(check, list(outcomes)) + len(due) - len(outcomes),
        "latencies": latencies,
        "finished": finished,
        "ids": ids,
        "lateness": lateness,
        "start": start,
        "elapsed": max(finished, default=start) - start,
    }
