"""Tests for the transport-agnostic request core (repro.serving.broker),
the per-deployment SLO / latency-split metrics, and the versioned
hot-swap / online re-training path (including the submit-vs-swap race
regressions)."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps import HDClassificationInference
from repro.apps.common import bipolar_random
from repro.backends import compile as hdc_compile
from repro.datasets import IsoletConfig, make_isolet_like
from repro.serving import (
    BatcherClosed,
    InferenceServer,
    ModelRegistry,
    NotUpdatableError,
    RequestBroker,
    Servable,
    ServingMetrics,
)
from repro.serving.scheduler import WorkerPool

DIM = 128
CLASSES = 5


def make_servable(seed: int = 2, name: str = "broker-model") -> Servable:
    classes = bipolar_random(CLASSES, DIM, seed=seed)

    def build_program(batch_size: int) -> H.Program:
        prog = H.Program(f"{name}_b{batch_size}")

        @prog.define(H.hv(DIM), H.hm(CLASSES, DIM))
        def infer_one(encoding, class_hvs):
            distances = H.hamming_distance(H.sign(encoding), H.sign(class_hvs))
            return H.arg_min(distances)

        @prog.entry(H.hm(batch_size, DIM), H.hm(CLASSES, DIM))
        def main(encodings, class_hvs):
            return H.inference_loop(infer_one, encodings, class_hvs)

        return prog

    return Servable(
        name=name,
        build_program=build_program,
        constants={"class_hvs": classes},
        query_param="encodings",
        sample_shape=(DIM,),
        supported_targets=("cpu", "gpu"),
    )


def queries(n: int, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, (n, DIM)) * 2 - 1).astype(np.float32)


class TestRequestBrokerStandalone:
    """The broker is usable without the InferenceServer facade."""

    def test_submit_batch_dispatch_settle(self):
        servable = make_servable()
        registry = ModelRegistry()
        deployment = registry.register(servable, warm_batch_sizes=())
        broker = RequestBroker(
            registry, WorkerPool(("cpu",)), max_batch_size=8, max_wait_seconds=0.002
        )
        broker.add_model(deployment)
        assert not broker.running
        broker.start()
        try:
            assert broker.running
            futures = [broker.submit(servable.name, q) for q in queries(20)]
            broker.drain()
            labels = [int(np.asarray(f.result(timeout=5.0))) for f in futures]
            assert all(0 <= label < CLASSES for label in labels)
            stats = broker.stats()
            assert stats.requests == 20
            assert broker.model_names() == [servable.name]
        finally:
            broker.stop()
        assert not broker.running

    def test_server_is_thin_adapter_over_broker(self):
        """The facade and its broker must observe the same state."""
        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        servable = make_servable(name="adapter-model")
        server.register(servable)
        assert server.metrics is server.broker.metrics
        assert server.broker.registry is server.registry
        assert server.broker.pool is server.pool
        with server:
            server.infer(servable.name, queries(1)[0])
            server.drain()
        assert server.stats().requests == server.broker.stats().requests == 1


class TestLatencySplitAndSLO:
    def test_queue_wait_execute_split_recorded(self):
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.002)
        servable = make_servable(name="split-model")
        server.register(servable)
        with server:
            for q in queries(24):
                server.submit(servable.name, q)
            server.drain()
            stats = server.stats()
        model = stats.model_stats[servable.name]
        assert model["requests"] == 24
        assert model["mean_execute_ms"] > 0.0
        assert model["queue_wait_p95_ms"] >= model["queue_wait_p50_ms"] >= 0.0
        assert model["execute_p95_ms"] >= model["execute_p50_ms"] > 0.0
        # The split components cannot exceed the end-to-end latency.
        assert model["mean_queue_wait_ms"] + model["mean_execute_ms"] <= (
            stats.mean_latency_ms * 1.5 + 1.0
        )

    def test_slo_violations_counted_per_model(self):
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.002)
        strict = make_servable(seed=4, name="strict-slo")
        relaxed = make_servable(seed=5, name="relaxed-slo")
        server.register(strict, slo_ms=1e-9)       # everything violates
        server.register(relaxed, slo_ms=60_000.0)  # nothing violates
        with server:
            for q in queries(10):
                server.submit(strict.name, q)
                server.submit(relaxed.name, q)
            server.drain()
            stats = server.stats()
        assert stats.model_stats[strict.name]["slo_violations"] == 10
        assert stats.model_stats[strict.name]["slo_ms"] == pytest.approx(1e-9)
        assert stats.model_stats[relaxed.name]["slo_violations"] == 0
        assert stats.slo_violations == 10

    def test_no_slo_means_no_violations(self):
        metrics = ServingMetrics()
        metrics.record_request(10.0, model="m", queue_wait_seconds=9.0, execute_seconds=1.0)
        stats = metrics.snapshot()
        assert stats.model_stats["m"]["slo_ms"] is None
        assert stats.model_stats["m"]["slo_violations"] == 0

    def test_stats_to_dict_is_json_serializable(self):
        server = InferenceServer(workers=("cpu",), max_batch_size=4)
        servable = make_servable(name="json-model")
        server.register(servable, slo_ms=5_000.0)
        with server:
            server.infer(servable.name, queries(1)[0])
            server.drain()
            payload = json.dumps(server.stats().to_dict())
        restored = json.loads(payload)
        assert restored["requests"] == 1
        assert all(isinstance(k, str) for k in restored["batch_size_histogram"])


class TestMetricsReset:
    def test_reset_zeroes_interval_but_keeps_slo(self):
        metrics = ServingMetrics()
        metrics.set_slo("m", 0.5)
        metrics.record_request(1.0, model="m", queue_wait_seconds=0.9, execute_seconds=0.1)
        metrics.record_batch(4)
        metrics.record_failure()
        metrics.record_expired(2)
        assert metrics.snapshot().model_stats["m"]["slo_violations"] == 1

        metrics.reset()
        stats = metrics.snapshot()
        assert stats.requests == 0 and stats.batches == 0
        assert stats.failures == 0 and stats.deadline_exceeded == 0
        assert stats.latency_p99_ms == 0.0 and stats.mean_latency_ms == 0.0
        assert stats.model_stats["m"]["requests"] == 0
        assert stats.model_stats["m"]["slo_violations"] == 0
        assert stats.model_stats["m"]["slo_ms"] == pytest.approx(0.5)

        # The next interval counts from zero.
        metrics.record_request(0.1, model="m", queue_wait_seconds=0.05, execute_seconds=0.05)
        assert metrics.snapshot().requests == 1

    def test_per_interval_reporting_on_live_server(self):
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.002)
        servable = make_servable(name="interval-model")
        server.register(servable)
        with server:
            for q in queries(12):
                server.submit(servable.name, q)
            server.drain()
            first = server.stats()
            server.reset_stats()
            for q in queries(5, seed=9):
                server.submit(servable.name, q)
            server.drain()
            second = server.stats()
        assert first.requests == 12
        assert second.requests == 5  # only the new interval
        assert second.uptime_seconds < first.uptime_seconds

    def test_snapshot_consistent_under_concurrent_writers(self):
        """Hammer the collectors from several threads while snapshotting;
        every snapshot must be internally consistent (single lock)."""
        metrics = ServingMetrics()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                metrics.record_request(0.001, model="m", queue_wait_seconds=0.0005,
                                       execute_seconds=0.0005)
                metrics.record_batch(2)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                stats = metrics.snapshot()
                # requests and the per-model collector advance under one
                # lock, so a torn read could never show model > total.
                assert stats.model_stats.get("m", {}).get("requests", 0) <= stats.requests
        finally:
            stop.set()
            for thread in threads:
                thread.join()


def make_broker(servable, max_batch_size: int = 8, max_wait_seconds: float = 0.001):
    registry = ModelRegistry()
    deployment = registry.register(servable, warm_batch_sizes=())
    broker = RequestBroker(
        registry, WorkerPool(("cpu",)), max_batch_size=max_batch_size,
        max_wait_seconds=max_wait_seconds,
    )
    broker.add_model(deployment)
    return registry, broker


class TestHotSwapRace:
    """The ROADMAP bug: submit used to read the batcher map unlocked, so a
    concurrent add_model/swap could hand it a just-closed batcher."""

    def test_submit_survives_swap_closing_the_fetched_batcher(self):
        """Regression with injected close timing: the batcher submit
        fetched is hot-swapped (closed + replaced) before the enqueue
        lands.  The pre-fix unlocked read propagated the closed-batcher
        error to the caller — a dropped request; the fixed path retries
        against the replacement and the request resolves normally."""
        servable = make_servable(name="race-model")
        registry, broker = make_broker(servable)
        broker.start()
        try:
            victim = broker._batchers[servable.name]
            real_submit = victim.submit
            fired = []

            def closing_submit(sample, **kwargs):
                if not fired:
                    fired.append(True)
                    # The concurrent hot-swap, timed to land exactly
                    # between submit's batcher fetch and its enqueue.
                    broker.add_model(registry.register(servable, warm_batch_sizes=()))
                return real_submit(sample, **kwargs)

            victim.submit = closing_submit
            future = broker.submit(servable.name, queries(1)[0])
            broker.drain()
            assert fired, "the injected hot-swap never ran"
            assert victim.closed  # the fetched batcher really was closed
            assert 0 <= int(np.asarray(future.result(timeout=5.0))) < CLASSES
            assert broker.stats().failures == 0
        finally:
            broker.stop()

    def test_stopped_swap_closes_old_batcher_before_draining_it(self):
        """Regression (injected timing, stopped broker): the old batcher
        must close BEFORE its queued requests drain into the replacement.
        The reverse order leaves a window — drain, racing enqueue
        succeeds, close — where the racing request is orphaned in a
        batcher nothing will ever feed or adopt again (future never
        resolves, drain counter leaks)."""
        servable = make_servable(name="stopped-swap-model")
        registry, broker = make_broker(servable)
        old = broker._batchers[servable.name]
        real_drain = old.drain_requests
        window = {}

        def racing_drain():
            drained = real_drain()
            # The concurrent submit landing inside the swap window: with
            # close-first ordering it is rejected (and the broker-level
            # submit would retry into the replacement); with drain-first
            # ordering it enqueues into the drained old batcher — orphaned.
            try:
                old.submit(queries(1)[0])
                window["outcome"] = "orphaned"
            except BatcherClosed:
                window["outcome"] = "rejected"
            return drained

        old.drain_requests = racing_drain
        broker.add_model(registry.register(servable, warm_batch_sizes=()))
        assert window["outcome"] == "rejected"
        broker.drain(timeout=0.1)  # and nothing leaked into the counter

    def test_submit_hammered_by_concurrent_hot_swaps(self):
        """Stress: submitters race add_model/swap of the same name; every
        request must resolve (no drops, no errors, no orphans)."""
        servable = make_servable(name="hammer-model")
        registry, broker = make_broker(servable)
        broker.start()
        stop = threading.Event()
        futures, errors = [], []
        futures_lock = threading.Lock()
        samples = queries(16)

        def submitter(seed: int) -> None:
            i = seed
            while not stop.is_set():
                try:
                    future = broker.submit(servable.name, samples[i % len(samples)])
                    with futures_lock:
                        futures.append(future)
                except Exception as exc:  # pragma: no cover - the regression
                    errors.append(exc)
                i += 1
                time.sleep(0.0002)

        threads = [threading.Thread(target=submitter, args=(t,)) for t in range(4)]
        try:
            for thread in threads:
                thread.start()
            deployment = registry.get(servable.name)
            for round_index in range(12):
                if round_index % 2 == 0:
                    # re-register under the live name (the original swap idiom)
                    deployment = registry.register(servable, warm_batch_sizes=())
                    broker.add_model(deployment)
                else:
                    replacement = deployment.with_servable(servable)
                    registry.swap(servable.name, replacement)
                    broker.swap(replacement)
                    deployment = replacement
                time.sleep(0.003)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            broker.drain()
            stats = broker.stats()
            broker.stop()
        assert not errors, errors
        assert futures, "stress loop produced no requests"
        labels = [int(np.asarray(f.result(timeout=5.0))) for f in futures]
        assert all(0 <= label < CLASSES for label in labels)
        assert stats.failures == 0
        assert stats.requests == len(futures)  # every request accounted for
        assert registry.version(servable.name) == 13  # 1 + 12 swaps, monotonic


class TestDrainAccounting:
    """The second ROADMAP-adjacent bug: submit used to register with the
    drain counter only after the enqueue, so a concurrent drain() could
    return while a just-submitted request was still in flight."""

    def test_outstanding_registered_before_enqueue(self):
        servable = make_servable(name="drain-order-model")
        _, broker = make_broker(servable)
        batcher = broker._batchers[servable.name]
        real_submit = batcher.submit
        observed = []

        def checking_submit(sample, **kwargs):
            with broker._drain_cond:
                observed.append(broker._outstanding)
            return real_submit(sample, **kwargs)

        batcher.submit = checking_submit
        broker.submit(servable.name, queries(1)[0])  # stopped broker: queues
        assert observed == [1]  # already registered when the enqueue ran

    def test_rollback_on_validation_error(self):
        servable = make_servable(name="drain-validate-model")
        _, broker = make_broker(servable)
        with pytest.raises(ValueError):
            broker.submit(servable.name, np.zeros(DIM + 1, dtype=np.float32))
        broker.drain(timeout=0.1)  # nothing outstanding leaked

    def test_rollback_on_enqueue_error(self):
        servable = make_servable(name="drain-enqueue-model")
        _, broker = make_broker(servable)
        batcher = broker._batchers[servable.name]

        def failing_submit(sample, **kwargs):
            raise RuntimeError("injected enqueue failure")

        batcher.submit = failing_submit
        with pytest.raises(RuntimeError):
            broker.submit(servable.name, queries(1)[0])
        broker.drain(timeout=0.1)  # nothing outstanding leaked

    def test_closed_without_replacement_still_rejects(self):
        """Retry-on-closed must not spin when the batcher closed because
        the broker stopped (closed but never replaced)."""
        servable = make_servable(name="drain-stopped-model")
        _, broker = make_broker(servable)
        broker.start()
        broker.stop()
        with pytest.raises(BatcherClosed):
            broker.submit(servable.name, queries(1)[0])
        broker.drain(timeout=0.1)


class TestVersionedHotSwap:
    def test_registry_versions_bump_on_register_and_swap(self):
        servable = make_servable(name="versioned-model")
        registry = ModelRegistry()
        deployment = registry.register(servable, warm_batch_sizes=())
        assert deployment.version == 1
        assert registry.version(servable.name) == 1
        replacement = deployment.with_servable(servable)
        assert registry.swap(servable.name, replacement) == 2
        assert registry.get(servable.name) is replacement
        assert registry.versions() == {servable.name: 2}
        from repro.serving import Deployment

        unregistered = Deployment("never-registered", servable, registry.cache)
        with pytest.raises(KeyError):
            registry.swap("never-registered", unregistered)
        with pytest.raises(ValueError):  # name mismatch guard
            registry.swap("some-other-name", replacement)
        # Compare-and-swap guard: a replacement derived from a deployment
        # the registry no longer holds must be refused, not installed.
        stale_base = deployment  # already replaced above
        with pytest.raises(RuntimeError):
            registry.swap(
                servable.name, stale_base.with_servable(servable), expected=stale_base
            )
        current = registry.get(servable.name)
        assert registry.swap(
            servable.name, current.with_servable(servable), expected=current
        ) == 3
        # unregister keeps the version memory: re-register continues it
        registry.unregister(servable.name)
        assert registry.register(servable, warm_batch_sizes=()).version == 4

    def test_swap_versions_monotonic_under_concurrent_swappers(self):
        servable = make_servable(name="mono-model")
        registry = ModelRegistry()
        deployment = registry.register(servable, warm_batch_sizes=())
        per_thread = [[] for _ in range(4)]

        def swapper(index: int) -> None:
            for _ in range(25):
                per_thread[index].append(
                    registry.swap(servable.name, deployment.with_servable(servable))
                )

        threads = [threading.Thread(target=swapper, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for versions in per_thread:
            assert versions == sorted(versions)  # each swapper sees increasing
        combined = sorted(v for versions in per_thread for v in versions)
        assert combined == list(range(2, 102))  # unique, gapless, monotonic
        assert registry.version(servable.name) == 101

    def test_update_evicts_stale_compiled_programs(self):
        """Each update re-derives a content-hashed signature; the replaced
        version's compiled programs must be evicted, or a long-running
        streaming-retraining service leaks one bucket ladder per round."""
        from repro.apps.classification import classification_servable

        rng = np.random.default_rng(17)
        servable = classification_servable(
            "evict-model",
            dimension=64,
            similarity="hamming",
            rp_matrix=bipolar_random(64, 8, seed=2),
            classes=rng.standard_normal((3, 64)).astype(np.float32),
        )
        server = InferenceServer(workers=("cpu",), max_batch_size=4, max_wait_seconds=0.001)
        server.register(servable)
        samples = rng.standard_normal((6, 8)).astype(np.float32)
        with server:
            sizes = []
            for round_index in range(3):
                server.update("evict-model", samples, rng.integers(0, 3, 6))
                sizes.append(len(server.registry.cache))
        # Bounded: exactly one warmed ladder alive after every round.
        assert sizes[0] == sizes[1] == sizes[2]
        assert server.registry.cache.stats.evictions > 0

    def test_update_rejects_malformed_labels(self):
        """Negative / non-integer / out-of-range labels must be refused
        before they can silently corrupt the swapped-in class memories
        (numpy negative indexing would bundle into the *last* class)."""
        from repro.apps.classification import classification_servable

        rng = np.random.default_rng(13)
        servable = classification_servable(
            "label-guard",
            dimension=64,
            similarity="hamming",
            rp_matrix=bipolar_random(64, 8, seed=1),
            classes=rng.standard_normal((3, 64)).astype(np.float32),
        )
        samples = rng.standard_normal((4, 8)).astype(np.float32)
        good = servable.updated(samples, np.array([0, 1, 2, 0]))
        assert good.constants["class_hvs"].shape == (3, 64)
        with pytest.raises(ValueError):  # negative label
            servable.updated(samples, np.array([0, 1, -1, 0]))
        with pytest.raises(ValueError):  # non-integer labels
            servable.updated(samples, np.array([0.0, 1.0, 2.0, 0.0]))
        with pytest.raises(ValueError):  # out of range for 3 classes
            servable.updated(samples, np.array([0, 1, 2, 3]))
        with pytest.raises(ValueError):  # label/sample count mismatch
            servable.updated(samples, np.array([0, 1]))
        with pytest.raises(ValueError):  # wrong sample shape
            servable.updated(rng.standard_normal((4, 9)).astype(np.float32), np.zeros(4, np.int64))

    def test_update_rule_cannot_mutate_bound_constants(self):
        """update_batch receives read-only views: an in-place rule fails
        loudly instead of corrupting the live deployment's state."""
        servable = make_servable(name="inplace-model")
        original = np.array(servable.constants["class_hvs"], copy=True)

        def in_place_rule(constants, samples, labels):
            constants["class_hvs"] += 1.0  # mutates the bound state
            return constants

        evil = Servable(
            name="inplace-model",
            build_program=servable.build_program,
            constants=servable.constants,
            sample_shape=(DIM,),
            update_batch=in_place_rule,
        )
        with pytest.raises(ValueError):
            evil.updated(queries(2), np.zeros(2, dtype=np.int64))
        assert np.array_equal(servable.constants["class_hvs"], original)

    def test_update_on_non_updatable_servable_raises_typed_error(self):
        servable = make_servable(name="frozen-model")  # no update_batch rule
        assert not servable.updatable
        _, broker = make_broker(servable)
        with pytest.raises(NotUpdatableError):
            broker.update(servable.name, queries(4), np.zeros(4, dtype=np.int64))
        with pytest.raises(NotUpdatableError):
            servable.updated(queries(4), np.zeros(4, dtype=np.int64))


class TestServeWhileRetraining:
    """The tentpole end to end: sustained load across >= 3 online
    re-training hot-swaps — zero dropped/errored requests, and post-swap
    predictions bit-identical to an offline retrain of the same data."""

    N_ROUNDS = 3

    def test_zero_drops_and_bit_identity_across_swaps(self):
        dataset = make_isolet_like(
            IsoletConfig(n_features=32, n_classes=6, n_train=120, n_test=24, seed=7)
        )
        app = HDClassificationInference(dimension=128, similarity="hamming")
        servable = app.as_servable(dataset=dataset)
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001)
        server.register(servable)
        rounds = [
            (dataset.train_features[i :: self.N_ROUNDS], dataset.train_labels[i :: self.N_ROUNDS])
            for i in range(self.N_ROUNDS)
        ]
        stop = threading.Event()
        futures, errors = [], []
        futures_lock = threading.Lock()

        def loader(seed: int) -> None:
            i = seed
            while not stop.is_set():
                try:
                    future = server.submit(
                        servable.name, dataset.test_features[i % dataset.test_features.shape[0]]
                    )
                    with futures_lock:
                        futures.append(future)
                except Exception as exc:  # pragma: no cover - would be the bug
                    errors.append(exc)
                i += 1
                time.sleep(0.0005)

        threads = [threading.Thread(target=loader, args=(t,)) for t in range(2)]
        with server:
            for thread in threads:
                thread.start()
            versions = []
            for samples, labels in rounds:
                versions.append(server.update(servable.name, samples, labels))
                time.sleep(0.01)  # keep serving between swaps
            stop.set()
            for thread in threads:
                thread.join()
            server.drain()
            post_swap = server.infer_many(servable.name, list(dataset.test_features))
            server.drain()
            stats = server.stats()

        # Zero dropped/errored requests under sustained load across swaps.
        assert not errors, errors
        assert futures, "load threads produced no requests"
        for future in futures:
            assert 0 <= int(np.asarray(future.result(timeout=5.0))) < dataset.n_classes
        assert stats.failures == 0 and stats.deadline_exceeded == 0

        # Swap accounting: monotonic versions, per-version request ledger.
        assert versions == [2, 3, 4]  # register stamped 1; three updates
        assert stats.swaps == self.N_ROUNDS
        assert server.model_versions() == {servable.name: 4}
        model = stats.model_stats[servable.name]
        assert model["version"] == 4
        assert model["swaps"] == self.N_ROUNDS
        assert sum(model["requests_by_version"].values()) == model["requests"]
        assert model["requests_by_version"]["4"] >= len(dataset.test_features)

        # Bit identity: the served post-swap state and predictions equal an
        # offline retrain applying the same rule to the same mini-batches.
        offline = servable
        for samples, labels in rounds:
            offline = offline.updated(samples, labels)
        live = server.registry.get(servable.name).servable
        assert offline.signature == live.signature
        assert np.array_equal(offline.constants["class_hvs"], live.constants["class_hvs"])
        handle = hdc_compile(
            offline.build_program(dataset.test_features.shape[0]), target="cpu"
        ).bind(**offline.constants)
        expected = [
            int(v) for v in np.asarray(handle.run(queries=dataset.test_features).output)
        ]
        assert [int(np.asarray(r)) for r in post_swap] == expected


class TestFutureLifecycle:
    def test_submitted_futures_are_not_cancellable(self):
        """Broker futures are marked RUNNING at submit: a front end that
        gets torn down (e.g. asyncio.wrap_future during transport stop)
        must not be able to cancel them out from under the worker, which
        would make set_result raise and kill the worker thread."""
        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        servable = make_servable(name="nocancel-model")
        server.register(servable)
        future = server.submit(servable.name, queries(1)[0])  # server stopped: stays queued
        assert future.cancel() is False
        with server:
            server.drain()
        assert int(np.asarray(future.result(timeout=5.0))) >= 0
