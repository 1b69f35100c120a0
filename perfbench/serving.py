"""The two serving workloads: tiny-socket and mixed-open.

Each builds its models from seeded synthetic data through ``repro.datasets``
and ``repro.apps``, serves them through the public front doors
(``InferenceServer``, ``ReplicaGroup`` + ``ClientPool``) and checks every
result against :mod:`references`.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from measure import (
    SETUP_REPEATS,
    Outcome,
    blocking_clients,
    derive_seeds,
    open_loop,
    percentile,
    timed_setups,
    window_metrics,
)
import references as ref

#: Requests sent through each model after set-up, before timing starts.
WARMUP_REQUESTS = 128


def _traced_servable(servable, tracer):
    """Record a span around each HDC++ trace of the servable's program family."""
    if tracer is not None:
        servable.build_program = tracer.wrap(servable.build_program, "hdcpp.build_program")
    return servable


def _label(result) -> int:
    return int(np.asarray(result).reshape(-1)[0])


def _warm(submit, count: int) -> None:
    futures = [submit(index) for index in range(count)]
    for future in futures:
        future.result(timeout=60.0)


def serving_layers(before: list, after: list, window_s: float, max_batch: int, operations: int) -> dict:
    """Per-layer figures from ``ServerStats.to_dict()`` snapshots taken
    around the timed window (one per replica; metrics reset at ``before``)."""
    from repro.serving import LatencyHistogram

    def merged(kind: str) -> LatencyHistogram:
        total = LatencyHistogram()
        for stats in after:
            for model in stats["model_stats"].values():
                data = model["histograms"][kind]
                if data:
                    total = total.merge(LatencyHistogram.from_dict(data))
        return total

    batches = sum(s["batches"] for s in after)
    samples = sum(s["mean_batch_size"] * s["batches"] for s in after)
    stage_s = gate_s = 0.0
    for stats in after:
        for model in stats["model_stats"].values():
            for slot in model["stage_profile"].values():
                stage_s += slot["seconds"]
                gate_s += slot["gate_seconds"]
    busy = workers = 0
    for old, new in zip(before, after):
        for name, worker in new["worker_stats"].items():
            busy += worker["busy_seconds"] - old["worker_stats"][name]["busy_seconds"]
            workers += 1
    per_op = 1e3 / max(1, operations)
    return {
        "serving.queue_wait_p50_ms": merged("queue_wait").percentile(50) * 1e3,
        "serving.execute_p50_ms": merged("execute").percentile(50) * 1e3,
        "serving.batch_fill": (samples / batches / max_batch) if batches else 0.0,
        "serving.worker_busy_share": busy / (window_s * max(1, workers)),
        "serving.worker_busy_s": busy,
        "serving.cache_hits": float(sum(a["cache_hits"] - b["cache_hits"] for a, b in zip(after, before))),
        "serving.cache_misses": float(sum(a["cache_misses"] - b["cache_misses"] for a, b in zip(after, before))),
        "serving.shed": float(sum(s["deadline_exceeded"] for s in after)),
        "backends.stage_ms": stage_s * per_op,
        "backends.gate_ms": gate_s * per_op,
        "backends.gate_share": gate_s / stage_s if stage_s else 0.0,
        "backends.fallback_stages": float(sum(s["fallback_stages"] for s in after)),
    }


def _sample_note(kind: str, result: dict) -> str:
    latencies = result["latencies"]
    return (
        f"{kind}: {len(latencies)} requests, {len(latencies) / result['elapsed']:.1f}/s; whole-window p50 "
        f"{percentile(latencies, 50) * 1e3:.3f} ms, p90 {percentile(latencies, 90) * 1e3:.3f} ms, "
        f"p99 {percentile(latencies, 99) * 1e3:.3f} ms over {len(latencies)} samples"
    )


# ---------------------------------------------------------------------------
# tiny-socket
# ---------------------------------------------------------------------------


class TinySocket:
    """Two RelHD-sized models (D=256) on a 2-replica ``ReplicaGroup`` with
    the server's default batching; two client threads each keep one
    blocking request outstanding through a ``ClientPool``."""

    DIMENSION = 256
    MODELS = ("relhd-a", "relhd-b")
    THREADS = 2
    #: The server's default batching watermark.
    MAX_BATCH = 64
    #: Server traces kept per replica in a traced run (all of its window).
    TRACE_CAPACITY = 1 << 16

    def __init__(self, seed: int):
        from repro.datasets import CoraConfig, make_cora_like

        self.graphs = [make_cora_like(CoraConfig(n_nodes=300, seed=s)) for s in derive_seeds(seed, 2)]

    def _model_state(self, graph):
        """Offline RelHD training: encode, aggregate neighbours, bundle per class."""
        from repro.apps import RelHD
        from repro.apps.common import bipolar_random

        app = RelHD(dimension=self.DIMENSION)
        rp = bipolar_random(self.DIMENSION, graph.n_features, seed=app.seed)
        encoded = np.where(graph.features @ rp.T >= 0, 1.0, -1.0).astype(np.float32)
        aggregated = app.aggregate_neighbours(encoded, graph)
        classes = np.zeros((graph.n_classes, self.DIMENSION), dtype=np.float32)
        np.add.at(classes, graph.labels[graph.train_nodes], aggregated[graph.train_nodes])
        return app, classes, np.asarray(aggregated[graph.test_nodes], dtype=np.float32)

    def _build(self, tracer):
        from repro.serving.replica import ClientPool, ReplicaGroup

        # A traced run turns on the servers' own request traces, whose
        # trace ids come back in each response and tie the server-side
        # spans to the client's request.
        group = ReplicaGroup(replicas=2, workers=("cpu",), tracing=tracer is not None,
                             trace_capacity=self.TRACE_CAPACITY)
        group.start()
        states = []
        for name, graph in zip(self.MODELS, self.graphs):
            app, classes, requests = self._model_state(graph)
            group.register(_traced_servable(app.as_servable(classes, name=name), tracer), warm="full")
            states.append((classes, requests))
        pool = ClientPool(group, timeout=30.0)
        for name, (_classes, requests) in zip(self.MODELS, states):
            for index in range(WARMUP_REQUESTS // 8):
                pool.infer(name, requests[index % len(requests)])
        return group, pool, states

    @staticmethod
    def _teardown(built) -> None:
        group, pool, _states = built
        pool.close()
        group.stop()

    def measure(self, seconds: float, tracer=None) -> Outcome:
        built, setup_s = timed_setups(lambda: self._build(tracer), self._teardown, SETUP_REPEATS)
        group, pool, states = built
        expected = [ref.nearest(requests, classes) for classes, requests in states]
        routes = [pool.route_for(name) for name in self.MODELS]

        def call(thread, index):
            requests = states[thread][1]
            return pool.infer(self.MODELS[thread], requests[index % len(requests)])

        def check(thread, index, out):
            return _label(out) == expected[thread][index % len(expected[thread])]

        try:
            before = group.stats(reset=True)
            for replica in group.replicas:
                replica.server.traces(clear=True)
            window_start = time.perf_counter()
            result = blocking_clients(call, check, self.THREADS, seconds, tracer)
            window = (window_start, time.perf_counter())
            after = group.stats()
            server_traces = [t for replica in group.replicas for t in replica.server.traces()]
        finally:
            self._teardown(built)
        completed = len(result["latencies"])
        outcome = Outcome(attempted=result["attempted"], failed=result["failed"], operations=completed,
                          window=window, requests=result, server_traces=server_traces)
        outcome.e2e = {"setup_s": setup_s, **window_metrics(result, seconds)}
        layers = serving_layers(before, after, result["elapsed"], self.MAX_BATCH, completed)
        per_replica = [s["requests"] for s in after]
        layers["replica.route_skew"] = max(per_replica) / (sum(per_replica) / len(per_replica)) - 1.0
        outcome.layers = layers
        outcome.notes.append(_sample_note("blocking clients", result))
        outcome.notes.append(f"models route to replicas {routes}; per-replica requests {per_replica}")
        return outcome


# ---------------------------------------------------------------------------
# mixed-open
# ---------------------------------------------------------------------------


class MixedOpen:
    """Open-loop Poisson arrivals over three models on one server (ISOLET
    binarized/packed at D=2048, HyperOMS spectral search, HD genome
    hashtable) while one writer thread applies ISOLET ``update`` and
    hashtable ``append`` rounds at fixed offsets.  Its notes give the
    capacity the open loop implies: reads served per second the worker
    was busy."""

    #: Offered rate (requests/s).  The mix's capacity on a 2-core x86 VM
    #: measured 400-500 requests/s, so the queue does not grow.
    RATE = 100.0
    MAX_BATCH = 64
    MODELS = ("isolet", "hyperoms", "hashtable")
    #: Write rounds, spread evenly over the open loop: each is one ISOLET
    #: ``update`` of UPDATE_ROWS labelled samples, then one hashtable
    #: ``append`` of APPEND_ROWS new bucket sequences.
    WRITE_ROUNDS = 3
    UPDATE_ROWS = 16
    APPEND_ROWS = 4
    READ_LENGTH = 100
    KMER = 8

    def __init__(self, seed: int):
        from repro.datasets import (
            GenomicsConfig,
            IsoletConfig,
            SpectraConfig,
            make_genomics_dataset,
            make_isolet_like,
            make_spectral_library,
        )
        from repro.datasets.genomics import base_indices

        s = derive_seeds(seed, 5)
        self.seed = s[4]
        self.isolet = make_isolet_like(IsoletConfig(n_train=520, n_test=256, seed=s[0]))
        self.spectra = make_spectral_library(
            SpectraConfig(n_library=128, n_queries=128, n_bins=256, seed=s[1])
        )
        self.genome = make_genomics_dataset(
            GenomicsConfig(
                genome_length=8000, bucket_size=500, read_length=self.READ_LENGTH,
                n_reads=128, n_decoys=0, kmer_length=self.KMER, seed=s[2],
            )
        )
        self.reads = np.stack([base_indices(read) for read in self.genome.reads])
        rng = np.random.default_rng(s[3])
        self.writes = []
        for round_ in range(self.WRITE_ROUNDS):
            rows = slice(round_ * self.UPDATE_ROWS, (round_ + 1) * self.UPDATE_ROWS)
            self.writes.append(("update", (self.isolet.train_features[rows], self.isolet.train_labels[rows])))
            self.writes.append(
                ("append", rng.integers(0, 4, (self.APPEND_ROWS, self.READ_LENGTH), dtype=np.int64))
            )
        self.pools = {
            "isolet": self.isolet.test_features,
            "hyperoms": self.spectra.query_matrix,
            "hashtable": self.reads,
        }

    def _build(self, tracer):
        from repro.apps import HDClassificationInference, HDHashtable, HyperOMS
        from repro.serving import InferenceServer
        from repro.transforms import ApproximationConfig

        cls = HDClassificationInference(dimension=2048, similarity="hamming")
        trained = cls.train_offline(self.isolet)
        oms = HyperOMS(dimension=1024, n_levels=8)
        library = oms.encode_library(self.spectra.library_matrix)
        table_app = HDHashtable(dimension=1024)
        base_hvs = table_app.make_base_hypervectors()
        table = table_app.encode_reference_buckets(self.genome, base_hvs)

        server = InferenceServer(workers=("cpu",), max_batch_size=self.MAX_BATCH)
        server.register(
            _traced_servable(cls.as_servable(trained=trained, name="isolet"), tracer),
            config=ApproximationConfig(binarize=True), warm="full",
        )
        server.register(
            _traced_servable(oms.as_servable(library, n_bins=self.spectra.library_matrix.shape[1], name="hyperoms"), tracer),
            warm="full",
        )
        server.register(
            _traced_servable(
                table_app.as_servable(table, read_length=self.READ_LENGTH, kmer_length=self.KMER,
                                      base_hvs=base_hvs, name="hashtable"),
                tracer,
            ),
            warm="full",
        )
        server.start()
        _warm(lambda i: self._submit(server, i), WARMUP_REQUESTS)
        state = {"trained": trained, "oms": oms, "library": library, "table": table, "base_hvs": base_hvs}
        return server, state

    def _submit(self, server, index: int):
        name = self.MODELS[index % 3]
        pool = self.pools[name]
        return server.submit(name, pool[(index // 3) % len(pool)])

    def _accepted(self, state) -> dict:
        """Accepted labels per model, over every version the run serves."""
        from repro.apps.common import bipolar_random
        from repro.apps.hyperoms import make_level_hypervectors

        rp, classes = state["trained"]
        versions = [np.asarray(classes, dtype=np.float64)]
        tables = [np.asarray(state["table"])]
        for kind, payload in self.writes:
            if kind == "update":
                versions.append(ref.classification_update(rp, versions[-1], *payload))
            else:
                encoded = ref.kmer_encode(payload, state["base_hvs"], self.KMER)
                tables.append(np.concatenate([tables[-1], np.sign(encoded)]))
        pool = self.pools["isolet"]
        isolet_ok = np.zeros((len(pool), classes.shape[0]), dtype=bool)
        fragile_samples = 0
        for version in versions:
            ok, count = ref.classify(pool, rp, version)
            isolet_ok |= ok
            fragile_samples = max(fragile_samples, count)

        oms = state["oms"]
        n_bins = self.spectra.library_matrix.shape[1]
        queries = ref.level_id_encode(
            self.pools["hyperoms"], bipolar_random(n_bins, oms.dimension, seed=oms.seed),
            make_level_hypervectors(oms.n_levels, oms.dimension, seed=oms.seed + 1),
        )
        oms_expected = ref.nearest(queries, state["library"])

        reads = ref.kmer_encode(self.reads, state["base_hvs"], self.KMER)
        table_ok = np.zeros((len(self.reads), tables[-1].shape[0]), dtype=bool)
        for table in tables:
            table_ok[np.arange(len(self.reads)), ref.nearest(reads, table)] = True
        return {"isolet": isolet_ok, "hyperoms": oms_expected, "hashtable": table_ok,
                "fragile": fragile_samples}

    def _check(self, accepted: dict, index: int, out) -> bool:
        name = self.MODELS[index % 3]
        row = (index // 3) % len(self.pools[name])
        label = _label(out)
        if name == "hyperoms":
            return label == accepted["hyperoms"][row]
        table = accepted[name]
        return 0 <= label < table.shape[1] and bool(table[row, label])

    def _writer(self, server, window_s: float, durations: dict, errors: list) -> None:
        start = time.perf_counter()
        for slot, (kind, payload) in enumerate(self.writes):
            due = start + window_s * (slot + 1) / (len(self.writes) + 1)
            time.sleep(max(0.0, due - time.perf_counter()))
            began = time.perf_counter()
            try:
                if kind == "update":
                    server.update("isolet", *payload)
                else:
                    server.append("hashtable", payload)
            except Exception as exc:  # noqa: BLE001 - counted as a failed write
                errors.append(exc)
            durations[kind].append(time.perf_counter() - began)

    def measure(self, seconds: float, tracer=None) -> Outcome:
        (server, state), setup_s = timed_setups(
            lambda: self._build(tracer), lambda built: built[0].stop(), SETUP_REPEATS
        )
        accepted = self._accepted(state)
        durations = {"update": [], "append": []}
        errors: list = []
        try:
            before = server.stats(reset=True).to_dict()
            window_start = time.perf_counter()
            writer = threading.Thread(
                target=self._writer, args=(server, seconds, durations, errors), daemon=True
            )
            writer.start()
            reads = open_loop(
                lambda i: self._submit(server, i), lambda i, out: self._check(accepted, i, out),
                self.RATE, seconds, np.random.default_rng(self.seed), tracer,
            )
            writer.join(timeout=120.0)
            window = (window_start, time.perf_counter())
            after = server.stats().to_dict()
        finally:
            server.stop()
        completed = len(reads["latencies"])
        writes = len(self.writes)
        outcome = Outcome(
            window=window,
            attempted=reads["attempted"] + writes,
            failed=reads["failed"] + len(errors) + (writes - sum(map(len, durations.values()))),
            operations=completed,
            requests=reads,
        )
        layers = serving_layers([before], [after], reads["elapsed"], self.MAX_BATCH, completed)
        outcome.e2e = {"setup_s": setup_s, **window_metrics(reads, seconds)}
        layers["serving.update_ms"] = percentile(durations["update"], 50) * 1e3
        layers["serving.append_ms"] = percentile(durations["append"], 50) * 1e3
        outcome.layers = layers
        outcome.notes.append(_sample_note(f"open loop at {self.RATE:.0f} req/s", reads))
        outcome.notes.append(
            f"capacity: {after['requests'] / layers['serving.worker_busy_s']:.1f} reads per second "
            f"of worker busy time"
        )
        outcome.notes.append(
            f"generator late p99 {percentile(reads['lateness'], 99) * 1e3:.2f} ms, "
            f"max {max(reads['lateness'], default=0.0) * 1e3:.2f} ms"
        )
        outcome.notes.append(
            f"writes: update p50 {layers['serving.update_ms']:.1f} ms, append p50 "
            f"{layers['serving.append_ms']:.1f} ms, all writes p50 "
            f"{percentile(durations['update'] + durations['append'], 50) * 1e3:.1f} ms over {writes}; "
            f"{accepted['fragile']} float-fragile ISOLET samples"
        )
        return outcome
