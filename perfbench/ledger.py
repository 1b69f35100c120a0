"""Spans recorded around the public entry points of each layer, and the
per-request ledger built from them.

A traced run installs thin wrappers around the functions a layer exposes
to the next one (``Backend.compile``, ``KernelSet.run``,
``RequestBroker.submit``, ``ServingClient.infer`` ...), records one span
per call in memory, and removes the wrappers afterwards.  Nothing inside
the program is edited; an untraced run installs nothing.

A span carries its name, start and end (``time.perf_counter`` seconds,
the same ``CLOCK_MONOTONIC`` the serving traces use), the span that was
open on the same thread when it started (its parent) and a request id.
On the load generator's threads the request id is the benchmark's own
request number.  On a serving worker it is the tuple of trace ids of the
batch being executed: every in-process request is submitted with a
``TraceContext`` the benchmark minted (the broker's public ``trace``
argument), and a socket request's trace id comes back in its response
header, so each worker span maps back to the requests it served.

:func:`request_ledger` then splits every request's latency, as the load
generator measured it, into the layers it passed through: the server's
own per-request trace steps (queue, batch, schedule, dispatch, execute,
settle, transport) and, inside the execute step, the self times of the
worker spans of the request's batch.  Time no span covers is a named
residual (the client side), and the run checks that every request was
found, that every residual is non-negative and that every worker span of
a batch lies inside the request's execute step.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

#: Kernel op names reported per op; every other opcode is "other".
KERNEL_OPS = ("matmul", "sign", "hamming", "cossim", "arg_min", "type_cast", "other")

_OPCODE_NAMES = {
    "hdc.matmul": "matmul",
    "hdc.sign": "sign",
    "hdc.hamming_distance": "hamming",
    "hdc.cossim": "cossim",
    "hdc.arg_min": "arg_min",
    "hdc.type_cast": "type_cast",
}

#: Slack for ordering checks between clock reads on different threads.
CLOCK_SLACK_S = 1e-6


def kernel_op(opcode) -> str:
    """The reported op name of an IR opcode."""
    return _OPCODE_NAMES.get(getattr(opcode, "value", str(opcode)), "other")


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0) or 0)


class Tracer:
    """In-memory span recorder shared by every thread of one run."""

    def __init__(self):
        self.spans: list = []  # (id, name, start, end, parent, request, thread, value)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request) -> None:
        """Tag spans opened on this thread with ``request`` from now on."""
        self._local.request = request

    def request(self):
        """The request id set on this thread, or ``None``."""
        return getattr(self._local, "request", None)

    @contextmanager
    def span(self, name: str, value: float = 0.0):
        """Record one span around the ``with`` body."""
        holder = [value]
        span_id, stack = next(self._ids), self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield holder
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, self.request(), threading.get_ident(), holder[0])
            )

    def wrap(self, fn: Callable, name, value: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call.

        ``name`` is a string or a callable of the call's arguments;
        ``value(args, result)`` gives a number stored with the span (bytes
        moved, graph nodes, rewrites ...).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as holder:
                result = fn(*args, **kwargs)
                if value is not None:
                    holder[0] = value(args, result)
            return result

        return traced

    # -- analysis -----------------------------------------------------------------
    def window(self, start: float, end: float) -> list:
        """Spans that started inside ``[start, end)``."""
        return [s for s in self.spans if start <= s[2] < end]

    @staticmethod
    def summarize(spans: list) -> dict:
        """``{name: {"calls", "total_s", "self_s", "value"}}`` over ``spans``."""
        child_time = defaultdict(float)
        for span in spans:
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        table: dict = {}
        for span_id, name, start, end, _parent, _request, _thread, value in spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time.get(span_id, 0.0)
            row["value"] += value
        return table

    def dump(self, path, trace_requests: dict) -> None:
        """Write every recorded span as JSON lines; worker spans list the
        benchmark request ids of their batch."""
        keys = ("id", "name", "start", "end", "parent", "request", "thread", "value")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = dict(zip(keys, span))
                if isinstance(span[5], tuple):
                    record["request"] = [trace_requests.get(t) for t in span[5]]
                handle.write(json.dumps(record) + "\n")


class Instrumentation:
    """Installs span wrappers around the public entry points of each layer.

    Use as a context manager; every patched attribute is restored on exit.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.frame_bytes = 0
        #: In-process requests: benchmark request id -> the TraceContext
        #: the benchmark minted for it.
        self.traces: dict = {}
        #: Trace id -> benchmark request id (in-process and socket).
        self.trace_requests: dict = {}
        self._lock = threading.Lock()
        self._saved: list = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name, value=None) -> None:
        self._patch(owner, attr, self.tracer.wrap(getattr(owner, attr), name, value))

    def __enter__(self) -> "Instrumentation":
        from repro.backends import base, kernelsets
        from repro.backends.executor import HostStageExecutor
        from repro.serving import broker, scheduler, server
        from repro.serving.observability import TraceContext
        from repro.serving.replica import pool
        from repro.serving.transport import client
        from repro.transforms import pipeline

        tracer = self.tracer

        def rewrites(_args, report) -> float:
            count = 0
            for sub in report.reports.values():
                count += getattr(sub, "tainted_ops", 0) + len(getattr(sub, "perforated_ops", ()))
            return float(count)

        def kernel_bytes(args, result) -> float:
            return float(sum(_nbytes(v) for v in args[2]) + _nbytes(result))

        self._span(pipeline.PassPipeline, "run", "transforms.pass_pipeline", rewrites)
        self._span(base, "lower_program", "ir.lower_program", lambda _a, g: float(len(g.nodes)))
        self._span(base, "verify_graph", "ir.verify_graph")
        self._span(base.Backend, "compile", "backends.compile")
        self._span(base.CompiledProgram, "run", "backends.run")
        self._span(base.BoundProgram, "run", "backends.run")
        self._span(HostStageExecutor, "execute_stage", "backends.stage")
        self._span(HostStageExecutor, "execute_parallel_map", "backends.stage")
        self._span(
            kernelsets.KernelSet, "run",
            lambda _self, op, _inputs: "kernels." + kernel_op(op.opcode), kernel_bytes,
        )
        self._span(broker.RequestBroker, "update", "serving.update")
        self._span(broker.RequestBroker, "append", "serving.append")
        self._span(server.InferenceServer, "register", "serving.register")
        self._span(client.ServingClient, "infer", "transport.infer")
        self._span(pool.ClientPool, "infer", "replica.infer")
        self._span(client.RetryBudget, "try_spend", "replica.retry")

        submit = broker.RequestBroker.submit

        @functools.wraps(submit)
        def traced_submit(broker_self, model, sample, *args, trace=None, **kwargs):
            # An in-process request of the load generator rides a trace the
            # benchmark minted, so the broker's steps land on it.
            # A socket request arrives with the transport's trace; its span
            # on the transport thread carries that trace's id.
            request = tracer.request()
            if trace is None and request is not None:
                trace = TraceContext(model)
                with self._lock:
                    self.traces[request] = trace
                    self.trace_requests[trace.trace_id] = request
            elif trace is not None and request is None:
                tracer.set_request((trace.trace_id,))
            try:
                with tracer.span("serving.submit"):
                    return submit(broker_self, model, sample, *args, trace=trace, **kwargs)
            finally:
                tracer.set_request(request)

        self._patch(broker.RequestBroker, "submit", traced_submit)

        start = scheduler.Worker.start

        @functools.wraps(start)
        def traced_start(worker_self, execute):
            def traced_execute(worker, work):
                # Worker spans carry the trace ids of the batch's requests.
                tracer.set_request(
                    tuple(r.trace.trace_id for r in work.requests if r.trace is not None) or None
                )
                try:
                    with tracer.span("serving.execute"):
                        execute(worker, work)
                finally:
                    tracer.set_request(None)

            return start(worker_self, traced_execute)

        self._patch(scheduler.Worker, "start", traced_start)

        encode_frame, read_frame_sync = client.encode_frame, client.read_frame_sync

        def count(frame: bytes) -> None:
            with self._lock:
                self.frame_bytes += len(frame)

        def counted_encode(*args, **kwargs):
            frame = encode_frame(*args, **kwargs)
            count(frame)
            return frame

        def counted_read(*args, **kwargs):
            header, payload = read_frame_sync(*args, **kwargs)
            count(encode_frame(header, payload))
            request = tracer.request()
            if request is not None and "trace_id" in header:
                with self._lock:
                    self.trace_requests[header["trace_id"]] = request
            return header, payload

        self._patch(client, "encode_frame", counted_encode)
        self._patch(client, "read_frame_sync", counted_read)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class _NullSpan:
    def __enter__(self):
        return [0.0]

    def __exit__(self, *exc_info):
        return False


_NULL = _NullSpan()


def maybe_span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op context when not tracing."""
    return _NULL if tracer is None else tracer.span(name)


def format_table(table: dict) -> str:
    """A span self-time table, largest self time first."""
    lines = [f"{'span':32s} {'calls':>9s} {'total ms':>11s} {'self ms':>11s}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{name:32s} {row['calls']:9d} {row['total_s'] * 1e3:11.2f} {row['self_s'] * 1e3:11.2f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-request ledger
# ---------------------------------------------------------------------------

#: Server trace steps -> ledger layer.
_STEPS = {
    "queue": "serving.queue", "batch": "serving.batch", "schedule": "serving.schedule",
    "dispatch": "serving.dispatch", "retry": "serving.retry", "settle": "serving.settle",
    "transport": "transport.respond",
}
#: Ledger layers no span records: the time left over outside them.
RESIDUALS = ("client.outside_server", "client.generator", "apps.host_code")
#: Layers taken as one span minus the spans nested in it.
SPLITS = ("replica.pool", "transport.wire", "serving.execute_other")


def _steps(spans) -> list:
    """``[(name, start, end)]`` of a trace's top-level steps."""
    steps = [(s["name"], s["start"], s["end"]) if isinstance(s, dict) else (s.name, s.start, s.end)
             for s in spans]
    return [step for step in steps if not step[0].startswith("stage:")]


def _subtree(children: dict, root) -> tuple:
    """``({name: self_s}, [descendants])`` of ``root`` and everything below it."""
    self_s: dict = defaultdict(float)
    below, todo = [], [root]
    while todo:
        node = todo.pop()
        kids = children.get(node[0], ())
        self_s[node[1]] += (node[3] - node[2]) - sum(k[3] - k[2] for k in kids)
        todo.extend(kids)
        below.extend(kids)
    return dict(self_s), below


def _served_layers(latency: float, chain: tuple, batch: tuple, sides: Optional[dict]):
    """Layers of one served request, and whether its spans nest correctly."""
    _trace_id, started, spans = chain
    steps = _steps(spans)
    names = [step[0] for step in steps]
    if "execute" not in names or "settle" not in names or batch is None:
        return None, False
    entry, self_s, below = batch
    position = names.index("execute")
    execute = steps[position]
    layers = {_STEPS.get(name, "serving." + name): end - start for name, start, end in steps
              if name != "execute"}
    for name, seconds in self_s.items():
        if name != "serving.execute":
            layers[name] = layers.get(name, 0.0) + seconds
    runs = [s for s in below if s[1] == "backends.run" and s[4] == entry[0]]
    layers["serving.execute_other"] = (execute[2] - execute[1]) - sum(s[3] - s[2] for s in runs)
    chain_s = steps[-1][2] - started
    if sides:
        replica_s, transport_s = sides.get("replica.infer", 0.0), sides.get("transport.infer", 0.0)
        layers["client.generator"] = latency - replica_s
        layers["replica.pool"] = replica_s - transport_s
        layers["transport.wire"] = transport_s - chain_s
    else:
        layers["client.outside_server"] = latency - chain_s
    nested = all(execute[1] - CLOCK_SLACK_S <= s[2] and s[3] <= execute[2] + CLOCK_SLACK_S
                 for s in runs)
    return layers, nested and steps[position - 1][2] <= execute[2]


def request_ledger(tracer: Tracer, instrumentation: Instrumentation, requests: dict,
                   server_traces: Optional[list] = None) -> dict:
    """Split each request's measured latency into the layers it passed.

    ``requests`` holds the load generator's ``ids``, ``latencies`` and
    ``finished`` (completion times) of the traced window.  A served
    request's layers come from its server trace: in-process ones from the
    contexts the benchmark minted, socket ones from ``server_traces``
    (the replicas' ``traces()``), plus the worker spans of its batch.
    Requests with no server trace are offline job runs, split over the
    ``backends.run`` spans they made.
    """
    children = defaultdict(list)
    for span in tracer.spans:
        if span[4] is not None:
            children[span[4]].append(span)
    batches, runs = {}, defaultdict(list)
    client_spans = defaultdict(lambda: defaultdict(float))
    for span in tracer.spans:
        if span[1] == "serving.execute":
            self_s, below = _subtree(children, span)
            for trace_id in span[5] or ():
                batches[trace_id] = (span, self_s, below)
        elif span[1] == "backends.run" and span[4] is None and span[5] is not None:
            runs[span[5]].append(span)
        if span[1] in ("replica.infer", "transport.infer") and span[5] is not None:
            client_spans[span[5]][span[1]] += span[3] - span[2]
    if server_traces is not None:
        chains = {
            instrumentation.trace_requests[t["trace_id"]]: (t["trace_id"], t["started_at"], t["spans"])
            for t in server_traces if t["trace_id"] in instrumentation.trace_requests
        }
    else:
        chains = {r: (c.trace_id, c.started_at, c.spans) for r, c in instrumentation.traces.items()}

    totals: dict = defaultdict(float)
    wire: list = []
    matched = violations = 0
    latency_sum = 0.0
    for rid, latency, done in zip(requests["ids"], requests["latencies"], requests["finished"]):
        if rid in chains:
            layers, nested = _served_layers(
                latency, chains[rid], batches.get(chains[rid][0]), client_spans.get(rid)
            )
            if layers is None:
                continue
            if "transport.wire" in layers:
                wire.append(layers["transport.wire"])
        elif runs.get(rid):
            start = done - latency
            layers = {"apps.host_code": latency - sum(s[3] - s[2] for s in runs[rid])}
            for span in runs[rid]:
                for name, seconds in _subtree(children, span)[0].items():
                    layers[name] = layers.get(name, 0.0) + seconds
            nested = all(start - CLOCK_SLACK_S <= s[2] and s[3] <= done + CLOCK_SLACK_S
                         for s in runs[rid])
        else:
            continue
        residuals_ok = all(layers.get(name, 0.0) >= -CLOCK_SLACK_S for name in RESIDUALS + SPLITS)
        matched += 1
        violations += 0 if (nested and residuals_ok) else 1
        latency_sum += latency
        for name, value in layers.items():
            totals[name] += value
    return {
        "requests": len(requests["ids"]),
        "matched": matched,
        "violations": violations,
        "latency_s": latency_sum,
        "layers": dict(totals),
        "wire": wire,
    }


def format_ledger(ledger: dict) -> str:
    """The per-request ledger as a table of mean milliseconds per request."""
    n = max(1, ledger["matched"])
    mean_latency = ledger["latency_s"] / n
    unrecorded = sum(ledger["layers"].get(name, 0.0) for name in RESIDUALS) / n
    lines = [
        f"request ledger: {ledger['matched']} of {ledger['requests']} measured requests matched to "
        f"their spans; mean per request",
        f"{'layer':32s} {'mean ms':>10s} {'share %':>8s}",
    ]
    for name, total in sorted(ledger["layers"].items(), key=lambda item: -item[1]):
        share = 100.0 * total / ledger["latency_s"] if ledger["latency_s"] else 0.0
        lines.append(f"{name:32s} {total / n * 1e3:10.4f} {share:8.2f}")
    covered = 100.0 * (1.0 - unrecorded / mean_latency) if mean_latency else 0.0
    lines.append(
        f"the layers tile the mean measured latency of {mean_latency * 1e3:.4f} ms; spans recorded "
        f"by the program and the benchmark cover {covered:.1f}% of it"
    )
    ok = ledger["matched"] == ledger["requests"] and ledger["violations"] == 0
    lines.append(
        f"ledger check {'passed' if ok else 'FAILED'}: {ledger['requests'] - ledger['matched']} "
        f"requests without spans, {ledger['violations']} whose spans fall outside their measured "
        f"interval or execute step"
    )
    return "\n".join(lines)
