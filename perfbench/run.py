#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload tiny-socket --seed 1 --seconds 10 --trace 0

Workloads in ``BENCHMARK.json`` (why each was chosen is recorded there):

* ``tiny-socket`` — two tiny models on a 2-replica group behind the
  socket transport, two blocking clients.
* ``fig5-offline`` — the five paper apps compiled once and run through
  ``CompiledProgram.run`` on cpu, gpu and the simulated accelerators.

``mixed-open`` — open-loop Poisson reads over three models with hot-swap
writes in flight — runs by name but is not in ``BENCHMARK.json``: on a
shared 2-core VM the median of its p50 latency over ten launches moved
36% between two sets of launches of the same code (IQR 16-21% of the
median within a set), past the 25% bound.  It is the only workload that
drives the open loop and the ``update``/``append`` write path.  A
compute-bound closed loop over an in-process ISOLET classifier was
dropped outright: the middle half of its throughput over five launches
spread 20% of the median even with 40 s windows.

End-to-end metrics, the same four on every workload:

* ``setup_s`` — median of the run's set-ups: every program call before
  the first timed request (offline training or encoding, ``register``
  with the full bucket ladder warm, warm-up requests, ``compile``).
  Data generation and reference outputs are not counted.
* ``latency_p50_ms`` / ``latency_p90_ms`` — serving: from send (blocking
  clients) or from the due time (open loop), the median over ten equal
  slices of the timed window of each slice's percentile (see
  ``measure.window_metrics``); fig5-offline: the time of one pass over
  every job, percentiles over the passes.  p90, not p99: p99 spread
  38-42% between launches on a 2-core VM.  Whole-window p50, p90 and
  p99 are printed with their sample count.
* ``peak_rss_mb`` — peak resident memory of the process.

Throughput is printed, not reported: with blocking clients and with
passes over fixed jobs it is the inverse of the latency, and an open
loop would only echo its offered rate.

Failed, wrong or shed operations are the result's ``failed`` count.  The
metric names and units are read from ``BENCHMARK.json``.

``--trace 1`` measures half the time untraced and half traced, prints the
span tables, the per-request ledger (see ``ledger.py``) and the tracing
overhead, and reports the per-layer metrics.

BLAS runs single-threaded: with two BLAS threads competing with the
serving threads on a small machine, ISOLET throughput spread about twice
as widely between launches.  The environment line of every run records
the setting.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"



def declared_metrics() -> tuple:
    """``({name: unit}, {name: unit})`` of the end-to-end and per-layer
    metrics ``BENCHMARK.json`` declares; every workload reports them all
    (per-layer ones as 0 where the workload does not use the layer)."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def environment() -> dict:
    """nproc, BLAS library and thread count, NumPy and Python versions."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def workload_classes() -> dict:
    from offline import Fig5Offline
    from serving import MixedOpen, TinySocket

    return {
        "tiny-socket": TinySocket,
        "mixed-open": MixedOpen,
        "fig5-offline": Fig5Offline,
    }


def traced_layers(tracer, instrumentation, outcome, setups: int) -> tuple:
    """Per-layer figures read from the spans of one traced measurement,
    plus the set-up and timed-window span tables and the request ledger."""
    from ledger import KERNEL_OPS, Tracer, request_ledger
    from measure import percentile

    start, end = outcome.window
    setup = Tracer.summarize([s for s in tracer.spans if s[2] < start])
    window = Tracer.summarize(tracer.window(start, end))
    ops = max(1, outcome.operations)

    def setup_ms(name: str) -> float:
        return setup.get(name, {}).get("total_s", 0.0) * 1e3 / setups

    layers = {
        "hdcpp.trace_ms": setup_ms("hdcpp.build_program"),
        "transforms.pass_ms": setup_ms("transforms.pass_pipeline"),
        "transforms.rewrites": setup.get("transforms.pass_pipeline", {}).get("value", 0.0) / setups,
        "ir.lower_ms": setup_ms("ir.lower_program"),
        "ir.verify_ms": setup_ms("ir.verify_graph"),
        "ir.graph_nodes": setup.get("ir.lower_program", {}).get("value", 0.0) / setups,
        "backends.compile_ms": setup_ms("backends.compile"),
        "serving.register_ms": setup_ms("serving.register"),
    }
    kernel_calls = 0
    for op in KERNEL_OPS:
        row = window.get(f"kernels.{op}", {"calls": 0, "self_s": 0.0, "value": 0.0})
        layers[f"kernels.{op}.ms"] = row["self_s"] * 1e3 / ops
        layers[f"kernels.{op}.calls"] = row["calls"] / ops
        layers[f"kernels.{op}.bytes"] = row["value"] / ops
        kernel_calls += row["calls"]
    layers["backends.kernel_calls"] = kernel_calls / ops
    submit = window.get("serving.submit")
    layers["serving.submit_us"] = submit["total_s"] / submit["calls"] * 1e6 if submit else 0.0
    everything = Tracer.summarize(tracer.spans)
    infers = everything.get("transport.infer", {}).get("calls", 0)
    layers["transport.bytes_per_request"] = instrumentation.frame_bytes / infers if infers else 0.0
    layers["replica.retries"] = float(everything.get("replica.retry", {}).get("calls", 0))
    ledger = request_ledger(tracer, instrumentation, outcome.requests, outcome.server_traces)
    layers["transport.wire_p50_ms"] = percentile(ledger["wire"], 50) * 1e3
    return layers, setup, window, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program source {SOURCE} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))

    from ledger import Instrumentation, Tracer, format_ledger, format_table
    from measure import peak_rss_mb

    classes = workload_classes()
    if args.workload not in classes:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(classes)}",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    print("environment:", json.dumps(environment()), flush=True)
    workload = classes[args.workload](args.seed)

    if not args.trace:
        outcome = workload.measure(args.seconds)
        metrics = dict(outcome.e2e, peak_rss_mb=peak_rss_mb())
        units, attempted, failed = end_to_end, outcome.attempted, outcome.failed
        notes = outcome.notes
    else:
        from measure import SETUP_REPEATS

        plain = workload.measure(args.seconds / 2)
        tracer = Tracer()
        with Instrumentation(tracer) as instrumentation:
            traced = workload.measure(args.seconds / 2, tracer)
        layers, setup, window, ledger = traced_layers(tracer, instrumentation, traced, SETUP_REPEATS)
        metrics = {name: 0.0 for name in per_layer}
        metrics.update(traced.layers)
        metrics.update(layers)
        overhead = traced.e2e["latency_p50_ms"] / plain.e2e["latency_p50_ms"] - 1.0
        metrics["trace.overhead_share"] = overhead
        units, attempted = per_layer, plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        notes = traced.notes
        print(f"set-up spans (all {SETUP_REPEATS} set-ups of the traced half, all threads):")
        print(format_table(setup))
        print("timed-window spans (all threads):")
        print(format_table(window))
        print(format_ledger(ledger))
        print(
            f"tracing overhead: untraced p50 {plain.e2e['latency_p50_ms']:.3f} ms; traced p50 "
            f"{traced.e2e['latency_p50_ms']:.3f} ms; overhead {overhead * 100:.1f}% of p50 latency"
        )
        out = Path(".perfbench")
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-{args.seed}.jsonl", instrumentation.trace_requests)

    for note in notes:
        print(note)
    for name in units:
        print(f"{name} = {metrics[name]:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
