"""Tests for loop-invariant hoisting in the per-row stage loop.

A traced implementation that runs once per row has its invariant ops —
those whose operands derive only from the non-row arguments — run once
per stage execution, and its invariant float64-kernel operands promoted
once.  Results must not change by a single bit, and the saved work must
show in the kernel invocation counts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps import HDClassification, HDClustering, HDHashtable, HyperOMS, RelHD
from repro.backends import compile as hdc_compile
from repro.backends.executor import HostStageExecutor, OpInterpreter, _RowSplit
from repro.backends.kernelsets import LibraryKernelSet, ReferenceKernelSet
from repro.datasets import (
    CoraConfig,
    GenomicsConfig,
    IsoletConfig,
    SpectraConfig,
    make_cora_like,
    make_genomics_dataset,
    make_isolet_like,
    make_spectral_library,
)
from repro.ir.ops import Opcode
from repro.kernels import reference as ref
from repro.transforms import ApproximationConfig, PerforationSpec

ROWS, FEATURES, DIM, CLASSES = 7, 24, 48, 5


def _digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        arr = np.ascontiguousarray(np.asarray(outputs[key]))
        h.update(f"{key}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


_ISOLET = IsoletConfig(n_train=60, n_test=40, seed=5)

#: app -> (run on the per-row CPU back end, digest of every output, kernel
#: invocations).  Digests and counts were recorded with the executor
#: before hoisting, which re-ran every op (``sign(classes)``, ...) per row.
RECORDED = {
    "classification": (
        lambda: HDClassification(dimension=256, epochs=2).run(make_isolet_like(_ISOLET), target="cpu"),
        "c0101c91a2d19bdd",
        200,
    ),
    "clustering": (
        lambda: HDClustering(dimension=256, n_clusters=26, iterations=2).run(
            make_isolet_like(_ISOLET), target="cpu"
        ),
        "b7f870b21d6b66aa",
        600,
    ),
    "hyperoms": (
        lambda: HyperOMS(dimension=256).run(
            make_spectral_library(SpectraConfig(n_library=20, n_queries=10, seed=5)), target="cpu"
        ),
        "f24e4c36650a1c1d",
        40,
    ),
    "relhd": (
        lambda: RelHD(dimension=256).run(make_cora_like(CoraConfig(n_nodes=80, seed=5)), target="cpu"),
        "525fc84562d5698a",
        288,
    ),
    "hashtable": (
        lambda: HDHashtable(dimension=256).run(
            make_genomics_dataset(GenomicsConfig(genome_length=3000, n_reads=10, seed=5)), target="cpu"
        ),
        "ffbfc5fce299fba0",
        40,
    ),
}


@pytest.mark.parametrize("app", sorted(RECORDED))
def test_per_row_app_outputs_are_unchanged_and_cost_fewer_kernels(app):
    run, digest, kernels_before = RECORDED[app]
    result = run()
    assert _digest(result.outputs) == digest
    assert result.report.kernel_launches < kernels_before


def _inputs(seed: int = 3) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "queries": rng.standard_normal((ROWS, FEATURES)).astype(np.float32),
        "classes": rng.standard_normal((CLASSES, DIM)).astype(np.float32),
        "rp": (rng.integers(0, 2, (DIM, FEATURES)) * 2 - 1).astype(np.float32),
    }


def _hamming_program() -> H.Program:
    prog = H.Program("hoist_hamming")

    @prog.define(H.hv(FEATURES), H.hm(CLASSES, DIM), H.hm(DIM, FEATURES))
    def infer_one(features, classes, rp):
        encoded = H.sign(H.matmul(features, rp))
        return H.arg_min(H.hamming_distance(encoded, H.sign(classes)))

    @prog.entry(H.hm(ROWS, FEATURES), H.hm(CLASSES, DIM), H.hm(DIM, FEATURES))
    def main(queries, classes, rp):
        return H.inference_loop(infer_one, queries, classes, encoder=rp)

    return prog


class TestSplit:
    def test_class_memory_sign_is_invariant_and_encoder_is_promoted(self):
        compiled = hdc_compile(_hamming_program(), target="cpu")
        infer_one = compiled.program.function("infer_one")
        split = _RowSplit(infer_one, ReferenceKernelSet())
        assert [op.opcode for op in split.invariant] == [Opcode.SIGN]
        assert split.invariant[0].operands[0] is infer_one.params[1]
        assert Opcode.SIGN in [op.opcode for op in split.variant]  # sign of the row's encoding
        assert split.promoted == [infer_one.params[2].id]
        # The library kernels compute in float32: nothing to promote.
        assert _RowSplit(infer_one, LibraryKernelSet()).promoted == []

    def test_invariant_sign_runs_once_per_stage_execution(self):
        inputs = _inputs()
        result = hdc_compile(_hamming_program(), target="cpu").run(**inputs)
        # matmul, sign, hamming and arg_min per row; sign(classes) once;
        # the inference_loop itself is not a kernel call.
        assert result.report.kernel_launches == 4 * ROWS + 1
        rp64 = inputs["rp"].astype(np.float64)
        signs = np.where(inputs["classes"] >= 0, 1, -1)
        for row, label in zip(inputs["queries"], np.asarray(result.output)):
            encoded = np.where(rp64 @ row.astype(np.float64) >= 0, 1, -1)
            assert label == np.argmin((encoded != signs).sum(axis=1))


@pytest.mark.parametrize("stride", [1, 2])
def test_promoted_matmul_and_cossim_are_bit_identical_to_the_float32_kernels(stride):
    """The float outputs of a per-row stage whose invariant operands were
    promoted once match the kernels fed float32 operands byte for byte,
    perforated (strided) reductions included."""
    prog = H.Program("hoist_floats")

    @prog.define(H.hv(FEATURES), H.hm(DIM, FEATURES))
    def project(features, rp):
        return H.matmul(features, rp)

    @prog.define(H.hv(DIM), H.hm(CLASSES, DIM))
    def score(encoded, classes):
        return H.cossim(encoded, classes)

    @prog.entry(H.hm(ROWS, FEATURES), H.hm(CLASSES, DIM), H.hm(DIM, FEATURES))
    def main(queries, classes, rp):
        encoded = H.encoding_loop(project, queries, rp)
        return encoded, H.parallel_map(score, encoded, classes, output_dim=CLASSES)

    perforations = ()
    if stride > 1:
        perforations = (
            PerforationSpec("matmul", stride=stride),
            PerforationSpec("cossim", stride=stride),
        )
    inputs = _inputs(seed=8)
    result = hdc_compile(prog, target="cpu", config=ApproximationConfig(perforations=perforations)).run(
        **inputs
    )
    encoded, scores = (np.asarray(v) for v in result.outputs.values())
    window = {"stride": stride}
    expected_encoded = np.stack([ref.matmul(row, inputs["rp"], **window) for row in inputs["queries"]])
    expected_scores = np.stack([ref.cossim(row, inputs["classes"], **window) for row in expected_encoded])
    assert encoded.tobytes() == expected_encoded.tobytes()
    assert scores.tobytes() == expected_scores.tobytes()


def test_seedless_random_inside_an_impl_is_never_hoisted():
    """A seedless random op draws from the kernel set's RNG: hoisting it
    would hand every row the same draw.  Each row must draw its own, in
    row order, exactly as running the whole function per row does."""
    prog = H.Program("hoist_random")

    @prog.define(H.hv(DIM), H.hv(DIM))
    def jitter(row, bias):
        return H.add(H.add(row, H.random_hypervector(DIM)), H.sign(bias))

    @prog.entry(H.hm(ROWS, DIM), H.hv(DIM))
    def main(data, bias):
        return H.parallel_map(jitter, data, bias)

    rng = np.random.default_rng(4)
    data = rng.standard_normal((ROWS, DIM)).astype(np.float32)
    bias = rng.standard_normal(DIM).astype(np.float32)
    compiled = hdc_compile(prog, target="cpu")
    jitter_fn = compiled.program.function("jitter")
    split = _RowSplit(jitter_fn, ReferenceKernelSet())
    assert [op.opcode for op in split.invariant] == [Opcode.SIGN]
    assert Opcode.RANDOM_HYPERVECTOR in [op.opcode for op in split.variant]

    out = np.asarray(compiled.run(data=data, bias=bias).output)
    # Whole-function, per-row evaluation with a fresh kernel set of the
    # back end's seed: the semantics hoisting must preserve.
    interpreter = OpInterpreter(compiled.program, ReferenceKernelSet(seed=0), HostStageExecutor(False))
    expected = np.stack([interpreter.run_function(jitter_fn, [row, bias])[0] for row in data])
    assert out.tobytes() == expected.tobytes()
    noise = out - data
    assert not np.array_equal(noise[0], noise[1])
