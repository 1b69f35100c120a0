"""Kernel sets used by the CPU and GPU back ends.

A *kernel set* maps one HPVM-HDC IR operation plus its concrete operand
arrays to a result array.  Two implementations exist:

* :class:`ReferenceKernelSet` (CPU) — executes the straightforward
  reference kernels, i.e. the behaviour of HDC primitives expanded into
  HPVM IR loop sub-graphs and compiled for the host.
* :class:`LibraryKernelSet` (GPU) — executes the batched "library routine"
  kernels standing in for cuBLAS / Thrust / hand-written CUDA kernels, and
  counts one kernel launch per lowered primitive so the GPU device model
  can account for launch overhead.

Both kernel sets automatically switch the similarity primitives to the
packed-bit kernels when their operands are 1-bit bipolar (the payoff of the
automatic-binarization transform on general-purpose hardware).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.hdcpp.program import Operation
from repro.hdcpp.types import binary
from repro.ir.ops import Opcode
from repro.kernels import batched, binary as binkern, reference as ref

__all__ = ["KernelSet", "ReferenceKernelSet", "LibraryKernelSet"]


def _perforation(op: Operation) -> dict:
    """Extract the perforation window recorded by the perforation pass."""
    return {
        "begin": op.attrs.get("perf_begin", 0),
        "end": op.attrs.get("perf_end", None),
        "stride": op.attrs.get("perf_stride", 1),
    }


def _operands_are_binary(op: Operation) -> bool:
    return all(
        getattr(v.type, "element", None) is not None and v.type.element.is_binary
        for v in op.operands
    )


def _binary_route(op: Operation, inputs: list[np.ndarray]) -> bool:
    """Whether a similarity op should take the packed word-parallel kernels.

    True when the IR declares 1-bit operands (the automatic-binarization
    taint reached the comparison) — or when a packed-storage deployment
    already delivered a :class:`~repro.kernels.binary.PackedBits` operand
    at runtime, which the float kernels could not interpret.
    """
    return _operands_are_binary(op) or any(binkern.is_packed(v) for v in inputs)


class KernelSet:
    """Base class: dispatches one operation to a kernel implementation."""

    #: Human readable name used in reports.
    name = "kernels"

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self.kernel_invocations = 0

    # -- public entry -----------------------------------------------------------------
    def run(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        self.kernel_invocations += 1
        handler = self._dispatch(op.opcode)
        return handler(op, inputs)

    def _dispatch(self, opcode: Opcode) -> Callable:
        try:
            return self._HANDLERS[opcode].__get__(self)
        except KeyError as exc:  # pragma: no cover - defensive
            raise NotImplementedError(f"{self.name} cannot execute {opcode}") from exc

    #: Opcodes whose kernels compute on float64 copies of their float
    #: operands (the reference GEMV and cosine).  The per-row executor
    #: promotes loop-invariant operands of these ops once per stage
    #: execution, and the kernels use an already-promoted operand as is.
    float64_opcodes = frozenset({Opcode.MATMUL, Opcode.COSSIM})

    def computes_in_float64(self, op: Operation) -> bool:
        """Whether ``op``'s kernel promotes its operands to float64."""
        return op.opcode in self.float64_opcodes and not _operands_are_binary(op)

    # -- init primitives ---------------------------------------------------------------
    def _shape_of(self, op: Operation) -> tuple[int, ...]:
        attrs = op.attrs
        if "dim" in attrs:
            return (attrs["dim"],)
        return (attrs["rows"], attrs["cols"])

    def _element(self, op: Operation):
        return op.attrs.get("element", None)

    def op_empty(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        element = self._element(op)
        return ref.empty(self._shape_of(op), element.numpy_dtype)

    def op_create(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        element = self._element(op)
        return ref.create(self._shape_of(op), element.numpy_dtype, op.attrs["init_fn"])

    def op_random(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        element = self._element(op)
        rng = self._seeded_rng(op)
        return ref.random_values(
            self._shape_of(op), element.numpy_dtype, rng, bipolar=element.is_binary
        )

    def op_gaussian(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        element = self._element(op)
        rng = self._seeded_rng(op)
        return ref.gaussian_values(self._shape_of(op), element.numpy_dtype, rng)

    def _seeded_rng(self, op: Operation) -> np.random.Generator:
        seed = op.attrs.get("seed")
        return self.rng if seed is None else np.random.default_rng(seed)

    # -- element-wise primitives ---------------------------------------------------------
    def op_wrap_shift(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.wrap_shift(inputs[0], op.attrs["shift_amount"])

    def op_sign(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.sign(inputs[0])

    def op_sign_flip(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.sign_flip(inputs[0])

    def op_add(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.elementwise("add", inputs[0], inputs[1])

    def op_sub(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.elementwise("sub", inputs[0], inputs[1])

    def op_mul(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.elementwise("mul", inputs[0], inputs[1])

    def op_div(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.elementwise("div", inputs[0], inputs[1])

    def op_abs(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.absolute_value(inputs[0])

    def op_cosine(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.cosine(inputs[0])

    def op_type_cast(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        element = op.attrs["element"]
        if element.is_binary:
            return ref.sign(inputs[0])
        return ref.type_cast(inputs[0], element.numpy_dtype)

    # -- access primitives ----------------------------------------------------------------
    def op_get_element(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return np.asarray(ref.get_element(inputs[0], op.attrs["row_idx"], op.attrs["col_idx"]))

    def op_arg_min(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.arg_min(inputs[0])

    def op_arg_max(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.arg_max(inputs[0])

    def op_set_matrix_row(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.set_matrix_row(inputs[0], inputs[1], op.attrs["row_idx"])

    def op_get_matrix_row(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.get_matrix_row(inputs[0], op.attrs["row_idx"])

    def op_transpose(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.matrix_transpose(inputs[0])

    # -- reduction primitives ----------------------------------------------------------------
    def op_l2norm(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return ref.l2norm(inputs[0], **_perforation(op))

    def op_cossim(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        if _binary_route(op, inputs):
            return batched.pairwise_cossim_packed(inputs[0], inputs[1], **_perforation(op))
        return ref.cossim(inputs[0], inputs[1], **_perforation(op))

    def op_hamming(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        if _binary_route(op, inputs):
            return batched.pairwise_hamming_packed(inputs[0], inputs[1], **_perforation(op))
        return ref.hamming_distance(inputs[0], inputs[1], **_perforation(op))

    def op_matmul(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        out = ref.matmul(inputs[0], inputs[1], **_perforation(op))
        return self._maybe_binarize_result(op, out)

    @staticmethod
    def _maybe_binarize_result(op: Operation, out: np.ndarray) -> np.ndarray:
        """Binarized reductions emit bipolar results (Section 4.2).

        When automatic binarization marks a reduction result as 1-bit, the
        lowered kernel produces the sign of the accumulated value directly
        (the bit-vector lowering of Algorithm 1), so downstream operations
        see data that matches the rewritten IR type.
        """
        result = op.result
        if result is not None and getattr(result.type, "element", None) is not None:
            if result.type.element.is_binary:
                return ref.sign(out)
        return out

    # -- directives --------------------------------------------------------------------------
    def op_red_perf(self, op: Operation, inputs: list[np.ndarray]) -> Optional[np.ndarray]:
        # Left in the stream only if the perforation pass did not run; it is
        # a pure annotation, so executing it is a no-op.
        return None

    _HANDLERS = {
        Opcode.EMPTY_HYPERVECTOR: op_empty,
        Opcode.EMPTY_HYPERMATRIX: op_empty,
        Opcode.CREATE_HYPERVECTOR: op_create,
        Opcode.CREATE_HYPERMATRIX: op_create,
        Opcode.RANDOM_HYPERVECTOR: op_random,
        Opcode.RANDOM_HYPERMATRIX: op_random,
        Opcode.GAUSSIAN_HYPERVECTOR: op_gaussian,
        Opcode.GAUSSIAN_HYPERMATRIX: op_gaussian,
        Opcode.WRAP_SHIFT: op_wrap_shift,
        Opcode.SIGN: op_sign,
        Opcode.SIGN_FLIP: op_sign_flip,
        Opcode.ADD: op_add,
        Opcode.SUB: op_sub,
        Opcode.MUL: op_mul,
        Opcode.DIV: op_div,
        Opcode.ABSOLUTE_VALUE: op_abs,
        Opcode.COSINE: op_cosine,
        Opcode.TYPE_CAST: op_type_cast,
        Opcode.GET_ELEMENT: op_get_element,
        Opcode.ARG_MIN: op_arg_min,
        Opcode.ARG_MAX: op_arg_max,
        Opcode.SET_MATRIX_ROW: op_set_matrix_row,
        Opcode.GET_MATRIX_ROW: op_get_matrix_row,
        Opcode.MATRIX_TRANSPOSE: op_transpose,
        Opcode.L2NORM: op_l2norm,
        Opcode.COSSIM: op_cossim,
        Opcode.HAMMING_DISTANCE: op_hamming,
        Opcode.MATMUL: op_matmul,
        Opcode.RED_PERF: op_red_perf,
    }


class ReferenceKernelSet(KernelSet):
    """CPU kernel set — reference (row-at-a-time) kernels."""

    name = "cpu-reference"


class LibraryKernelSet(KernelSet):
    """GPU kernel set — batched library routines plus launch accounting."""

    name = "gpu-library"
    #: The library GEMM and cosine compute in float32.
    float64_opcodes = frozenset()

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.kernel_launches = 0

    def run(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        self.kernel_launches += 1
        return super().run(op, inputs)

    # Reductions and similarity search map to the batched library routines.
    def op_l2norm(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return batched.rowwise_l2norm(inputs[0], **_perforation(op))

    def op_cossim(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        if _binary_route(op, inputs):
            return batched.pairwise_cossim_packed(inputs[0], inputs[1], **_perforation(op))
        return batched.pairwise_cossim(inputs[0], inputs[1], **_perforation(op))

    def op_hamming(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        # Binarized operands take the word-parallel packed kernels (the
        # distances are exact integer bit counts, so the result matches
        # the GEMM identity (D - a.b)/2 this routed to previously, bit
        # for bit); float operands keep the broadcast/GEMM route.
        if _binary_route(op, inputs):
            return batched.pairwise_hamming_packed(inputs[0], inputs[1], **_perforation(op))
        return batched.pairwise_hamming(inputs[0], inputs[1], **_perforation(op))

    def op_matmul(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        out = batched.gemm(inputs[0], inputs[1], **_perforation(op))
        return self._maybe_binarize_result(op, out)

    def op_arg_min(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return batched.rowwise_argmin(inputs[0])

    def op_arg_max(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return batched.rowwise_argmax(inputs[0])

    def op_transpose(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        return batched.transpose(inputs[0])

    _HANDLERS = dict(KernelSet._HANDLERS)
    _HANDLERS.update(
        {
            Opcode.L2NORM: op_l2norm,
            Opcode.COSSIM: op_cossim,
            Opcode.HAMMING_DISTANCE: op_hamming,
            Opcode.MATMUL: op_matmul,
            Opcode.ARG_MIN: op_arg_min,
            Opcode.ARG_MAX: op_arg_max,
            Opcode.MATRIX_TRANSPOSE: op_transpose,
        }
    )
