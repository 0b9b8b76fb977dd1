"""Compiler frontend: validate → normalize → analyze → emit.

`compile_kernel` corresponds to the paper's "code analyzer + backend"
stages and produces everything the runtime and the feature extractor
need.  It runs in two halves: :func:`compile_front` does what depends
on the kernel alone (validation, the default passes, the static
analysis, the derived distributions) and :func:`compile_back` applies
distribution overrides.  A benchmark runs the front once and the back
once per override set, so all its problem sizes share one kernel and
one analysis: the paper's compiler translates a program once and
leaves the size to the runtime.  The multi-device OpenCL C is emitted
on the first read of :attr:`CompiledKernel.program`: the runtime and
the feature extractor never read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from ..inspire import ast as ir
from ..inspire.analysis import KernelAnalysis, analyze_kernel
from ..inspire.validate import validate_kernel
from .backend import MultiDeviceProgram, emit_multi_device
from .passes import run_default_passes
from .splitter import BufferDistribution, KernelDistribution, derive_distributions

__all__ = [
    "CompiledKernel",
    "KernelFront",
    "compile_back",
    "compile_front",
    "compile_kernel",
]


@dataclass(frozen=True)
class CompiledKernel:
    """A fully processed kernel ready for multi-device execution.

    Attributes:
        kernel: the normalized IR.
        analysis: static analysis (features, access patterns).
        distribution: per-buffer data distributions.
    """

    kernel: ir.Kernel
    analysis: KernelAnalysis
    distribution: KernelDistribution

    @cached_property
    def program(self) -> MultiDeviceProgram:
        """Emitted single- and multi-device OpenCL C, on first read."""
        return emit_multi_device(self.kernel, self.distribution)

    @property
    def name(self) -> str:
        return self.kernel.name

    def static_features(self) -> dict[str, float]:
        """Static program features (stored in the training database)."""
        return self.analysis.static_features()


@dataclass(frozen=True)
class KernelFront:
    """The override-independent half of a compile.

    Attributes:
        analysis: the static analysis of the normalized IR
            (``analysis.kernel``), shared by every back half.
        derived: the distributions the analysis proves on its own.
    """

    analysis: KernelAnalysis
    derived: KernelDistribution


def compile_front(kernel: ir.Kernel, optimize: bool = True) -> KernelFront:
    """Validate, normalize and analyze a kernel."""
    validate_kernel(kernel)
    if optimize:
        kernel = run_default_passes(kernel)
        validate_kernel(kernel)
    analysis = analyze_kernel(kernel)
    return KernelFront(analysis, derive_distributions(analysis))


def compile_back(
    front: KernelFront,
    distribution_overrides: Mapping[str, BufferDistribution] | None = None,
) -> CompiledKernel:
    """Apply distribution overrides to a front.

    ``distribution_overrides`` lets a benchmark declare distributions the
    automatic analysis cannot prove (Insieme's annotation escape hatch);
    every override must name a real buffer parameter.
    """
    kernel = front.analysis.kernel
    buffers = dict(front.derived.buffers)
    if distribution_overrides:
        param_names = {p.name for p in kernel.buffer_params}
        for name, dist in distribution_overrides.items():
            if name not in param_names:
                raise KeyError(
                    f"distribution override for unknown buffer {name!r} "
                    f"(kernel {kernel.name})"
                )
            buffers[name] = dist
    # Buffers never accessed in the body (e.g. scratch) default to FULL.
    for p in kernel.buffer_params:
        buffers.setdefault(p.name, BufferDistribution.full())
    return CompiledKernel(kernel, front.analysis, KernelDistribution(buffers))


def compile_kernel(
    kernel: ir.Kernel,
    distribution_overrides: Mapping[str, BufferDistribution] | None = None,
    optimize: bool = True,
) -> CompiledKernel:
    """Run the full frontend pipeline on a kernel: front, then back."""
    return compile_back(compile_front(kernel, optimize), distribution_overrides)
