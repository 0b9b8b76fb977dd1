"""Source-to-source compiler: single-device → multi-device programs."""

from .backend import (
    OFFSET_PARAM,
    MultiDeviceProgram,
    emit_multi_device,
    make_offset_kernel,
)
from .frontend import CompiledKernel, compile_kernel
from .passes import (
    constant_fold,
    dead_store_elimination,
    run_default_passes,
    simplify_algebra,
)
from .splitter import (
    BufferDistribution,
    DistributionKind,
    KernelDistribution,
    buffer_range,
    derive_distributions,
)

__all__ = [
    "OFFSET_PARAM",
    "MultiDeviceProgram",
    "emit_multi_device",
    "make_offset_kernel",
    "CompiledKernel",
    "compile_kernel",
    "constant_fold",
    "simplify_algebra",
    "dead_store_elimination",
    "run_default_passes",
    "BufferDistribution",
    "DistributionKind",
    "KernelDistribution",
    "buffer_range",
    "derive_distributions",
]
