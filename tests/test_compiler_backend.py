"""Tests for the multi-device backend (offset rewriting + codegen)."""

import numpy as np
import pytest

from repro.compiler import OFFSET_PARAM, compile_kernel, make_offset_kernel
from repro.inspire import INT, Intent, KernelBuilder, run_kernel, validate_kernel


class TestOffsetKernel:
    def test_offset_param_added(self, saxpy_kernel):
        offset = make_offset_kernel(saxpy_kernel)
        assert offset.params[-1].name == OFFSET_PARAM
        assert offset.name == saxpy_kernel.name + "_md"
        validate_kernel(offset)

    def test_offset_semantics_match_subrange(self, saxpy_kernel):
        """Running the offset kernel over [0, c) with offset o must equal
        running the original over global ids [o, o+c)."""
        offset_kernel = make_offset_kernel(saxpy_kernel)
        n = 16
        x = np.arange(n, dtype=np.float32)
        y1 = np.ones(n, dtype=np.float32)
        y2 = np.ones(n, dtype=np.float32)
        # Original: work items 5..11 via interpreter offset.
        run_kernel(
            saxpy_kernel, (6,), {"x": x, "y": y1}, {"a": 3.0, "n": n}, offset=(5,)
        )
        # Multi-device form: plain range + explicit offset argument.
        run_kernel(
            offset_kernel,
            (6,),
            {"x": x, "y": y2},
            {"a": 3.0, "n": n, OFFSET_PARAM: 5},
        )
        assert np.array_equal(y1, y2)

    def test_2d_offsets_last_dim(self):
        b = KernelBuilder("rows", dim=2)
        out = b.buffer("out", INT, Intent.OUT)
        w = b.scalar("w", INT)
        col = b.global_id(0)
        row = b.global_id(1)
        b.store(out, row * w + col, row)
        k = b.finish()
        mk = make_offset_kernel(k)
        out = np.full(12, -1, dtype=np.int32)
        run_kernel(mk, (4, 1), {"out": out}, {"w": 4, OFFSET_PARAM: 2})
        assert list(out.reshape(3, 4)[2]) == [2, 2, 2, 2]
        assert np.all(out.reshape(3, 4)[:2] == -1)


class TestEmission:
    def test_md_source_contains_offset(self, saxpy_kernel):
        compiled = compile_kernel(saxpy_kernel)
        assert OFFSET_PARAM in compiled.program.md_source
        assert f"get_global_id(0) + {OFFSET_PARAM}" in compiled.program.md_source
        assert OFFSET_PARAM not in compiled.program.source

    def test_host_plan_mentions_transfers(self, saxpy_kernel):
        compiled = compile_kernel(saxpy_kernel)
        plan = compiled.program.host_plan
        assert "clEnqueueWriteBuffer" in plan
        assert "clEnqueueNDRangeKernel" in plan
        assert "clEnqueueReadBuffer" in plan

    def test_all_benchmarks_emit(self, benchmarks):
        for bench in benchmarks:
            compiled = bench.compiled()
            assert "__kernel" in compiled.program.md_source
            assert OFFSET_PARAM in compiled.program.md_source


class TestCompileKernel:
    def test_unknown_override_rejected(self, saxpy_kernel):
        import pytest

        from repro.compiler import BufferDistribution

        with pytest.raises(KeyError):
            compile_kernel(saxpy_kernel, {"ghost": BufferDistribution.full()})

    def test_static_features_exposed(self, saxpy_kernel):
        compiled = compile_kernel(saxpy_kernel)
        feats = compiled.static_features()
        assert feats["st_loads"] > 0
        assert compiled.name == "saxpy_t"

    def test_unoptimized_compile(self, saxpy_kernel):
        compiled = compile_kernel(saxpy_kernel, optimize=False)
        assert compiled.kernel == saxpy_kernel


#: The programs whose distribution overrides depend on the problem size.
SIZE_DEPENDENT_OVERRIDES = ("mat_mul", "stencil2d", "hotspot", "srad", "conv2d", "mvt")


class TestCompileOncePerProgram:
    """A benchmark runs the front once and the back once per signature."""

    def test_every_size_matches_a_from_scratch_compile(self):
        from repro.benchsuite import get_benchmark

        for name in SIZE_DEPENDENT_OVERRIDES:
            bench = type(get_benchmark(name))()
            by_signature = {}
            analyses = set()
            # Unsized first, as a campaign's set-up compiles each program.
            for size in (None,) + bench.problem_sizes():
                instance = None if size is None else bench.make_instance(size)
                overrides = bench.distribution_overrides(instance)
                got = bench.compiled(instance)
                want = compile_kernel(bench.build_kernel(), overrides)
                where = f"{name}@{size}"
                assert got.distribution.buffers == want.distribution.buffers, where
                assert got.program.source == want.program.source, where
                assert got.program.md_source == want.program.md_source, where
                assert got.program.host_plan == want.program.host_plan, where
                assert got.static_features() == want.static_features(), where
                # One back per distribution signature.
                signature = overrides
                if overrides is not None:
                    signature = tuple(sorted(overrides.items()))
                assert by_signature.setdefault(signature, got) is got, where
                analyses.add(id(got.analysis))
            # The overrides really move with the size ...
            assert len(by_signature) > 1, name
            # ... yet every size shares one front: one analysis.
            assert len(analyses) == 1, name

    def test_a_kernel_that_fails_validation_raises_on_every_call(self, monkeypatch):
        from repro.benchsuite import get_benchmark
        from repro.inspire import ValidationError
        from repro.inspire import ast as ir

        bench = type(get_benchmark("vec_add"))()
        bad = ir.Kernel("bad", (), ir.Block(()), 3)
        monkeypatch.setattr(bench, "build_kernel", lambda: bad)
        for _ in range(2):
            with pytest.raises(ValidationError, match="dim"):
                bench.compiled()

    def test_a_training_campaign_emits_no_opencl(self, monkeypatch):
        # Only `repro kernel` and the examples read the emitted program.
        from repro.benchsuite import get_benchmark
        from repro.compiler import frontend
        from repro.core import TrainingConfig, generate_training_data
        from repro.machines import MC2

        emitted = []
        monkeypatch.setattr(
            frontend, "emit_multi_device", lambda *args: emitted.append(args)
        )
        benches = [type(get_benchmark(name))() for name in ("vec_add", "mat_mul")]
        database = generate_training_data(MC2, benches, TrainingConfig(max_sizes=2))
        assert len(database) == 4
        assert emitted == []
