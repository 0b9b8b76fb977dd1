"""Structural checks over the whole suite: registry, ladders, geometry."""

import pytest

from repro.benchsuite import (
    BENCHMARK_CLASSES,
    Suite,
    all_benchmarks,
    benchmark_names,
    get_benchmark,
)
from repro.compiler.splitter import DistributionKind
from repro.inspire.ast import ParamIntent


class TestRegistry:
    def test_exactly_23_programs(self):
        assert len(BENCHMARK_CLASSES) == 23
        assert len(set(benchmark_names())) == 23

    def test_suite_composition_matches_paper_mix(self):
        counts = {}
        for b in all_benchmarks():
            counts[b.suite] = counts.get(b.suite, 0) + 1
        assert counts[Suite.VENDOR] == 8
        assert counts[Suite.SHOC] == 5
        assert counts[Suite.RODINIA] == 7
        assert counts[Suite.POLYBENCH] == 3

    def test_get_benchmark_singleton(self):
        assert get_benchmark("vec_add") is get_benchmark("vec_add")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_benchmark("does_not_exist")

    def test_suite_of(self):
        assert get_benchmark("hotspot").suite is Suite.RODINIA
        assert get_benchmark("atax").suite is Suite.POLYBENCH

    def test_descriptions_present(self):
        for b in all_benchmarks():
            assert b.description, b.name


class TestProblemSizes:
    def test_ladders_ascending_with_enough_rungs(self):
        for b in all_benchmarks():
            sizes = b.problem_sizes()
            assert len(sizes) >= 6, b.name
            assert list(sizes) == sorted(set(sizes)), b.name

    def test_size_range_spans_an_order_of_magnitude(self):
        for b in all_benchmarks():
            sizes = b.problem_sizes()
            assert sizes[-1] / sizes[0] >= 16, b.name

class TestInstanceGeometry:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_arrays_cover_kernel_buffers(self, name):
        bench = get_benchmark(name)
        inst = bench.make_instance(bench.problem_sizes()[0], seed=0)
        kernel = bench.compiled(inst).kernel
        for p in kernel.buffer_params:
            assert p.name in inst.arrays, (name, p.name)
        for p in kernel.scalar_params:
            assert p.name in inst.scalars, (name, p.name)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_granularity_divides_total_items(self, name):
        bench = get_benchmark(name)
        inst = bench.make_instance(bench.problem_sizes()[0], seed=0)
        assert inst.total_items % inst.granularity == 0, (
            f"{name}: row-aligned chunking requires granularity | total"
        )

    @pytest.mark.parametrize("name", benchmark_names())
    def test_split_buffers_elements_consistent(self, name):
        """SPLIT/HALO distributions must map items to whole buffers."""
        bench = get_benchmark(name)
        inst = bench.make_instance(bench.problem_sizes()[0], seed=0)
        compiled = bench.compiled(inst)
        for p in compiled.kernel.buffer_params:
            dist = compiled.distribution.of(p.name)
            if dist.kind in (DistributionKind.SPLIT, DistributionKind.HALO):
                elems = inst.arrays[p.name].size
                expected = inst.total_items * dist.elements_per_item
                assert abs(elems - expected) <= max(4.0, 0.1 * elems), (
                    name,
                    p.name,
                    elems,
                    expected,
                )

    @pytest.mark.parametrize("name", benchmark_names())
    def test_output_names_are_writable_buffers(self, name):
        bench = get_benchmark(name)
        inst = bench.make_instance(bench.problem_sizes()[0], seed=0)
        kernel = bench.compiled(inst).kernel
        for out in inst.output_names:
            assert kernel.param(out).intent in (ParamIntent.OUT, ParamIntent.INOUT)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_fresh_copy_independent(self, name):
        bench = get_benchmark(name)
        inst = bench.make_instance(bench.problem_sizes()[0], seed=0)
        copy = inst.fresh_copy()
        out = inst.output_names[0]
        copy.arrays[out].reshape(-1)[0] = 123.0
        assert inst.arrays[out].reshape(-1)[0] != 123.0

    def test_iterations_positive_everywhere(self):
        for b in all_benchmarks():
            inst = b.make_instance(b.problem_sizes()[0], seed=0)
            assert inst.iterations >= 1

    def test_iterative_benchmarks_declared(self):
        # The iterative applications of the suite.
        iterative = {
            b.name
            for b in all_benchmarks()
            if b.make_instance(b.problem_sizes()[0], seed=0).iterations > 1
        }
        assert {
            "hotspot",
            "srad",
            "stencil2d",
            "kmeans",
            "black_scholes",
            "nbody",
        } <= iterative

    def test_refresh_buffers_exist(self):
        for b in all_benchmarks():
            inst = b.make_instance(b.problem_sizes()[0], seed=0)
            kernel = b.compiled(inst).kernel
            names = {p.name for p in kernel.buffer_params}
            for r in b.iteration_refresh_buffers():
                assert r in names, (b.name, r)
