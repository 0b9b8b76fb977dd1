"""Semantic validation of all 23 benchmarks.

Three-way agreement is required for every program:
  1. the IR kernel under the reference interpreter,
  2. the vectorized NumPy device executor,
  3. the analytical reference implementation.
"""

import hashlib

import numpy as np
import pytest

from repro.benchsuite import benchmark_names, get_benchmark
from repro.inspire import run_kernel
from repro.runtime import LazyArrays, buffer_layout
from tests.conftest import TINY_SIZES

#: Benchmarks whose reduction outputs need looser tolerances (float32
#: accumulation order differs between interpreter and NumPy).
LOOSE = {"dot_product": 5e-2, "reduction": 5e-2, "nbody": 1e-2, "md": 1e-2}


def _global_size(bench, inst):
    kernel = bench.compiled(inst).kernel
    if kernel.dim == 1:
        return (inst.total_items,)
    w = int(inst.scalars["w"]) if "w" in inst.scalars else int(inst.scalars["N"])
    return (w, inst.total_items // w)


@pytest.mark.parametrize("name", benchmark_names())
def test_interpreter_matches_reference(name):
    bench = get_benchmark(name)
    inst = bench.make_instance(TINY_SIZES[name], seed=1)
    expected = bench.reference(inst)
    run_kernel(
        bench.compiled(inst).kernel,
        _global_size(bench, inst),
        dict(inst.arrays),
        dict(inst.scalars),
    )
    tol = LOOSE.get(name, 2e-3)
    for out in inst.output_names:
        assert np.allclose(
            inst.arrays[out], expected[out], rtol=tol, atol=tol
        ), f"{name}: interpreter output {out!r} diverges from reference"


@pytest.mark.parametrize("name", benchmark_names())
def test_executor_full_range_matches_reference(name):
    bench = get_benchmark(name)
    inst = bench.make_instance(TINY_SIZES[name], seed=2)
    expected = bench.reference(inst)
    bench.execute(dict(inst.arrays), inst.scalars, 0, inst.total_items)
    for out in inst.output_names:
        assert np.allclose(
            inst.arrays[out], expected[out], rtol=1e-4, atol=1e-4
        ), f"{name}: executor output {out!r} diverges from reference"


@pytest.mark.parametrize("name", benchmark_names())
def test_executor_subranges_compose(name):
    """Executing two halves must equal executing the full range.

    REDUCED-output benchmarks accumulate, so running disjoint halves on
    the same arrays composes by construction too.
    """
    bench = get_benchmark(name)
    inst_full = bench.make_instance(TINY_SIZES[name], seed=3)
    inst_half = inst_full.fresh_copy()
    expected = bench.reference(inst_full)
    total = inst_full.total_items
    g = inst_full.granularity
    mid = max(g, (total // 2) // g * g)
    if mid >= total:
        mid = total // 2
    bench.execute(dict(inst_half.arrays), inst_half.scalars, 0, mid)
    bench.execute(dict(inst_half.arrays), inst_half.scalars, mid, total - mid)
    tol = LOOSE.get(name, 1e-4)
    for out in inst_full.output_names:
        assert np.allclose(
            inst_half.arrays[out], expected[out], rtol=tol, atol=tol
        ), f"{name}: split execution diverges at boundary"


@pytest.mark.parametrize("name", benchmark_names())
def test_executor_out_of_range_requests_are_safe(name):
    bench = get_benchmark(name)
    inst = bench.make_instance(TINY_SIZES[name], seed=4)
    # Asking for work beyond the range must clamp, not crash or write OOB.
    bench.execute(dict(inst.arrays), inst.scalars, inst.total_items, 64)


@pytest.mark.parametrize("name", benchmark_names())
def test_instances_deterministic_in_seed(name):
    bench = get_benchmark(name)
    a = bench.make_instance(TINY_SIZES[name], seed=9)
    b = bench.make_instance(TINY_SIZES[name], seed=9)
    c = bench.make_instance(TINY_SIZES[name], seed=10)
    for key in a.arrays:
        assert np.array_equal(a.arrays[key], b.arrays[key])
    assert any(
        not np.array_equal(a.arrays[k], c.arrays[k])
        for k in a.arrays
        if a.arrays[k].size > 1
        and not np.array_equal(a.arrays[k], np.zeros_like(a.arrays[k]))
    ) or name == "mandelbrot"  # mandelbrot has no random inputs


def _array_digest(arrays) -> str:
    """sha256 over each array's key, dtype, shape and bytes, in key order."""
    h = hashlib.sha256()
    for key, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        for part in (key, arr.dtype.str, repr(tuple(arr.shape))):
            h.update(part.encode())
            h.update(b"\0")
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", benchmark_names())
def test_lazy_draw_reproduces_the_eager_arrays(name):
    """The draw moved into a closure; the data it draws did not move."""
    bench = get_benchmark(name)
    for size in bench.problem_sizes()[:2]:
        for seed in (0, 1):
            arrays = bench.make_instance(size, seed=seed).arrays
            assert _array_digest(arrays) == ARRAY_DIGESTS[f"{name}@{size}/{seed}"]


@pytest.mark.parametrize("name", benchmark_names())
def test_declared_layout_matches_the_draw(name):
    bench = get_benchmark(name)
    arrays = bench.make_instance(bench.problem_sizes()[0]).arrays
    assert isinstance(arrays, LazyArrays)
    declared = arrays.layout
    declared_sizes = buffer_layout(arrays)
    drawn = {key: (arr.shape, arr.dtype) for key, arr in arrays.items()}
    assert list(drawn.items()) == list(declared.items())
    assert buffer_layout(dict(arrays)) == declared_sizes


@pytest.mark.parametrize(
    "drawn, buffer",
    [
        ({"x": np.zeros(3, np.float32)}, "x"),  # wrong shape
        ({"x": np.zeros(4, np.float64)}, "x"),  # wrong dtype
        ({"x": np.zeros(4, np.float32), "z": np.zeros(4)}, "z"),  # undeclared
    ],
)
def test_draw_that_breaks_its_declaration_raises(drawn, buffer):
    arrays = LazyArrays({"x": (4, np.float32), "y": (4, np.float32)}, lambda: drawn)
    assert list(arrays) == ["x", "y"] and "y" in arrays and len(arrays) == 2
    with pytest.raises(ValueError, match=repr(buffer)):
        arrays["y"]


def test_draw_runs_once_and_zero_fills_undrawn_buffers():
    calls = []

    def draw():
        calls.append(1)
        return {"x": np.arange(4, dtype=np.float32)}

    arrays = LazyArrays({"x": (4, np.float32), "y": ((2, 2), np.int32)}, draw)
    assert buffer_layout(arrays) == {"x": (4, 4), "y": (4, 4)}
    assert calls == []
    arrays["y"][0, 0] = 7
    assert calls == [1]
    assert arrays["y"].tolist() == [[7, 0], [0, 0]]  # the write persists
    assert arrays["x"].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert calls == [1]


#: ``_array_digest`` of every benchmark's arrays at its two smallest
#: rungs and seeds 0 and 1, computed when ``make_instance`` still drew
#: its arrays eagerly.
ARRAY_DIGESTS = {
    "vec_add@4096/0": "6e52751c498527773a159efb0a18bc2b824ce445a556f061889c4a1a0e2dd51e",
    "vec_add@4096/1": "a0a7c873adf7ec8e187cd246c9af2c25b449f02f3f91a3e46c36e70a84b676e8",
    "vec_add@16384/0": "69580dc3745d690038ddf74096cfffbb9d25664cf80ae62bbd725f58d27ace06",
    "vec_add@16384/1": "5a901b4eca13f2c5948151d94e28dce13a6042477db2614fbba48ecdc548205d",
    "saxpy@4096/0": "5a6c354ad736d50e329524a4c904aae913eee68fb104a995862804785eb12f18",
    "saxpy@4096/1": "fe84878a5bffd8d7f6be1e847ee28268d6af14bb0ccfb98d1b44a3a62ec35d8d",
    "saxpy@16384/0": "1efca91602e53e7ec9fb3f783663ab1293b31446b8a52b66abcc82869ffa37b0",
    "saxpy@16384/1": "9601b1a3d8b3231ac12e7d9ca267e388cf1a5421cb1a59eda0011b1db31957e0",
    "dot_product@4096/0": "f5f4d342be301c5ebf6837c405b3f9ff6a41f29b30c84f5a777f16157f6b4fd2",
    "dot_product@4096/1": "d280290f091915f9f1fe436dbeb8a736a2f458a91321c4df9b1e7f65738ad9c3",
    "dot_product@16384/0": "53a9b7a0f0fb8bf98eaaa427326a204c429d4bcc503054a706eb703995ba7b66",
    "dot_product@16384/1": "407d433b865c41f1a7a75e05877c91760ec6c56f1de42b2ae19a3d91a64ffdc5",
    "mat_mul@64/0": "210a7c248098e4c3c304a2b35480f92c50e4f6f40babe2f7c24772dc6e55f7ea",
    "mat_mul@64/1": "af767125fbd8f060b884ff29e8ec40531eebe36ee3ad9ab12cd3e67173b6819e",
    "mat_mul@128/0": "7cb983d88702522b9ea228862dffb99b17a71b079165de136a85eab7d132ec65",
    "mat_mul@128/1": "637cc3b42c2225d021f8d71bd19d2ed6b6f1bd74c21598634cc1e899e90deaa0",
    "black_scholes@1024/0": "f3a1bf96af4ffc40d414d9cb4d2d5c2c811b2845bddbc26f253a7e9ba74fbab6",
    "black_scholes@1024/1": "496d22962d14890688b36ec3edf7d414c158b395f4a90d1ddd60412e6182205a",
    "black_scholes@4096/0": "85515318381ff7b34366d4288458fba65c91a65769dd8a04318e0a50a7b7bf34",
    "black_scholes@4096/1": "129f4b35ce743c9a51358db1a6f24f15dcc76aac415fec8e48f5a7d926142836",
    "mandelbrot@64/0": "4fd8c9064b424a45efff7d7a5890ded916680583a0ba8c91d8f2c9c14122f205",
    "mandelbrot@64/1": "4fd8c9064b424a45efff7d7a5890ded916680583a0ba8c91d8f2c9c14122f205",
    "mandelbrot@128/0": "3a09b7e36f554ccfdbf809856719d7b1670f60dac2ef512b3304826da18bcdb4",
    "mandelbrot@128/1": "3a09b7e36f554ccfdbf809856719d7b1670f60dac2ef512b3304826da18bcdb4",
    "nbody@256/0": "578cfa97ce4cf74c3eded57434469d7ee6e0160c3e9a60dab554036a03f9463d",
    "nbody@256/1": "edc19bdcb11b3f6470ec0c8b60e6c426716e6728c219498cee72783247901e94",
    "nbody@512/0": "d29e00f5ace6c9faf86b0f4ac423206e049f78ec0094161dc6090c34ccc851d9",
    "nbody@512/1": "a8efd41ca9139f1e4433c02356acd97afab66f5fccd99a8ea2ce457b855d9f7e",
    "histogram@4096/0": "63cc413cf6eabdf079055fcfd517da5feb552866f69d155cb409feefdacc36b8",
    "histogram@4096/1": "df9f038661e87726c189f9573dd0c2638547b9e7c13f99063be9035fd0e696e6",
    "histogram@16384/0": "2c79edfcdc010a37709d571ff430f9460e3004aeab08514173d6c91eb2347db4",
    "histogram@16384/1": "9ece24225a365c1f4b158555ec1be04e39c47e9a66bcf86161c862002a6fffcb",
    "reduction@8192/0": "4434b9796c9c8f2ed6fa717be75106945b8458afd32ddaa2b36f7d7230a8fb6f",
    "reduction@8192/1": "bc916dd77667902f6d93461765e082e688fde724234e88df9f84551443375d95",
    "reduction@32768/0": "0419e7a7393885b095374032c0f49dbab250bca804f5b38d85ec499c69677356",
    "reduction@32768/1": "7e95ce0d62b6a14ac5ba9c623e66c85b52a179b0d4e5d18d97cdbedcfee42748",
    "triad@4096/0": "520566aded404d90c8ef4da9befb05124d2d75d0923a18cfffc94917c78f352e",
    "triad@4096/1": "a151db178f0a33c5456a321abfd285012ae4d8c5cf618a9aa1391f423b5c9d43",
    "triad@16384/0": "8129a676e3927be7dc4304c3e3b493b2a40d5e9d3989ee26638090782cedbb54",
    "triad@16384/1": "8b2b80a96254f945afeea501d11d53f737a083bb2cf30231762c326ed9cb57da",
    "spmv@1024/0": "7cb628e1090d0aba64fbf7571cb9eb1be1b1c7a4ceb24b5332a3ffc6c9733372",
    "spmv@1024/1": "6f509ab6c3f14ab318ceaf5fc4a5453a998a16cdcc2c2ef226729339dc964b88",
    "spmv@4096/0": "547ef55af44a470bf2306f2a0a724b96722f56a58c005744cbf9f53b9474694f",
    "spmv@4096/1": "d195687ec5419b49a26e6d2f7bd91b19d40c6ee69f59830349471f3fa33cf9f9",
    "md@1024/0": "0de48332f23ee2e61887013547f3d4a07ce55c111e9cf6bb9bb2df6333a170c0",
    "md@1024/1": "a6f62ab2c0b8b9d5ca6995825c140b48459df684f152d1d6bcdabfb8c8b756ab",
    "md@4096/0": "c437e278d5490d38bcb9a06d4f639bc9a55cd2553a0f85ab90a18f6e7d151f42",
    "md@4096/1": "160a1b1638f97d8e7fc1020a40db800deab84e4678780add6c2963e6a867a61e",
    "stencil2d@64/0": "beab321071278349bdea8735bf0aa0178a2e1f17c3c223d2c9cb5b6faf260e34",
    "stencil2d@64/1": "d99b8ff8f7d0f16cf77641889327f4f848d1e5d79a4d9d1ebe099aa3a66a8d3f",
    "stencil2d@128/0": "d4728050b260739799a074d2b6bd9aafda25b0c33e7b512e226683f461e25f85",
    "stencil2d@128/1": "834700470ca02c2633e885f0f1a9883af0ed43b2de3644be73823011b864c773",
    "hotspot@64/0": "13b02b1787e3d8a130f860f7b25b9e70cfa7ec7e7cd6a82ce323c6af93f939ab",
    "hotspot@64/1": "cb8596e845fd8b39e8d7cbf2b6bf6470f5346db5b932209b85a8c6b5c30064c1",
    "hotspot@128/0": "8c3aa635b785ca8acc7405ca41fec435fe54d40944b85db85a4705bfc6de6b74",
    "hotspot@128/1": "d39ed6a9fdd0a1c8b74333528f06b2582df7ba518be1d9a04e8852c70de20822",
    "kmeans@1024/0": "f13971ea16838ca9fedc7720a23e91d722f4cfa494784995d9b1d25547567f78",
    "kmeans@1024/1": "652e4537f245ca049e038818cbcb71702331b72f1b19b4a4833d93e379172964",
    "kmeans@4096/0": "e08c012b47ae340e690a9fa7c1e49a933ea9f9757c41321103f9496caf0236ff",
    "kmeans@4096/1": "0e0b5974749851cdc8abd47601d3ae027fe4bdbdceeb4770253d5482974b927c",
    "nn@4096/0": "ddad66f75a5d3f2a283a5ab2352ab81e6ded14afdd5b2b8a994f598b8506c3f1",
    "nn@4096/1": "fcb5d0aa73a12b96419d68d992ddef065ac017b74531e9e4a82b20c9d597fd5c",
    "nn@16384/0": "d6be65919275519ada0f9863259559aba48131fd871d9ed0aff18e68c0412659",
    "nn@16384/1": "a188dbc7c1314dc83db0d9413062d658492dc5634e81654a9488ad5904608225",
    "srad@64/0": "faee4c25b91314b458597a41ab332e2d6e999ec052fd7e038db84979c44e935b",
    "srad@64/1": "3d283619122937c3a71b2f7da4bbe4e4dd0272397278542809c65dc66acb8234",
    "srad@128/0": "1d911ed8c22719218e0a5c003f3df05da2a211e32cc57a3a4157b629bc6361f4",
    "srad@128/1": "0c5b081a7ef8087380505501dbb3f0ee3dd17a32d54902412fe746a945236e72",
    "pathfinder@4096/0": "15e74e59cafa3d34bc760296a4b37c5c77e1a4678f17ad22166037bb02d3178d",
    "pathfinder@4096/1": "33c369b7298b1b09685c901e7a399ed3ece0f655ab90d4f9c1fa1d476da7b37f",
    "pathfinder@16384/0": "f8e8550902641b01ee30bf81a67ee619280c423d00808a10f59913a8916a7820",
    "pathfinder@16384/1": "4ea8a4406ef705c460ef9af9d6502f62cf1c132959a49893bd19de5add88ed17",
    "bfs@1024/0": "30d716dde07d35b0bd4b46ccc1f60e60aca0b7ea4461a0cfbc400ad89761446c",
    "bfs@1024/1": "1693b43fe1e9fa201b3adebbb93e8d6136653f975b93420040ed049d185b7021",
    "bfs@4096/0": "3e1c62b5e4d2e8887d8b85be7d395b25b711c12379b8883a46f914fef6c386cf",
    "bfs@4096/1": "77ab592e1aba24c4b608434af060ee2a7bff3edc5d89e5cedd5161f6c216f148",
    "backprop@1024/0": "3708c6b5d3d41aa8e5469c3020e8885211672a4ad01409c563cbb183252cedc9",
    "backprop@1024/1": "c8cb68628999a1b9625153bab58441001762e8c05c5b21ec4fbe9c98abf9bf97",
    "backprop@4096/0": "20b4964e56b4dec570fe7c1ba4efef8cb5246dc6711c0fc872603cd9ec39b4ba",
    "backprop@4096/1": "27a11cd70c9de89744bd8b9366d99784a9a520633cc293ba0cdd380cb1c71ed1",
    "conv2d@64/0": "7bfbcf4eb2795e21ebc047133ada301382fa3649e4a59e4156b488af61d078cc",
    "conv2d@64/1": "d3505e28cd98a98259c0227ce2e271e43826762ef48cacba8c38b3199837e0a7",
    "conv2d@128/0": "1286731ca83369ffad15a065c3016f31440504fc478fe0850e32257a453b09c1",
    "conv2d@128/1": "b4fe954feccdae47f8b1f64c33d8b1e654b384d44748952f1dace274d96e573c",
    "atax@128/0": "d19b2cc0f943acd16ab64ee72dce308f01430808aef9e1d95a99b764fc392ca4",
    "atax@128/1": "9b23eee7ced158f4b6976455d6f9664ea074eca15e63b012306143187b0bbd65",
    "atax@256/0": "e0a019492236765c83ac528e22f20ac0a4ed05447c16cce898e87b8ae30f257b",
    "atax@256/1": "63bb41373ad412edb82e50f0e8bf5c2bda8febdbc3916f7b00fa02357dadd494",
    "mvt@128/0": "631cfbea28f4fc07eae38d9dcbf563dc3a5a6ceb660295647fd7c73ab80423ac",
    "mvt@128/1": "0b08cff6f2d7d300b2f5743394141e2d04a96e4084e0c016e0d055df22865f1c",
    "mvt@256/0": "6232470ae500a8c2ea790db57db2b7ae9d72432bd2d96957a3a6e9b45e853cfc",
    "mvt@256/1": "54ff5a73b74e9c89907ef959ca88f0184aec2f7ccfa337d6e3d930e6c01dc2c7",
}
