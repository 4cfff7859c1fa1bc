"""The tabu and annealing solvers against reference copies of their plain
loops: the bit-identical assignment on every case, reported with its exact
energy.

The reference functions below evaluate each step with whole-vector numpy
operations: a full flip-delta vector, a full admissibility mask and a strided
column update per tabu iteration, and numpy scalars throughout the annealing
proposal loop.  The solvers take shortcuts around that work; these tests pin
that the shortcuts change no float operation and no random draw.  The
reference tabu search keeps the solver's stop rule, the first repeat of its
discrete state (assignment and remaining tenures) that Brent's cycle
detection finds, with a literal copy of the state at every mark; with
``stop=False`` it runs every requested iteration instead, and a 24-bit block
and the 48-bit two-interval model of the default configuration, and the
tie-heavy integer models, must give that full run's result too.  The tabu
tests also count the iterations the solver runs before it stops, at the
paper's scale too.  The reference annealer draws each sweep's proposals and
accept draws with one call each on its two random streams, where the solver
draws them in bulk chunks; the draw tests pin those chunks against per-sweep
numpy calls, and the chunk-size test pins that the chunking moves no result.
Exhaustive enumeration scores every assignment by a split product of the
two halves' bit tables, where its reference, the bit-table loop, scores each
one whole; on integer-valued models every sum is exact, so the two must
return the same assignment, ties included.
The overflow test runs both solvers on models whose sums overflow, dense
and banded: the annealer must reject a NaN exponent as the reference does,
and tabu's sign-form flip deltas must round as the reference's plain ones.
Both solvers also update only a flipped row's nonzero span, where the
references update whole vectors; the banded-model tests put -0.0 entries,
an all-zero row, a zero diagonal entry and a span away from its row's own
index in its way, and the span tests check that it engages at the paper's
scale and takes whole vectors on a dense model (the annealer's on its
Python loop).
The annealer runs its proposal loop in a C kernel when the kernel builds and
loads, and in Python otherwise.  The ``name`` fixture runs every annealing
test on both: "sa" on the kernel, skipped when it does not load, and
"sa-fallback" on the Python loop.  The loop-selection tests pin that every
model takes the kernel when it loads, and the span loop when it does not or
when no C compiler can build it.  The integer models on either side of the
limits of an earlier byte-table loop, up to the widest integers
``n**2 * max|Q| < 2**53`` admits, must give the reference's result as well.
"""

import math
import os
import sysconfig
import tempfile
from collections import deque
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpoqubo import backends
from dpoqubo.backends import SolveRequest, canonical_qubo, make_backend
from dpoqubo.bcd import extract_subproblem
from dpoqubo.model import DpoConfig
from dpoqubo.qubo import Qubo, _bit_table, qubo_energy

from support import bundled_model

_SA_COOLING = 0.97


def _flip_deltas(diag: np.ndarray, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Energy change of flipping each bit, given grad = Q @ x."""
    sign = 1.0 - 2.0 * x
    return sign * (diag + 2.0 * (grad - diag * x))


def reference_sa(q: Qubo, request: SolveRequest):
    """The plain annealing loop: per sweep, ``n`` proposals from the
    request's generator and ``n`` accept draws from its jump, made after the
    random start."""
    n = q.n
    rng = np.random.default_rng(request.seed)
    sweeps = request.effort or 200
    coeffs = q.coeffs
    diag = np.diag(coeffs)
    max_abs = float(np.abs(coeffs).max()) if n else 0.0

    x = rng.integers(0, 2, size=n).astype(float)
    accept_rng = np.random.Generator(rng.bit_generator.jumped())
    grad = coeffs @ x
    energy = float(x @ grad)
    best_energy, best_x = energy, x.copy()

    temperature = max(n * max_abs, 1e-12)
    for _ in range(sweeps):
        indices = rng.integers(0, n, size=n)
        accepts = accept_rng.random(size=n)
        for i, u in zip(indices, accepts):
            sign = 1.0 - 2.0 * x[i]
            delta = sign * (diag[i] + 2.0 * (grad[i] - diag[i] * x[i]))
            if delta <= 0.0 or u < math.exp(-delta / temperature):
                x[i] += sign
                grad += sign * coeffs[:, i]
                energy += delta
                if energy < best_energy:
                    best_energy, best_x = energy, x.copy()
        temperature *= _SA_COOLING
    return best_x, best_energy


def reference_tabu(q: Qubo, request: SolveRequest, stop=True):
    """The plain tabu loop.  With ``stop``, it marks its discrete state at
    the tops of iterations 1, 2, 4, 8, ... and ends at the top of the first
    iteration whose state equals the mark's; without, it runs every
    iteration."""
    n = q.n
    rng = np.random.default_rng(request.seed)
    iterations = request.effort or 100 * n
    tenure = max(7, n // 10)
    coeffs = q.coeffs
    diag = np.diag(coeffs)

    x = rng.integers(0, 2, size=n).astype(float)
    grad = coeffs @ x
    energy = float(x @ grad)
    best_energy, best_x = energy, x.copy()
    expires = np.zeros(n, dtype=np.int64)  # iteration at which tabu ends
    mark = None

    for it in range(iterations):
        state = (x.tobytes(), np.maximum(expires - it, 0).tobytes())
        if stop and state == mark:
            break
        if it & (it - 1) == 0 and it:
            mark = state
        deltas = _flip_deltas(diag, x, grad)
        admissible = (expires <= it) | (energy + deltas < best_energy - 1e-12)
        if not admissible.any():
            admissible[:] = True  # fully tabu: fall back to the plain best move
        masked = np.where(admissible, deltas, np.inf)
        i = int(np.argmin(masked))
        sign = 1.0 - 2.0 * x[i]
        x[i] += sign
        grad += sign * coeffs[:, i]
        energy += float(deltas[i])
        expires[i] = it + 1 + tenure
        if energy < best_energy:
            best_energy, best_x = energy, x.copy()
    return best_x, best_energy


_REFERENCES = {"sa": reference_sa, "tabu": reference_tabu}


@pytest.fixture(params=["sa", "sa-fallback", "tabu"])
def name(request, monkeypatch):
    """The backend a test solves with: "sa" anneals in the C kernel,
    "sa-fallback" in the Python span loop that runs when the kernel does not
    load, and "tabu" is tabu search."""
    if request.param == "sa" and backends._anneal_kernel() is None:
        pytest.skip("the C annealing kernel did not build or load")
    if request.param == "sa-fallback":
        monkeypatch.setattr(backends, "_anneal_kernel", lambda: None)
        return "sa"
    return request.param


def assert_matches_reference(name, model, seed, effort, **reference_options):
    request = SolveRequest(model, seed=seed, effort=effort)
    result = make_backend(name).solve(request)
    q = canonical_qubo(model)
    bits, _ = _REFERENCES[name](q, request, **reference_options)
    assert np.array_equal(result.assignment, bits.astype(np.int8))
    assert result.reported_energy == qubo_energy(q, bits)


def seeded_model(seed, n, kind):
    """A symmetric model: normal floats, or integers in -3..3, which tie
    heavily."""
    rng = np.random.default_rng(seed)
    if kind == "float":
        m = rng.normal(size=(n, n))
    else:
        m = rng.integers(-3, 4, size=(n, n)).astype(float)
    return Qubo(m + m.T, offset=float(rng.normal()))


@pytest.mark.parametrize("n", range(31))
def test_seeded_models(name, n):
    # tenure is 7 up to n = 79, so for n <= 7 every bit can be tabu at once
    for kind in ("float", "int"):
        model = seeded_model(1000 + n, n, kind)
        for seed, effort in ((n, None), (n + 1, 37)):
            if effort is not None and n == 0:
                continue  # the reference cannot search an empty model
            assert_matches_reference(name, model, seed, effort)


@st.composite
def symmetric_models(draw, max_n=10, floats_only=False, integers_only=False):
    n = draw(st.integers(0, max_n))
    if floats_only or (not integers_only and draw(st.booleans())):
        entry = st.floats(-50.0, 50.0, allow_nan=False, allow_subnormal=False)
    else:
        entry = st.integers(-2, 2).map(float)
    upper = np.zeros((n, n))
    iu = np.triu_indices(n)
    upper[iu] = draw(st.lists(entry, min_size=iu[0].size, max_size=iu[0].size))
    return Qubo(upper + np.triu(upper, 1).T)


# the name fixture sets which loop anneals once per test, for every example
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    model=symmetric_models(),
    seed=st.integers(0, 2**16),
    effort=st.one_of(st.none(), st.integers(1, 80)),
)
def test_drawn_models(name, model, seed, effort):
    if effort is not None and model.n == 0:
        effort = None  # the reference cannot search an empty model
    assert_matches_reference(name, model, seed, effort)


@pytest.mark.parametrize("n", [12, 30])
def test_tie_heavy_models_at_long_effort(n):
    # integer energies repeat exactly, so tabu stops mid-run, where running
    # every iteration would only retrace its cycle
    model = seeded_model(2000 + n, n, "int")
    for seed in range(3):
        assert_matches_reference("tabu", model, seed, 20 * 100 * n, stop=False)


@contextmanager
def logging_tabu():
    """``plain`` counts the iterations that tabu searches inside the block
    run, as the appends to their recent-flips deque, one per iteration."""
    log = SimpleNamespace(plain=0)

    class CountingDeque(deque):
        def append(self, bit):
            log.plain += 1
            super().append(bit)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(backends, "deque", CountingDeque)
        yield log


@pytest.fixture
def tabu_log():
    with logging_tabu() as log:
        yield log


def assert_tabu_stops_early(model, seed, effort, log):
    """The solver's result is the stopping reference's, and the solver ran
    fewer iterations than ``effort`` to get it."""
    plain = log.plain
    assert_matches_reference("tabu", model, seed, effort)
    assert 0 < log.plain - plain < effort


@pytest.mark.parametrize("n", [12, 24, 30, 48])
def test_float_models_at_long_effort(n, tabu_log):
    # float energies drift around a cycle, and tabu stops at its first
    # repeat of the assignment and the tenures all the same
    model = seeded_model(2000 + n, n, "float")
    for seed in range(3):
        assert_tabu_stops_early(model, seed, 20 * 100 * n, tabu_log)


@settings(max_examples=40, deadline=None)
@given(
    model=symmetric_models(max_n=24, floats_only=True),
    seed=st.integers(0, 2**16),
    effort=st.integers(1, 2000),
)
def test_drawn_float_models_at_long_effort(model, seed, effort):
    if model.n:
        assert_matches_reference("tabu", model, seed, effort)


@pytest.fixture(scope="module")
def paper_block():
    """A 24-bit zero-context block of the default configuration's model on
    the bundled prices."""
    q = bundled_model(DpoConfig())
    return extract_subproblem(q, np.zeros(q.n, dtype=np.int8), 5)


def at_precision(model, precision):
    """The model itself, or the int8 image the adapter hands its solver."""
    return make_backend("int8(tabu)").quantize(model) if precision == "int8" else model


@pytest.mark.parametrize("precision", ["fp", "int8"])
def test_paper_block(paper_block, name, precision):
    # a block of the paper-scale model, as the benchmark solves: tabu's
    # stop must not move it, so its result is that of running every iteration
    assert paper_block.n == 24
    model = at_precision(paper_block, precision)
    seeds, options = (range(8), {"stop": False}) if name == "tabu" else ((0, 7), {})
    for seed in seeds:
        assert_matches_reference(name, model, seed, None, **options)


def test_tabu_stops_at_a_repeated_state(paper_block, tabu_log):
    model = at_precision(paper_block, "int8")
    make_backend("tabu").solve(SolveRequest(model, seed=0))
    assert 0 < tabu_log.plain < 100 * paper_block.n // 4


def test_tabu_stops_at_float_cycles(paper_block, tabu_log):
    # the float block's floats drift around its cycles, and each search
    # stops at its first discrete repeat within a tenth of its iterations
    for seed in range(4):
        assert_tabu_stops_early(paper_block, seed, 100 * paper_block.n // 10, tabu_log)


@pytest.mark.parametrize("precision", ["fp", "int8"])
def test_two_interval_model(precision):
    q = bundled_model(DpoConfig(n_t=2))
    assert q.n == 48
    model = at_precision(q, precision)
    for seed in range(3):
        assert_matches_reference("tabu", model, seed, None, stop=False)


def banded_model(seed, blocks, width, kind):
    """A block-tridiagonal model of ``blocks`` blocks of ``width`` bits, as
    the DPO QUBO couples only adjacent time intervals: the entries of
    ``seeded_model``, -0.0 off the band, one all-zero row and column, one
    zero diagonal entry, and one row whose nonzeros lie in the next block
    only, away from its own index."""
    n = blocks * width
    rng = np.random.default_rng(seed)
    seeded = seeded_model(seed, n, kind)
    m = seeded.coeffs.copy()
    block = np.arange(n) // width
    m[np.abs(block[:, None] - block) > 1] = -0.0
    zero, flat, away = rng.choice(n - width, size=3, replace=False)
    m[zero, :] = m[:, zero] = 0.0
    m[flat, flat] = 0.0
    m[away, block <= block[away]] = m[block <= block[away], away] = 0.0
    return Qubo(m, offset=seeded.offset)


@pytest.mark.parametrize("blocks", [3, 4, 6])
def test_banded_models(name, blocks):
    # a flip updates only its row's nonzero span, which is narrower than
    # the model from 3 blocks on; the float and the tie-heavy integer
    # entries must both give the reference's full-row result
    for width in range(2, 7):
        for kind in ("float", "int"):
            model = banded_model(100 * blocks + width, blocks, width, kind)
            lo, hi = backends._row_spans(model.coeffs)
            assert (hi - lo).min() < model.n
            for seed, effort in ((width, None), (width + 1, 37)):
                assert_matches_reference(name, model, seed, effort)


@pytest.fixture(scope="module")
def paper_models():
    """The default configuration's 528-bit model on the bundled prices and
    its int8 image, by precision."""
    q = bundled_model(DpoConfig())
    return {"fp": q, "int8": at_precision(q, "int8")}


@pytest.mark.parametrize("precision", ["fp", "int8"])
@pytest.mark.parametrize(
    "name, effort", [("sa", 8), ("sa-fallback", 8), ("tabu", 1500)], indirect=["name"]
)
def test_paper_model_at_reduced_effort(paper_models, name, effort, precision):
    # request seed 20000 is the paper-scale benchmark's fp tabu solve at its seed 0
    for seed in (0, 20000):
        assert_matches_reference(name, paper_models[precision], seed, effort)


def test_paper_model_tabu_stops_at_its_first_cycle(paper_models, tabu_log):
    # the paper-scale benchmark's fp tabu solve, at its default 52,800
    # iterations, stops at its first discrete repeat after 2,480
    q = paper_models["fp"]
    make_backend("tabu").solve(SolveRequest(q, seed=20000))
    assert 0 < tabu_log.plain < 10 * q.n


def test_banded_float_model_at_long_effort(tabu_log):
    # a banded float model's span loop stops at a discrete repeat too
    model = banded_model(14, 5, 6, "float")
    for seed in range(3):
        assert_tabu_stops_early(model, seed, 200 * model.n, tabu_log)


@contextmanager
def recording_span_views():
    """A list that gets, per solve, the span views it builds: per row, the
    flipped row's span and then the vectors a flip updates, cut to it.  The
    annealer builds them on its Python loop, so the C kernel is off."""
    built, span_views = [], backends._span_views

    def recording(*args):
        built.append(span_views(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(backends, "_span_views", recording)
        monkeypatch.setattr(backends, "_anneal_kernel", lambda: None)
        yield built


@pytest.mark.parametrize("precision", ["fp", "int8"])
def test_paper_model_flips_update_row_spans(paper_models, precision):
    # the default model couples adjacent intervals only, so no span is wider
    # than three 24-bit interval blocks (52 columns at most on the float
    # model, 49 on its int8 image), not the 528 of a full-length update
    q = canonical_qubo(paper_models[precision])
    with recording_span_views() as built:
        for name in ("sa", "tabu"):
            make_backend(name).solve(SolveRequest(q, seed=0, effort=1))
    assert [len(views) for views in built] == [q.n, q.n]
    assert max(v.size for views in built for span in views for v in span) <= 3 * 24


@pytest.mark.parametrize("name", ["sa", "tabu"])
def test_dense_rows_update_whole_vectors(name):
    # a span over every column takes the row whole and builds no views of
    # the vectors: every row shares the same whole vectors
    model = seeded_model(3, 20, "float")
    with recording_span_views() as built:
        make_backend(name).solve(SolveRequest(model, seed=0, effort=5))
    (views,) = built
    assert all(span[0].size == model.n for span in views)
    whole = views[0][1:]
    assert all(v.size == model.n for v in whole)
    assert all(v is w for span in views for v, w in zip(span[1:], whole))


def wide_integer_model(seed, n, top):
    """A symmetric model of integers drawn from ``-top..top``, with ``-top``
    at ``[0, 1]`` and ``[1, 0]``, so that ``max|Q|`` is ``top``."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(-top, top + 1, size=(n, n))).astype(float)
    m = upper + np.triu(upper, 1).T
    m[0, 1] = m[1, 0] = -top
    return Qubo(m)


# integer models by id, on either side of the limits of an earlier loop that
# annealed integer models from byte tables: every n on either side of a byte
# boundary and of 24 bits, and at 16 bits the widest integers under the
# bound n**2 * max|Q| < 2**53, 2**45 - 1, and on it, 2**45
_INTEGER_MODELS = {
    **{f"int-{n}": (lambda n=n: seeded_model(5000 + n, n, "int")) for n in (1, 7, 8, 9, 16, 17, 23, 24, 25)},
    "wide-16": lambda: wide_integer_model(16, 16, 2**45 - 1),
    "wide-16-at-bound": lambda: wide_integer_model(16, 16, 2**45),
}


def sa_loops_run(model, kernel):
    """The loops one annealing solve runs when ``_anneal_kernel()`` gives
    ``kernel``: "kernel" per call of it and "spans" per span-view build."""
    ran, span_views = [], backends._span_views

    def recording_kernel(*args):
        ran.append("kernel")
        return kernel(*args)

    def spans(*args):
        ran.append("spans")
        return span_views(*args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(backends, "_anneal_kernel", lambda: kernel and recording_kernel)
        monkeypatch.setattr(backends, "_span_views", spans)
        make_backend("sa").solve(SolveRequest(model, seed=0, effort=1))
    return ran


@pytest.mark.parametrize("case", [*_INTEGER_MODELS, "paper-block-fp", "paper-block-int8"])
def test_sa_loop_selection(paper_block, case):
    # integer or float, every model anneals in one kernel call when the
    # kernel loads, and on span views when it does not
    if case.startswith("paper-block-"):
        model = at_precision(paper_block, case.removeprefix("paper-block-"))
    else:
        model = _INTEGER_MODELS[case]()
    assert sa_loops_run(model, None) == ["spans"]
    kernel = backends._anneal_kernel()
    if kernel is not None:
        assert sa_loops_run(model, kernel) == ["kernel"]


def test_an_unusable_compiler_leaves_the_span_loop(monkeypatch):
    # the kernel is built once per process: the cache is cleared so that
    # this call builds it with a compiler that does not exist, and cleared
    # again after, so that the next call builds it with the real one
    monkeypatch.setattr(sysconfig, "get_config_var", lambda key: "/nonexistent/bin/cc")
    backends._anneal_kernel.cache_clear()
    try:
        assert backends._anneal_kernel() is None
        for n in (1, 9, 24):
            assert_matches_reference("sa", seeded_model(6000 + n, n, "float"), n, None)
    finally:
        backends._anneal_kernel.cache_clear()


def test_the_kernel_build_leaves_no_files(monkeypatch):
    made = []

    class RecordedDirectory(tempfile.TemporaryDirectory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self.name)

    monkeypatch.setattr(tempfile, "TemporaryDirectory", RecordedDirectory)
    backends._anneal_kernel.cache_clear()
    try:
        kernel = backends._anneal_kernel()
    finally:
        backends._anneal_kernel.cache_clear()
    if kernel is None:
        pytest.skip("the C annealing kernel did not build or load")
    (directory,) = made
    assert not os.path.exists(directory)


@pytest.mark.parametrize("case", _INTEGER_MODELS)
def test_integer_models_either_side_of_the_table_limits(name, case):
    # the running gradient holds exact integers, up to the widest the old
    # table bound admitted, and past it
    model = _INTEGER_MODELS[case]()
    for seed, effort in ((model.n, None), (model.n + 1, 37)):
        assert_matches_reference(name, model, seed, effort)


def assert_sweep_draws_match(seed, n, sweeps, start=0):
    """The solver's bulk draws equal per-sweep calls on twin generators,
    after a ``_random_start``-like draw of ``start`` bits, and leave both
    streams in the same state."""
    bulk, calls = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (bulk, calls):
        rng.integers(0, 2, size=start)
    bulk_accepts, call_accepts = (
        np.random.Generator(rng.bit_generator.jumped()) for rng in (bulk, calls)
    )
    per_sweep = [
        (calls.integers(0, n, size=n).tolist(), call_accepts.random(size=n).tolist())
        for _ in range(sweeps)
    ]
    chunks = backends._draw_chunks(bulk, bulk_accepts, n, sweeps)
    assert [(i.tolist(), u.tolist()) for c in chunks for i, u in zip(*c)] == per_sweep
    assert bulk.bit_generator.state == calls.bit_generator.state
    assert bulk_accepts.bit_generator.state == call_accepts.bit_generator.state


@pytest.mark.parametrize("start", [0, 5])  # an odd start leaves a half-word carried
@pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 48, 528])
def test_sweep_draws_match_per_sweep_calls(n, start):
    # 200 sweeps span 3 chunks at n = 24, 5 at 48 and 67 at 528; at n = 1
    # the index draws draw nothing
    assert_sweep_draws_match(n, n, 200, start)


def test_sweep_draws_carry_a_half_word_across_chunks():
    # an odd n flips the carried half every sweep; 3000 sweeps are 11 chunks
    assert backends._SA_DRAW_CHUNK // 7 < 1500
    assert_sweep_draws_match(11, 7, 3000, start=3)


_CHUNKS = [1, 7, 168, 10**6]


@pytest.mark.parametrize(
    "name, chunk",
    [*(("sa", c) for c in _CHUNKS), *(("sa-fallback", c) for c in _CHUNKS)],
    ids=[*map(str, _CHUNKS), *(f"fallback-{c}" for c in _CHUNKS)],
    indirect=["name"],
)
def test_sa_result_does_not_depend_on_the_chunk_size(
    paper_block, paper_models, name, chunk, monkeypatch
):
    # a chunk holds whole sweeps, at least one: 1 and 7 draw one sweep per
    # chunk, 168 draws 7 of the block's 24-bit sweeps per chunk and a short
    # last chunk, and 10**6 draws every sweep in one chunk.  The default
    # draws 85 block sweeps, or 3 of the 528-bit model's, per chunk
    cases = [(at_precision(paper_block, p), seed, None) for p in ("fp", "int8") for seed in (0, 7)]
    cases.append((paper_models["fp"], 20000, 20))
    expected = [make_backend(name).solve(SolveRequest(m, seed=s, effort=e)) for m, s, e in cases]
    monkeypatch.setattr(backends, "_SA_DRAW_CHUNK", chunk)
    for (model, seed, effort), want in zip(cases, expected):
        result = make_backend(name).solve(SolveRequest(model, seed=seed, effort=effort))
        assert np.array_equal(result.assignment, want.assignment)
        assert result.reported_energy == want.reported_energy


def overflowing_model(seed, band):
    """Entries of +-1e308 on 6 dense bits, or, with ``band``, on the block
    tridiagonal band of 3 blocks of 3 bits, 0.0 off it."""
    n = 9 if band else 6
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.choice([-1e308, 1e308], size=(n, n)))
    if band:
        block = np.arange(n) // 3
        upper[np.abs(block[:, None] - block) > 1] = 0.0
    return Qubo(upper + np.triu(upper, 1).T)


@pytest.mark.parametrize("band", [True, False], ids=["band", "no-band"])
def test_overflowing_models(name, band):
    # sa: t0 = 6 * 1e308 overflows to inf, so -delta / t0 is -0.0 for a
    # finite delta and NaN for an infinite one, and accepting that NaN moves
    # the result.  tabu: 2 * (grad - diag * x) overflows, and a doubled
    # gradient would not round as the plain loop's does.  A start whose
    # matrix-vector product sums inf - inf has NaN gradient entries, so NaN
    # deltas, but also a NaN energy, which keeps the start as the best
    # assignment whatever is flipped.  On the band a flip updates only its
    # row's nonzero span, so the infinities the reference adds as whole rows
    # reach the solver's gradient span by span
    with np.errstate(all="ignore"):
        for seed in range(40):
            model = overflowing_model(seed, band)
            lo, hi = backends._row_spans(model.coeffs)
            assert ((hi - lo).min() < model.n) == band
            request = SolveRequest(model, seed=seed)
            result = make_backend(name).solve(request)
            q = canonical_qubo(model)
            bits, _ = _REFERENCES[name](q, request)
            assert np.array_equal(result.assignment, bits.astype(np.int8))
            assert np.array_equal(result.reported_energy, qubo_energy(q, bits), equal_nan=True)


# ---------------------------------------------------------------------------
# exhaustive enumeration

def reference_exhaustive(q: Qubo) -> np.ndarray:
    """The bit-table loop: every assignment scored whole, 65,536 at a time,
    keeping the first strict improvement in ascending counter order."""
    n, chunk = q.n, 1 << 16
    total = 1 << n
    best_energy, best_counter = np.inf, 0
    for lo in range(0, total, chunk):
        bits = _bit_table(lo, min(lo + chunk, total), n).astype(float)
        energies = ((bits @ q.coeffs) * bits).sum(axis=1)
        k = int(np.argmin(energies))
        if energies[k] < best_energy:
            best_energy, best_counter = float(energies[k]), lo + k
    return _bit_table(best_counter, best_counter + 1, n)[0]


def assert_exhaustive_matches_reference(model, chunk=None):
    """Equal assignments, with the solver scoring ``chunk`` assignments at a
    time (at least one high-half row); small chunks carry the tie rule
    across chunks."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if chunk is not None:
            monkeypatch.setattr(backends, "_EXHAUSTIVE_CHUNK", chunk)
        result = make_backend("exhaustive").solve(SolveRequest(model))
    q = canonical_qubo(model)
    bits = reference_exhaustive(q)
    assert np.array_equal(result.assignment, bits)
    assert result.reported_energy == qubo_energy(q, bits)


@pytest.mark.parametrize("chunk", [1, 64, None])
@pytest.mark.parametrize("n", range(1, 17))
def test_exhaustive_on_integer_models(n, chunk):
    for seed in (3000 + n, 4000 + n):
        assert_exhaustive_matches_reference(seeded_model(seed, n, "int"), chunk)


@settings(max_examples=80, deadline=None)
@given(
    model=symmetric_models(max_n=16, integers_only=True),
    chunk=st.sampled_from([1, 64, None]),
)
def test_exhaustive_on_drawn_tie_heavy_models(model, chunk):
    assert_exhaustive_matches_reference(model, chunk)


@pytest.mark.parametrize("block", [2, 9, 17])
def test_exhaustive_on_int8_paper_blocks(paper_models, block):
    # a 24-bit block of the paper-scale model in a random context, as its
    # int8 image: the split product must pick the bit-table loop's minimizer
    q = paper_models["fp"]
    x = np.random.default_rng(block).integers(0, 2, size=q.n)
    model = at_precision(extract_subproblem(q, x, block), "int8")
    assert model.n == 24
    assert_exhaustive_matches_reference(model)
