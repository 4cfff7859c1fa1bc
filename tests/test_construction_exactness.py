"""The model constructions against reference copies of the code they replaced.

The QUBO encoder writes ``Q = M ⊗ pp' + diag(c ⊗ p)`` with one Kronecker
product and an in-place diagonal add; its reference builds the expansion
matrix ``E`` (``omega = E @ x``), the products ``E' M E`` and ``diag(E' c)``,
and symmetrises their sum.  Both reach every entry as ``M[i, j] * p_r * p_s``
(the reference through added exact zeros), so the matrices must be equal
byte for byte.

The conversions and the block extraction add or remove a diagonal in place,
where their references add or subtract an ``np.diag`` matrix.  That can
change only the sign of an off-diagonal zero, so the results must be equal
in value and score every assignment to the same energy.

Tuning sorts the distinct coupling values once per call, where its reference
joins the fields to every coupling for each candidate move; the range and
both move rules read only the set of values, so the steps must be equal.

The encoder writes its Kronecker product through ``np.multiply`` into a
4-D view of an owned n x n buffer; ``np.kron`` performs the same
multiplication, so the bytes above pin that too.

Every builder hands its fresh matrix to the model read-only, and the model
keeps it instead of copying it, as does a ``dataclasses.replace`` copy.  So
on the default 528-bit model the encoder and both conversions peak at no
more than 1.3 matrices of ``n * n`` floats, and tuning, whose candidates
share the couplings, at no more than 1.5.  A quantized model built from
int8 arrays checks them as int8 and peaks below half a matrix of floats.
"""

import tracemalloc
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpoqubo import qubo as qubo_module
from dpoqubo.bcd import extract_subproblem
from dpoqubo.model import (
    Covariance,
    DpoConfig,
    Semicovariance,
    Shrinkage,
    _weight_space_form,
    encode_qubo,
    resolved_rho,
    risk_matrices,
)
from dpoqubo.planted import make_scale_separated_qubo
from dpoqubo.precision import (
    QuantizedIsing,
    TuningResult,
    TuningStep,
    _MinimizerCheck,
    _shrink_extreme_moves,
    _upper_triangle,
    _widen_gap_moves,
    dynamic_range,
    quantize_int8,
    reduce_dynamic_range,
)
from dpoqubo.qubo import (
    BlockPartition,
    IsingModel,
    Qubo,
    ising_energy,
    ising_to_qubo,
    qubo_energies,
    qubo_to_ising,
)
from dpoqubo.serialize import dump_model, parse_model

from support import bundled_panel, random_panel


# ---------------------------------------------------------------------------
# reference constructions

def _expansion_bit_expand(config, m, c, const):
    """The QUBO through the expansion matrix ``E``, symmetrised."""
    powers = 2.0 ** np.arange(config.n_r)
    expand = np.kron(np.eye(config.n_t * config.n_a), powers[None, :])
    coeffs = expand.T @ m @ expand + np.diag(expand.T @ c)
    return Qubo.from_dense(coeffs, offset=const, partition=config.partition())


def _encode_reference(config, panel, risks):
    rho = resolved_rho(config, panel)
    m, c = _weight_space_form(config, panel.interval_returns, risks, [rho] * config.n_t)
    return _expansion_bit_expand(config, m, c, const=rho * config.budget**2 * config.n_t)


def _qubo_to_ising_reference(q):
    c = q.coeffs
    quadratic = c / 2.0
    quadratic = quadratic - np.diag(np.diag(quadratic))
    linear = -c.sum(axis=1) / 2.0
    offset = q.offset + (float(c.sum()) + float(np.trace(c))) / 4.0
    return IsingModel(linear=linear, quadratic=quadratic, offset=offset, partition=q.partition)


def _ising_to_qubo_reference(m):
    j = m.quadratic
    diag = -2.0 * m.linear - 2.0 * j.sum(axis=1)
    offset = m.offset + float(m.linear.sum()) + float(j.sum()) / 2.0
    return Qubo(2.0 * j + np.diag(diag), offset=offset, partition=m.partition)


def _extract_reference(q, x, i):
    sl = q.partition.block_slice(i)
    masked = np.asarray(x, dtype=float)
    masked[sl] = 0.0
    induced = 2.0 * (q.coeffs[sl, :] @ masked)
    return Qubo(q.coeffs[sl, sl] + np.diag(induced))


def _full_list_tuning(model, budget=100):
    """``reduce_dynamic_range`` joining the fields to every coupling."""
    couplings = _upper_triangle(model.quadratic).astype(float)
    check = None
    current = model
    steps = []
    while len(steps) < budget:
        values = np.concatenate([current.linear, couplings])
        before = dynamic_range(values)
        if before.degenerate:
            break
        moves = chain(_shrink_extreme_moves(current, values), _widen_gap_moves(current, values))
        for kind, index, new_value in moves:
            linear = current.linear.astype(float)
            linear[index] = new_value
            after = dynamic_range(np.concatenate([linear, couplings]))
            if after.bits >= before.bits:
                continue
            candidate = replace(current, linear=linear)
            if check is None:
                check = _MinimizerCheck(model)
            if not check.passes(candidate):
                continue
            steps.append(
                TuningStep(
                    entry=("h", index),
                    old_value=float(current.linear[index]),
                    new_value=new_value,
                    bits_before=before.bits,
                    bits_after=after.bits,
                    kind=kind,
                )
            )
            current = candidate
            break
        else:
            break
    return TuningResult(model=current, steps=tuple(steps))


# ---------------------------------------------------------------------------
# models

def _default_config_and_panel():
    config = DpoConfig()
    return config, bundled_panel(config)


def _assert_same_bytes(got: Qubo, want: Qubo):
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert got.offset == want.offset
    assert got.partition == want.partition


def _symmetric(rng, n, draw):
    """A drawn matrix with its upper triangle mirrored below; a sum such as
    ``m + m.T`` would turn each ``-0.0`` into ``+0.0``."""
    m = draw(rng, (n, n))
    return np.where(np.tri(n, dtype=bool), m.T, m)


def _normal(rng, shape):
    return rng.normal(size=shape)


def _int8(rng, shape):
    return rng.integers(-128, 128, size=shape).astype(float)


def _signed_zeros(rng, shape):
    """Normal values, about half of them replaced by ``-0.0``."""
    values = rng.normal(size=shape)
    values[rng.random(shape) < 0.5] = -0.0
    return values


DRAWS = {"float": _normal, "int8": _int8, "signed-zero": _signed_zeros}


def seeded_qubo(seed, kind):
    """A block-partitioned QUBO of 2 to 40 variables."""
    rng = np.random.default_rng(seed)
    partition = BlockPartition.from_sizes(rng.integers(1, 9, size=int(rng.integers(1, 6))))
    coeffs = _symmetric(rng, partition.n, DRAWS[kind])
    return Qubo(coeffs, offset=float(rng.normal()), partition=partition)


def seeded_ising(seed, kind):
    """An Ising model of 1 to 40 spins; int8 ones are ``QuantizedIsing``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 41))
    draw = DRAWS[kind]
    quadratic = _symmetric(rng, n, draw)
    np.fill_diagonal(quadratic, 0.0)
    if kind == "int8":
        return QuantizedIsing(linear=draw(rng, n), quadratic=quadratic, scale=2.0)
    return IsingModel(linear=draw(rng, n), quadratic=quadratic, offset=float(rng.normal()))


def field_led_ising(seed, kind):
    """An Ising model of 4 to 40 spins whose fields outweigh its couplings,
    which take at most 7 distinct values, so that tuning takes steps; int8
    ones are ``QuantizedIsing``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 41))
    quadratic = _symmetric(rng, n, lambda r, shape: r.integers(-3, 4, size=shape).astype(float))
    np.fill_diagonal(quadratic, 0.0)
    if kind == "int8":
        linear = _int8(rng, n)
        return QuantizedIsing(linear=linear, quadratic=quadratic, scale=2.0)
    linear = 4.0 * n * rng.normal(size=n)
    return IsingModel(linear=linear, quadratic=rng.uniform(0.5, 1.0) * quadratic)


def _bits(seed, n, count=32):
    return np.random.default_rng(seed).integers(0, 2, size=(count, n))


def _assert_same_qubo_values(got: Qubo, want: Qubo, seed):
    assert np.array_equal(got.coeffs, want.coeffs)
    assert got.offset == want.offset
    assert got.partition == want.partition
    xs = _bits(seed, got.n)
    assert np.array_equal(qubo_energies(got, xs), qubo_energies(want, xs))


def _assert_same_ising_values(got: IsingModel, want: IsingModel, seed):
    assert np.array_equal(got.linear, want.linear)
    assert np.array_equal(got.quadratic, want.quadratic)
    assert got.offset == want.offset
    assert got.partition == want.partition
    for z in 1 - 2 * _bits(seed, got.n):
        assert ising_energy(got, z) == ising_energy(want, z)


# ---------------------------------------------------------------------------
# the encoder

risk_kinds = st.sampled_from([Covariance(), Semicovariance(0.001), Shrinkage()])
rate = st.floats(0.0, 10.0)


@st.composite
def small_configs(draw):
    n_t, n_a, n_r = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return DpoConfig(
        n_t=n_t,
        n_a=n_a,
        n_r=n_r,
        budget=draw(st.integers(0, n_a * (2**n_r - 1))),
        nu=draw(rate),
        lam=draw(rate),
        rho=draw(st.none() | rate),
        gamma=draw(rate),
        dt=draw(st.integers(2, 8)),
        risk=draw(risk_kinds),
    )


@settings(deadline=None, max_examples=60)
@given(small_configs(), st.integers(0, 2**32 - 1))
def test_encoded_qubo_equals_the_expansion_matrix_product(config, seed):
    panel = random_panel(seed, config.n_t, config.n_a, dt=config.dt)
    risks = risk_matrices(config, panel)
    _assert_same_bytes(encode_qubo(config, panel, risks), _encode_reference(config, panel, risks))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("shape", [(3, 2, 2), (4, 2, 3), (2, 4, 4)], ids=str)
def test_scale_separated_qubo_equals_the_expansion_matrix_product(seed, shape):
    n_t, n_a, n_r = shape
    inst = make_scale_separated_qubo(seed, n_t=n_t, n_a=n_a, n_r=n_r)
    m, c = _weight_space_form(inst.config, inst.interval_returns, None, inst.rho_schedule)
    want = _expansion_bit_expand(inst.config, m, c, inst.qubo.offset)
    _assert_same_bytes(inst.qubo, want)


def test_default_model_equals_the_expansion_matrix_product():
    config, panel = _default_config_and_panel()
    risks = risk_matrices(config, panel)
    got = encode_qubo(config, panel, risks)
    assert got.n == 528
    _assert_same_bytes(got, _encode_reference(config, panel, risks))


# ---------------------------------------------------------------------------
# the conversions and the block extraction

@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", list(DRAWS))
def test_qubo_to_ising_equals_the_diag_form(seed, kind):
    q = seeded_qubo(seed, kind)
    _assert_same_ising_values(qubo_to_ising(q), _qubo_to_ising_reference(q), seed)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", list(DRAWS))
def test_ising_to_qubo_equals_the_diag_form(seed, kind):
    m = seeded_ising(seed, kind)
    _assert_same_qubo_values(ising_to_qubo(m), _ising_to_qubo_reference(m), seed)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", list(DRAWS))
def test_extract_subproblem_equals_the_diag_form(seed, kind):
    q = seeded_qubo(seed, kind)
    x = _bits(seed + 1, q.n, count=1)[0]
    for i in range(len(q.partition)):
        _assert_same_qubo_values(extract_subproblem(q, x, i), _extract_reference(q, x, i), seed)


def test_conversions_and_extraction_on_the_default_model():
    config, panel = _default_config_and_panel()
    q = encode_qubo(config, panel)
    ising = qubo_to_ising(q)
    _assert_same_ising_values(ising, _qubo_to_ising_reference(q), 0)
    image = quantize_int8(ising)
    _assert_same_qubo_values(ising_to_qubo(ising), _ising_to_qubo_reference(ising), 1)
    _assert_same_qubo_values(ising_to_qubo(image), _ising_to_qubo_reference(image), 2)
    x = _bits(3, q.n, count=1)[0]
    for i in (0, 11, 21):
        _assert_same_qubo_values(extract_subproblem(q, x, i), _extract_reference(q, x, i), i)


def test_signed_zero_off_the_diagonal_keeps_its_value():
    # the in-place add leaves an off-diagonal -0.0 as -0.0 where the np.diag
    # sum wrote +0.0; only the sign of that zero differs
    m = IsingModel(linear=[1.0, -1.0], quadratic=[[0.0, -0.0], [-0.0, 0.0]])
    got, want = ising_to_qubo(m), _ising_to_qubo_reference(m)
    assert np.array_equal(got.coeffs, want.coeffs)
    assert np.signbit(got.coeffs[0, 1]) and not np.signbit(want.coeffs[0, 1])


# ---------------------------------------------------------------------------
# tuning

@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("kind", list(DRAWS))
def test_tuning_steps_equal_the_full_coupling_list(seed, kind):
    m = seeded_ising(seed, kind)
    got, want = reduce_dynamic_range(m), _full_list_tuning(m)
    assert got.steps == want.steps
    assert got.model.linear.tobytes() == want.model.linear.tobytes()


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("kind", ["float", "int8"])
def test_tuning_steps_equal_on_field_led_models(seed, kind):
    m = field_led_ising(seed, kind)
    got, want = reduce_dynamic_range(m), _full_list_tuning(m)
    assert got.steps and got.steps == want.steps
    assert got.model.linear.tobytes() == want.model.linear.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_tuning_steps_equal_on_encoded_blocks(seed):
    # the 24-spin blocks the int8 block cells tune, with repeated couplings
    config, panel = _default_config_and_panel()
    q = encode_qubo(config, panel)
    x = _bits(seed, q.n, count=1)[0]
    m = qubo_to_ising(extract_subproblem(q, x, 3 * seed))
    got, want = reduce_dynamic_range(m), _full_list_tuning(m)
    assert got.steps and got.steps == want.steps


def test_tuning_steps_equal_on_the_528_spin_model():
    config, panel = _default_config_and_panel()
    m = qubo_to_ising(encode_qubo(config, panel))
    got, want = reduce_dynamic_range(m), _full_list_tuning(m)
    assert got.steps == want.steps
    assert got.model.linear.tobytes() == want.model.linear.tobytes()


# ---------------------------------------------------------------------------
# allocation

def _peak_bytes(call, *args):
    """Peak traced allocation of ``call(*args)`` above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def test_encoder_and_conversion_build_only_their_result():
    config, panel = _default_config_and_panel()
    risks = risk_matrices(config, panel)
    unit = config.n**2 * 8
    q, encode_peak = _peak_bytes(encode_qubo, config, panel, risks)
    ising, to_ising_peak = _peak_bytes(qubo_to_ising, q)
    _, to_qubo_peak = _peak_bytes(ising_to_qubo, ising)
    for peak in (encode_peak, to_ising_peak, to_qubo_peak):
        assert peak <= 1.3 * unit, peak / unit


def test_int8_arrays_build_a_quantized_model_without_widening():
    config, panel = _default_config_and_panel()
    image = quantize_int8(qubo_to_ising(encode_qubo(config, panel)))
    args = (image.linear, image.quadratic)
    kwargs = {"scale": image.scale, "partition": image.partition}
    rebuilt, peak = _peak_bytes(lambda: QuantizedIsing(*args, **kwargs))
    assert rebuilt.quadratic is image.quadratic
    # a float64 copy of the couplings alone would be one matrix
    assert peak < 0.5 * config.n**2 * 8, peak / (config.n**2 * 8)


def test_tuning_candidates_share_the_couplings():
    config, panel = _default_config_and_panel()
    ising = qubo_to_ising(encode_qubo(config, panel))
    # a first call in a process also imports modules numpy loads lazily
    # (about 0.5 more matrices' worth), so the bound is for a later call; a
    # candidate that copied the couplings would add one matrix
    reduce_dynamic_range(ising)
    result, peak = _peak_bytes(reduce_dynamic_range, ising)
    assert result.steps
    assert peak <= 1.5 * config.n**2 * 8, peak / (config.n**2 * 8)


# ---------------------------------------------------------------------------
# hand-over

@pytest.fixture
def kept_log(monkeypatch):
    """One entry per matrix a model is built from: True when the model kept
    the matrix it was given, False when it copied it."""
    log = []
    frozen_matrix = qubo_module._frozen_matrix

    def logged(m, name, partition):
        out = frozen_matrix(m, name, partition)
        log.append(out is m)
        return out

    monkeypatch.setattr(qubo_module, "_frozen_matrix", logged)
    return log


def _handover_cases():
    """Each builder and its arguments, made before the log is read."""
    config = DpoConfig(n_t=2, n_a=2, n_r=3, budget=5, dt=6)
    q = seeded_qubo(1, "float")
    ising, image = seeded_ising(2, "float"), seeded_ising(3, "int8")
    return {
        "encode_qubo": (encode_qubo, config, random_panel(0, 2, 2)),
        "qubo_to_ising": (qubo_to_ising, q),
        "ising_to_qubo": (ising_to_qubo, ising),
        "ising_to_qubo-int8": (ising_to_qubo, image),
        "extract_subproblem": (extract_subproblem, q, _bits(4, q.n, count=1)[0], 0),
        "from_dense": (Qubo.from_dense, np.arange(9.0).reshape(3, 3)),
        "parse_model-qubo": (parse_model, dump_model(q)),
        "parse_model-ising": (parse_model, dump_model(ising)),
        "parse_model-int8": (parse_model, dump_model(image)),
        "reduce_dynamic_range": (reduce_dynamic_range, field_led_ising(0, "float")),
    }


@pytest.mark.parametrize("case", list(_handover_cases()))
def test_builders_hand_their_matrix_over(case, kept_log):
    builder, *args = _handover_cases()[case]
    kept_log.clear()
    builder(*args)
    assert kept_log and all(kept_log), kept_log
