import dataclasses

import numpy as np
import pytest

from dpoqubo.backends import FinitePrecisionAdapter, TabuSolver
from dpoqubo.model import DpoConfig
from dpoqubo.precision import QuantizedIsing, quantize_int8
from dpoqubo.qubo import BlockPartition, IsingModel, Qubo
from dpoqubo.serialize import (
    ModelFormatError,
    dump_model,
    load_model,
    parse_model,
    save_model,
)

from support import bundled_model


def random_qubo(seed, n=6, partition=None):
    rng = np.random.default_rng(seed)
    return Qubo.from_dense(
        rng.normal(size=(n, n)) * 10.0, offset=float(rng.normal()), partition=partition
    )


class TestQuboRoundtrip:
    def test_exact_roundtrip(self):
        q = random_qubo(0)
        back = parse_model(dump_model(q))
        assert isinstance(back, Qubo)
        np.testing.assert_array_equal(back.coeffs, q.coeffs)
        assert back.offset == q.offset

    def test_partition_survives(self):
        part = BlockPartition.from_sizes([2, 2, 2])
        q = random_qubo(1, partition=part)
        back = parse_model(dump_model(q))
        assert back.partition.blocks == part.blocks

    def test_integer_coefficients_bit_exact(self):
        rng = np.random.default_rng(2)
        m = rng.integers(-1000, 1000, size=(5, 5)).astype(float)
        q = Qubo.from_dense(m + m.T, offset=17.0)
        back = parse_model(dump_model(q))
        assert np.array_equal(back.coeffs, q.coeffs)
        assert back.coeffs.tobytes() == q.coeffs.tobytes()

    def test_zeros_are_omitted(self):
        q = Qubo(np.diag([0.0, 3.0, 0.0]))
        text = dump_model(q)
        assert text.count("\nc ") == 1

    def test_file_roundtrip(self, tmp_path):
        q = random_qubo(3, partition=BlockPartition.from_sizes([3, 3]))
        path = tmp_path / "model.txt"
        save_model(q, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.coeffs, q.coeffs)
        assert back.partition.blocks == q.partition.blocks


class TestIsingRoundtrip:
    def _model(self, seed=4, n=5):
        rng = np.random.default_rng(seed)
        j = rng.normal(size=(n, n))
        j = (j + j.T) / 2.0
        np.fill_diagonal(j, 0.0)
        return IsingModel(linear=rng.normal(size=n), quadratic=j, offset=-2.5)

    def test_exact_roundtrip(self):
        m = self._model()
        back = parse_model(dump_model(m))
        assert isinstance(back, IsingModel)
        np.testing.assert_array_equal(back.linear, m.linear)
        np.testing.assert_array_equal(back.quadratic, m.quadratic)
        assert back.offset == m.offset

    def test_quantized_roundtrip(self):
        m = self._model(seed=5)
        q = quantize_int8(m)
        back = parse_model(dump_model(q))
        assert isinstance(back, QuantizedIsing)
        assert back.linear.dtype == np.int8
        np.testing.assert_array_equal(back.linear, q.linear)
        np.testing.assert_array_equal(back.quadratic, q.quadratic)
        assert back.scale == q.scale

    def test_quantized_header_flags(self):
        q = quantize_int8(self._model(seed=6))
        text = dump_model(q)
        assert "integer 1" in text
        assert f"scale {q.scale!r}" in text

    def test_quantized_partition_survives(self):
        part = BlockPartition.from_sizes([3, 2])
        m = self._model(seed=7)
        m = IsingModel(
            linear=m.linear, quadratic=m.quadratic, offset=m.offset, partition=part
        )
        back = parse_model(dump_model(quantize_int8(m)))
        assert back.partition.blocks == part.blocks


    def test_all_zero_quantized_roundtrip_keeps_every_field(self):
        part = BlockPartition.from_sizes([2, 1])
        all_zero = quantize_int8(IsingModel(np.zeros(3), np.zeros((3, 3)), partition=part))
        # the device's own input: an encoded QUBO after dynamic-range tuning
        config = DpoConfig(n_t=2, n_a=6, n_r=4, budget=15, dt=24)
        tuned = FinitePrecisionAdapter(TabuSolver()).quantize(bundled_model(config))
        for q in (all_zero, tuned):
            back = parse_model(dump_model(q))
            for f in dataclasses.fields(QuantizedIsing):
                ours, theirs = getattr(q, f.name), getattr(back, f.name)
                if isinstance(ours, np.ndarray):
                    assert ours.dtype == theirs.dtype, f.name
                    np.testing.assert_array_equal(ours, theirs, err_msg=f.name)
                else:
                    assert ours == theirs, f.name


class TestEmptyModels:
    @pytest.mark.parametrize(
        "model",
        [
            Qubo(np.zeros((0, 0)), offset=1.5),
            IsingModel(np.zeros(0), np.zeros((0, 0)), offset=-2.0),
            quantize_int8(IsingModel(np.zeros(0), np.zeros((0, 0)))),
        ],
        ids=["qubo", "ising", "quantized"],
    )
    def test_roundtrip(self, model):
        text = dump_model(model)
        assert "\nn 0\n" in text
        back = parse_model(text)
        assert type(back) is type(model) and back.n == 0
        assert dump_model(back) == text

    def test_negative_n_rejected(self):
        with pytest.raises(ModelFormatError, match="line 3: n must be"):
            parse_model("dpoqubo-model 1\nkind qubo\nn -1\n")


class TestValidation:
    def test_missing_header(self):
        with pytest.raises(ModelFormatError, match="header"):
            parse_model("kind qubo\nn 2\n")

    def test_unknown_record(self):
        with pytest.raises(ModelFormatError, match="unknown record"):
            parse_model("dpoqubo-model 1\nkind qubo\nn 2\nbogus 1\n")

    def test_duplicate_entry(self):
        text = "dpoqubo-model 1\nkind qubo\nn 2\nc 0 1 1.0\nc 0 1 2.0\n"
        with pytest.raises(ModelFormatError, match="duplicate"):
            parse_model(text)

    def test_lower_triangle_rejected_for_qubo(self):
        text = "dpoqubo-model 1\nkind qubo\nn 2\nc 1 0 1.0\n"
        with pytest.raises(ModelFormatError, match="i <= j"):
            parse_model(text)

    def test_ising_diagonal_coupling_rejected(self):
        text = "dpoqubo-model 1\nkind ising\nn 2\nc 1 1 1.0\n"
        with pytest.raises(ModelFormatError, match="i < j"):
            parse_model(text)

    def test_integer_requires_scale(self):
        text = "dpoqubo-model 1\nkind ising\nn 2\ninteger 1\nh 0 5\n"
        with pytest.raises(ModelFormatError, match="scale"):
            parse_model(text)

    @pytest.mark.parametrize("scale", ["nan", "inf", "0.0", "-2.0"])
    def test_integer_scale_must_be_positive_and_finite(self, scale):
        text = f"dpoqubo-model 1\nkind ising\nn 1\ninteger 1\nscale {scale}\nh 0 5\n"
        with pytest.raises(ModelFormatError, match="scale") as err:
            parse_model(text)
        assert err.value.lineno == 5

    @pytest.mark.parametrize(
        "record, kind",
        [("offset nan", "qubo"), ("c 0 0 nan", "qubo"), ("h 0 inf", "ising")],
    )
    def test_non_finite_values_rejected_at_their_line(self, record, kind):
        text = f"dpoqubo-model 1\nkind {kind}\nn 1\n{record}\n"
        with pytest.raises(ModelFormatError, match="finite") as err:
            parse_model(text)
        assert err.value.lineno == 4

    @pytest.mark.parametrize(
        "kind, records",
        [
            ("qubo", "c x 0 1.0"),
            ("ising", "h y 1.0"),
            ("qubo", "partition 0 1\npartition 1 1"),
        ],
        ids=["qubo-index", "ising-index", "empty-partition"],
    )
    def test_bad_index_or_partition_rejected_at_its_line(self, kind, records):
        text = f"dpoqubo-model 1\nkind {kind}\nn 2\n{records}\n"
        with pytest.raises(ModelFormatError) as err:
            parse_model(text)
        assert err.value.lineno == 3 + len(records.splitlines())

    @pytest.mark.parametrize(
        "record", ["kind qubo", "n 3", "offset 1.0", "integer 0", "scale 2.0"]
    )
    def test_repeated_header_record_rejected_at_its_line(self, record):
        text = (
            "dpoqubo-model 1\nkind ising\nn 2\noffset 0.5\ninteger 0\nscale 1.0\n"
            f"{record}\nh 0 1.0\n"
        )
        with pytest.raises(ModelFormatError, match="repeated") as err:
            parse_model(text)
        assert err.value.lineno == 7

    @pytest.mark.parametrize(
        "header, record",
        [
            ("kind ising\ninteger 1\nscale 1.0", "offset 5.0"),
            ("kind ising\ninteger 0", "scale 2.0"),
            ("kind ising", "scale 2.0"),
            ("kind qubo", "scale 2.0"),
        ],
        ids=["integer-offset", "float-scale", "ising-scale", "qubo-scale"],
    )
    def test_record_the_kind_does_not_use_rejected_at_its_line(self, header, record):
        text = f"dpoqubo-model 1\n{header}\nn 1\n{record}\n"
        with pytest.raises(ModelFormatError, match="take no") as err:
            parse_model(text)
        assert err.value.lineno == 3 + header.count("\n") + 1

    @pytest.mark.parametrize(
        "kind, records",
        [
            ("qubo", "h 0 1.0"),
            ("qubo", "c 0 1"),
            ("ising", "h 0"),
            ("ising", "h 0 1 2.0"),
            ("ising", "c 0 1"),
            ("ising", "c 0 1 2 3.0"),
            ("ising", "h 2 1.0"),
            ("ising", "h -1 1.0"),
            ("ising", "h 1 1.0\nh 1 2.0"),
            ("ising", "c 0 1 1.0\nc 0 1 2.0"),
            ("ising", "c 1 1 1.0"),
        ],
        ids=[
            "qubo-field", "qubo-c-arity", "h-arity-short", "h-arity-long",
            "c-arity-short", "c-arity-long", "field-index-high", "field-index-negative",
            "repeated-field", "repeated-coupling", "ising-diagonal-coupling",
        ],
    )
    def test_bad_coefficient_record_rejected_at_its_line(self, kind, records):
        text = f"dpoqubo-model 1\nkind {kind}\nn 2\n{records}\n"
        with pytest.raises(ModelFormatError) as err:
            parse_model(text)
        assert err.value.lineno == 3 + len(records.splitlines())
        assert str(err.value).startswith(f"line {err.value.lineno}: ")

    def test_integer_range_enforced(self):
        text = "dpoqubo-model 1\nkind ising\nn 1\ninteger 1\nscale 1.0\nh 0 200\n"
        with pytest.raises(ModelFormatError, match="8-bit"):
            parse_model(text)

    def test_partition_must_cover_n(self):
        text = "dpoqubo-model 1\nkind qubo\nn 3\npartition 0 2\n"
        with pytest.raises(ModelFormatError, match="partition"):
            parse_model(text)

    def test_comments_and_blanks_ignored(self):
        text = (
            "dpoqubo-model 1\n"
            "# a comment\n"
            "\n"
            "kind qubo\n"
            "n 1\n"
            "c 0 0 2.0  # trailing comment\n"
        )
        q = parse_model(text)
        assert q.coeffs[0, 0] == 2.0

    def test_error_carries_line_number(self):
        text = "dpoqubo-model 1\nkind qubo\nn 2\nc 0 5 1.0\n"
        with pytest.raises(ModelFormatError) as err:
            parse_model(text)
        assert err.value.lineno == 4


class TestRepresentationStability:
    def test_nonintegral_floats_roundtrip_exactly(self):
        # repr-based formatting is lossless for arbitrary doubles too
        values = [0.1, 1 / 3, 1e-17, 123456.789e12, -7.25]
        coeffs = np.diag(values)
        back = parse_model(dump_model(Qubo(coeffs)))
        assert back.coeffs.tobytes() == coeffs.tobytes()

    def test_dump_is_deterministic(self):
        q = random_qubo(8, partition=BlockPartition.from_sizes([2, 2, 2]))
        assert dump_model(q) == dump_model(q)


class TestUnreachedChecks:
    @pytest.mark.parametrize("text, message", [
        ("dpoqubo-model 1\nkind foo\nn 2\n", "line 2: unknown kind 'foo'"),
        ("dpoqubo-model 1\nkind ising\nn 1\ninteger 2\nscale 1.0\n",
         "line 4: integer flag must be 0 or 1"),
        ("", "line 1: missing file header"),
        ("# only a comment\n", "line 1: missing file header"),
        ("dpoqubo-model 1\nn 2\n", "line 1: file must declare kind and n"),
        ("dpoqubo-model 1\nkind qubo\n", "line 1: file must declare kind and n"),
        ("dpoqubo-model 1\nkind qubo\nn 1\ninteger 1\nscale 1.0\n",
         "line 1: integer flag applies to ising models only"),
        ("dpoqubo-model 1\nkind qubo\nn 1\nc 0 0 abc\n",
         "line 4: expected a finite number, got 'abc'"),
    ], ids=[
        "unknown-kind", "integer-2", "empty", "comment-only", "no-kind", "no-n",
        "integer-qubo", "non-numeric-coefficient",
    ])
    def test_rejected_with_its_line(self, text, message):
        with pytest.raises(ModelFormatError) as err:
            parse_model(text)
        assert str(err.value) == message

    def test_dump_of_a_non_model(self):
        with pytest.raises(TypeError, match="cannot serialize dict"):
            dump_model({})
