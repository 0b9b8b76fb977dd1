"""Tests for the IR type system."""

import numpy as np
import pytest

from repro.inspire.types import (
    BOOL,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    UINT,
    BufferType,
    VectorType,
    is_floating,
    is_integer,
    promote,
)


class TestScalarTypes:
    def test_sizes(self):
        assert INT.sizeof() == 4
        assert FLOAT.sizeof() == 4
        assert DOUBLE.sizeof() == 8
        assert LONG.sizeof() == 8
        assert BOOL.sizeof() == 1

    def test_dtypes(self):
        assert FLOAT.dtype == np.dtype("float32")
        assert INT.dtype == np.dtype("int32")
        assert UINT.dtype == np.dtype("uint32")

    def test_cl_names(self):
        assert FLOAT.cl_name == "float"
        assert LONG.cl_name == "long"

    def test_floating_predicates(self):
        assert is_floating(FLOAT) and is_floating(DOUBLE)
        assert not is_floating(INT)
        assert is_integer(INT) and is_integer(LONG)
        assert not is_integer(BOOL)
        assert not is_integer(FLOAT)


class TestVectorTypes:
    def test_valid_widths(self):
        for w in (2, 3, 4, 8, 16):
            v = VectorType(FLOAT, w)
            assert v.width == w

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            VectorType(FLOAT, 5)

    def test_sizeof_and_name(self):
        v = VectorType(FLOAT, 4)
        assert v.sizeof() == 16
        assert v.cl_name == "float4"

    def test_is_floating(self):
        assert is_floating(VectorType(FLOAT, 4))
        assert not is_floating(VectorType(INT, 4))
        assert is_integer(VectorType(INT, 2))


class TestBufferTypes:
    def test_pointer_size(self):
        assert BufferType(FLOAT).sizeof() == 8

    def test_cl_name(self):
        assert BufferType(FLOAT).cl_name == "__global float*"

    def test_dtype_passthrough(self):
        assert BufferType(INT).dtype == np.dtype("int32")


class TestPromotion:
    def test_int_float(self):
        assert promote(INT, FLOAT) is FLOAT
        assert promote(FLOAT, INT) is FLOAT

    def test_float_double(self):
        assert promote(FLOAT, DOUBLE) is DOUBLE

    def test_int_uint(self):
        assert promote(INT, UINT) is UINT

    def test_same_type(self):
        assert promote(INT, INT) is INT

    def test_vector_scalar(self):
        v = promote(VectorType(FLOAT, 4), INT)
        assert isinstance(v, VectorType)
        assert v.element is FLOAT and v.width == 4

    def test_vector_vector_same_width(self):
        v = promote(VectorType(INT, 4), VectorType(FLOAT, 4))
        assert v == VectorType(FLOAT, 4)

    def test_vector_width_mismatch(self):
        with pytest.raises(TypeError):
            promote(VectorType(FLOAT, 4), VectorType(FLOAT, 8))

    def test_buffer_promotion_rejected(self):
        with pytest.raises(TypeError):
            promote(BufferType(FLOAT), INT)
