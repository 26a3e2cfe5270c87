import numpy as np
import pytest

from lanevec.oracle import (
    CountingVector,
    kahan_sum,
    oracle_axpy,
    oracle_dot,
    oracle_scal,
    oracle_scaled_copy,
    oracle_sum,
)


def test_oracle_dot():
    assert oracle_dot([1, 2, 3], [4, 5, 6]) == 32
    assert oracle_dot([], []) == 0
    with pytest.raises(ValueError):
        oracle_dot([1], [1, 2])


def test_oracle_sum():
    assert oracle_sum([]) == 0
    assert oracle_sum(list(range(1, 101))) == 5050


def test_oracle_scal():
    assert oracle_scal(2, [1, 2, 3]) == [2, 4, 6]
    assert oracle_scal(2, []) == []


def test_oracle_axpy():
    assert oracle_axpy(2, [1, 1], [3, 3]) == [5, 5]
    with pytest.raises(ValueError):
        oracle_axpy(1, [1], [1, 2])


def test_oracle_scaled_copy():
    assert oracle_scaled_copy(3, [1, 2]) == [3, 6]


def test_oracles_preserve_element_type():
    xs = [np.float32(v) for v in (0.1, 0.2, 0.3)]
    assert all(type(v) is np.float32 for v in oracle_scal(np.float32(1.5), xs))
    assert type(oracle_dot(xs, xs)) is np.float32


def test_kahan_sum_trivia():
    assert kahan_sum([]) == 0
    assert kahan_sum([1.0]) == 1.0
    # integer-valued inputs well under the mantissa limit sum exactly
    assert kahan_sum([float(i) for i in range(1, 2049)]) == 2048 * 2049 / 2


def test_kahan_sum_beats_naive_summation():
    n = 100000
    values = [np.float32(1.0)] + [np.float32(1e-8)] * n
    truth = 1.0 + n * 1e-8  # f64 ground truth
    naive = np.float32(0)
    for v in values:
        naive = naive + v
    compensated = kahan_sum(values)
    # naive f32 drops every tiny addend (error ~1e-3); the compensated sum
    # stays within a few ulp of the f32 result grid
    assert abs(float(compensated) - truth) < abs(float(naive) - truth)
    assert abs(float(compensated) - truth) < 1e-5
    assert abs(float(naive) - truth) > 1e-4


def test_counting_vector_counts_element_traffic():
    cv = CountingVector.from_values([1, 2, 3, 4], "f32")
    assert (cv.read_count, cv.write_count) == (0, 0)
    assert cv.get(0) == 1
    assert cv[1] == 2
    cv.set(2, 9)
    cv[3] = 8
    assert (cv.read_count, cv.write_count) == (2, 2)
    assert list(cv.read_block(0, 4)) == [1, 2, 9, 8]
    cv.write_block(0, 2, [5, 6])
    assert cv.read_element(0) == 5
    cv.write_element(1, 7)
    assert (cv.read_count, cv.write_count) == (2 + 4 + 1, 2 + 2 + 1)
    # a writable window counts one write per element it spans
    cv.write_window(2, 4)[:] = [9, 8]
    assert (cv.read_count, cv.write_count) == (2 + 4 + 1, 2 + 2 + 1 + 2)
    cv.reset_counts()
    assert (cv.read_count, cv.write_count) == (0, 0)
    # counting never altered the payload
    assert cv.to_values() == [5, 7, 9, 8]


def test_counting_vector_matches_plain_vector_results():
    from lanevec import DenseVector, dot

    xs = [0.5, 1.5, 2.5, 3.5, 4.5]
    plain = dot(DenseVector.from_values(xs), DenseVector.from_values(xs))
    counted = dot(CountingVector.from_values(xs), CountingVector.from_values(xs))
    assert plain == counted


def test_counting_vector_shares_the_storage_of_the_vector_it_counts():
    from lanevec import DenseVector

    v = DenseVector.from_values([1, 2, 3])
    cv = CountingVector(v)
    assert isinstance(cv, DenseVector) and cv.vector is cv
    cv[0] = 5
    assert v.to_values() == [5, 2, 3]
    v.set(1, 7)
    assert cv.read_element(1) == 7
    assert (cv.read_count, cv.write_count) == (1, 1)


def test_counting_vector_len_and_dtype_pass_through():
    cv = CountingVector.zeros(6, "f64")
    assert len(cv) == 6
    assert cv.dtype == np.dtype(np.float64)
