/**
 * @file
 * Minimal dense matrix types used by the functional attention paths:
 * row-major FP32 matrices plus FP16 buffer conversion helpers matching
 * the accelerator's storage format.
 */

#ifndef HILOS_LLM_TENSOR_H_
#define HILOS_LLM_TENSOR_H_

#include <cstddef>
#include <vector>

#include "common/half.h"
#include "common/random.h"

namespace hilos {

/** Row-major FP32 matrix. */
class Matrix
{
  public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

    float &at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    const float &
    at(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Pointer to the start of row r. */
    const float *row(std::size_t r) const { return &data_[r * cols_]; }
    float *row(std::size_t r) { return &data_[r * cols_]; }

    /** Gaussian-filled matrix (reproducible via the supplied Rng). */
    static Matrix random(std::size_t rows, std::size_t cols, Rng &rng,
                         float stddev = 1.0f);

    /** this (m x k) times other (k x n) -> (m x n), FP32. */
    Matrix matmul(const Matrix &other) const;

    /** Max absolute difference against another same-shape matrix. */
    float maxAbsDiff(const Matrix &other) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/** Quantise a float matrix to an FP16 buffer (row-major). */
std::vector<Half> toHalf(const Matrix &m);

/** Widen an FP16 buffer back to a rows x cols matrix. */
Matrix fromHalf(const std::vector<Half> &buf, std::size_t rows,
                std::size_t cols);

}  // namespace hilos

#endif  // HILOS_LLM_TENSOR_H_
