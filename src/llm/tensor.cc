#include "llm/tensor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace hilos {

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix
Matrix::random(std::size_t rows, std::size_t cols, Rng &rng, float stddev)
{
    Matrix m(rows, cols);
    auto v = rng.normalVector(rows * cols, 0.0f, stddev);
    std::copy(v.begin(), v.end(), m.data_.begin());
    return m;
}

Matrix
Matrix::matmul(const Matrix &other) const
{
    HILOS_ASSERT(cols_ == other.rows_, "matmul shape mismatch: ", rows_,
                 "x", cols_, " @ ", other.rows_, "x", other.cols_);
    Matrix out(rows_, other.cols_);
    for (std::size_t i = 0; i < rows_; i++) {
        for (std::size_t k = 0; k < cols_; k++) {
            const float a = at(i, k);
            if (a == 0.0f)
                continue;
            const float *brow = other.row(k);
            float *orow = out.row(i);
            for (std::size_t j = 0; j < other.cols_; j++)
                orow[j] += a * brow[j];
        }
    }
    return out;
}

float
Matrix::maxAbsDiff(const Matrix &other) const
{
    HILOS_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
                 "shape mismatch in maxAbsDiff");
    float worst = 0.0f;
    for (std::size_t i = 0; i < data_.size(); i++)
        worst = std::max(worst, std::fabs(data_[i] - other.data_[i]));
    return worst;
}

std::vector<Half>
toHalf(const Matrix &m)
{
    std::vector<Half> buf(m.size());
    for (std::size_t i = 0; i < m.size(); i++)
        buf[i] = Half(m.data()[i]);
    return buf;
}

Matrix
fromHalf(const std::vector<Half> &buf, std::size_t rows, std::size_t cols)
{
    HILOS_ASSERT(buf.size() == rows * cols, "fromHalf shape mismatch");
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < buf.size(); i++)
        m.data()[i] = buf[i].toFloat();
    return m;
}

}  // namespace hilos
