#include "llm/rope.h"

#include <cmath>

#include "common/logging.h"

namespace hilos {

RopeTable::RopeTable(std::size_t head_dim, std::size_t max_pos,
                     double theta)
    : head_dim_(head_dim), max_pos_(max_pos)
{
    HILOS_ASSERT(head_dim_ >= 2 && head_dim_ % 2 == 0,
                 "RoPE needs an even head dimension, got ", head_dim_);
    HILOS_ASSERT(max_pos_ > 0, "RoPE table needs at least one position");

    const std::size_t half = head_dim_ / 2;
    sin_.resize(max_pos_ * half);
    cos_.resize(max_pos_ * half);
    for (std::size_t i = 0; i < half; i++) {
        const double inv_freq = std::pow(
            theta, -2.0 * static_cast<double>(i) /
                       static_cast<double>(head_dim_));
        for (std::size_t pos = 0; pos < max_pos_; pos++) {
            const double angle = static_cast<double>(pos) * inv_freq;
            sin_[pos * half + i] = static_cast<float>(std::sin(angle));
            cos_[pos * half + i] = static_cast<float>(std::cos(angle));
        }
    }
}

void
RopeTable::apply(float *vec, std::size_t pos) const
{
    HILOS_ASSERT(pos < max_pos_, "position beyond RoPE table: ", pos,
                 " >= ", max_pos_);
    const std::size_t half = head_dim_ / 2;
    const float *s = &sin_[pos * half];
    const float *c = &cos_[pos * half];
    for (std::size_t i = 0; i < half; i++) {
        const float x = vec[2 * i];
        const float y = vec[2 * i + 1];
        vec[2 * i] = x * c[i] - y * s[i];
        vec[2 * i + 1] = x * s[i] + y * c[i];
    }
}

}  // namespace hilos
