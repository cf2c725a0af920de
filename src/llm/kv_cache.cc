#include "llm/kv_cache.h"

#include "common/logging.h"

namespace hilos {

KvCache::KvCache(std::size_t batches, std::size_t kv_heads,
                 std::size_t head_dim)
    : batches_(batches), kv_heads_(kv_heads), head_dim_(head_dim),
      k_store_(batches * kv_heads), v_store_(batches * kv_heads)
{
    HILOS_ASSERT(batches > 0 && kv_heads > 0 && head_dim > 0,
                 "invalid KV cache shape");
}

std::size_t
KvCache::index(const SliceId &id) const
{
    HILOS_ASSERT(id.batch < batches_ && id.kv_head < kv_heads_,
                 "slice out of range: b=", id.batch, " h=", id.kv_head);
    return static_cast<std::size_t>(id.batch) * kv_heads_ + id.kv_head;
}

void
KvCache::append(const SliceId &id, const Half *k, const Half *v)
{
    const std::size_t i = index(id);
    k_store_[i].insert(k_store_[i].end(), k, k + head_dim_);
    v_store_[i].insert(v_store_[i].end(), v, v + head_dim_);
}

std::size_t
KvCache::length(const SliceId &id) const
{
    return k_store_[index(id)].size() / head_dim_;
}

HalfMatrixView
KvCache::keys(const SliceId &id) const
{
    const auto &buf = k_store_[index(id)];
    return HalfMatrixView{buf.data(), buf.size() / head_dim_, head_dim_};
}

HalfMatrixView
KvCache::values(const SliceId &id) const
{
    const auto &buf = v_store_[index(id)];
    return HalfMatrixView{buf.data(), buf.size() / head_dim_, head_dim_};
}

XCacheStore::XCacheStore(std::size_t batches, std::size_t hidden)
    : hidden_(hidden), store_(batches)
{
    HILOS_ASSERT(batches > 0 && hidden > 0, "invalid X-cache shape");
}

void
XCacheStore::append(std::size_t batch, const Half *x)
{
    HILOS_ASSERT(batch < store_.size(), "batch out of range");
    store_[batch].insert(store_[batch].end(), x, x + hidden_);
}

HalfMatrixView
XCacheStore::activations(std::size_t batch) const
{
    HILOS_ASSERT(batch < store_.size(), "batch out of range");
    const auto &buf = store_[batch];
    return HalfMatrixView{buf.data(), buf.size() / hidden_, hidden_};
}

SlicePartition::SlicePartition(std::size_t batches, std::size_t kv_heads,
                               std::size_t devices)
    : batches_(batches), kv_heads_(kv_heads), devices_(devices)
{
    HILOS_ASSERT(devices > 0, "need at least one device");
}

std::size_t
SlicePartition::deviceOf(const SliceId &id) const
{
    HILOS_ASSERT(id.batch < batches_ && id.kv_head < kv_heads_,
                 "slice out of range");
    const std::size_t linear =
        static_cast<std::size_t>(id.batch) * kv_heads_ + id.kv_head;
    return linear % devices_;
}

}  // namespace hilos
