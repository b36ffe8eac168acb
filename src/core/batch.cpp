#include "core/batch.hpp"

#include <algorithm>
#include <unordered_map>

#include "kernels/pack.hpp"

namespace luqr::core {

int auto_chunk_size(std::size_t count, int lanes) {
  if (lanes < 1) lanes = 1;
  // ~4 chunks per lane keeps a shared engine's workers overlapped without
  // shrinking chunks into per-item tasks; the caps bound both extremes.
  const std::size_t target =
      (count + static_cast<std::size_t>(4 * lanes) - 1) /
      static_cast<std::size_t>(4 * lanes);
  return static_cast<int>(std::clamp<std::size_t>(target, 1, 256));
}

std::vector<Chunk> plan_chunks(std::size_t count, int chunk_size, int lanes) {
  std::vector<Chunk> chunks;
  if (count == 0) return chunks;
  const std::size_t step = static_cast<std::size_t>(
      chunk_size > 0 ? chunk_size : auto_chunk_size(count, lanes));
  chunks.reserve((count + step - 1) / step);
  for (std::size_t begin = 0; begin < count; begin += step)
    chunks.push_back(Chunk{begin, std::min(begin + step, count)});
  return chunks;
}

std::vector<std::vector<std::size_t>> bucket_by_order(
    const std::vector<int>& orders) {
  std::vector<std::vector<std::size_t>> buckets;
  std::unordered_map<int, std::size_t> slot;
  slot.reserve(orders.size());
  for (std::size_t i = 0; i < orders.size(); ++i) {
    auto [it, fresh] = slot.emplace(orders[i], buckets.size());
    if (fresh) buckets.emplace_back();
    buckets[it->second].push_back(i);
  }
  return buckets;
}

namespace {

template <typename T>
std::size_t scratch_bytes(int n, int nb) {
  if (n <= 0) return 0;
  if (nb <= 0 || nb > n) nb = n;
  // The high-water mark is a blocked compact-WY apply (unmqr, tsmqr,
  // ttmqr): two nb x nb buffers (W and W2 = op(T) W) are live while its
  // last tile-sized GEMM packs its panels; V and T are packed straight from
  // their tiles. Every other kernel (the blocked panels, TRSM) stages less.
  return kern::gemm_pack_scratch_bytes<T>(nb, nb, nb) +
         static_cast<std::size_t>(2) * nb * nb * sizeof(T);
}

}  // namespace

std::size_t chunk_scratch_bytes_f64(int n, int nb) {
  return scratch_bytes<double>(n, nb);
}

std::size_t chunk_scratch_bytes_f32(int n, int nb) {
  return scratch_bytes<float>(n, nb);
}

}  // namespace luqr::core
