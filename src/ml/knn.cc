#include "ml/knn.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace semdrift {

namespace {

/// Rows per block when the neighbor search splits across the pool.
constexpr size_t kNeighborGrain = 32;

}  // namespace

std::vector<std::vector<size_t>> KNearestNeighbors(const Matrix& x, int k) {
  size_t n = x.rows();
  size_t d = x.cols();
  size_t want = n > 0 ? std::min(static_cast<size_t>(k), n - 1) : 0;
  std::vector<std::vector<size_t>> out(n, std::vector<size_t>(want + 1));
  // Rows are independent; each block sorts in its own distance buffer.
  BlockRange rows = SplitBlocks(n, kNeighborGrain);
  std::vector<std::vector<std::pair<double, size_t>>> buffers(rows.blocks);
  for (auto& buffer : buffers) buffer.reserve(n > 0 ? n - 1 : 0);
  ParallelForBlocks(rows, [&](size_t b, size_t begin, size_t end) {
    std::vector<std::pair<double, size_t>>& distances = buffers[b];
    for (size_t i = begin; i < end; ++i) {
      distances.clear();
      const double* a = x.Row(i);
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        double dist_sq = 0.0;
        const double* row = x.Row(j);
        for (size_t f = 0; f < d; ++f) {
          double diff = a[f] - row[f];
          dist_sq += diff * diff;
        }
        distances.emplace_back(dist_sq, j);
      }
      std::partial_sort(distances.begin(), distances.begin() + want, distances.end());
      out[i][0] = i;  // Self first.
      for (size_t t = 0; t < want; ++t) out[i][t + 1] = distances[t].second;
    }
  });
  return out;
}

}  // namespace semdrift
