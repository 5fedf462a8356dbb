#include "index/linear_scan.h"

#include <algorithm>

#include "index/batch_scan.h"

namespace uhscm::index {

LinearScanIndex::LinearScanIndex(PackedCodes database)
    : database_(std::move(database)) {
  tombstones_.Resize(database_.size());
}

std::vector<Neighbor> LinearScanIndex::TopK(const uint64_t* query,
                                            int k) const {
  k = std::min(k, size());
  if (k <= 0) return {};
  // Bounded max-heap selection: O(n log k) instead of materializing and
  // sorting all n distances — the difference between research-bench and
  // serving-path cost when k << n.
  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(a, b);
  };
  const bool dead_rows = tombstones_.any();
  std::vector<Neighbor> heap;
  heap.reserve(static_cast<size_t>(k));
  for (int i = 0; i < database_.size(); ++i) {
    if (dead_rows && tombstones_.Test(i)) continue;
    const int d = database_.DistanceTo(i, query);
    if (static_cast<int>(heap.size()) < k) {
      heap.push_back({i, d});
      std::push_heap(heap.begin(), heap.end(), cmp);
    } else if (d < heap.front().distance) {
      // Ids only ascend, so a distance tie with the current worst never
      // displaces it — strict < is the exact tie-break rule.
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.back() = {i, d};
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), cmp);
  return heap;
}

std::vector<std::vector<Neighbor>> LinearScanIndex::TopKBatch(
    const uint64_t* const* queries, int num_queries, int k) const {
  BatchScanOptions options;
  options.tombstones = tombstones_.any() ? &tombstones_ : nullptr;
  return BatchTopK(database_, queries, num_queries, k, options);
}

std::vector<std::vector<Neighbor>> LinearScanIndex::TopKBatch(
    const PackedCodes& queries, int k) const {
  BatchScanOptions options;
  options.tombstones = tombstones_.any() ? &tombstones_ : nullptr;
  return BatchTopK(database_, queries, k, options);
}

void LinearScanIndex::Append(const PackedCodes& batch) {
  database_.Append(batch);
  tombstones_.Resize(database_.size());
}

bool LinearScanIndex::Remove(int id) {
  if (id < 0 || id >= database_.size()) return false;
  return tombstones_.Set(id);
}

LinearScanIndex LinearScanIndex::Compact() const {
  return LinearScanIndex(CompactLiveRows(database_, tombstones_));
}

std::vector<int> LinearScanIndex::AllDistances(const uint64_t* query) const {
  std::vector<int> out(static_cast<size_t>(database_.size()));
  for (int i = 0; i < database_.size(); ++i) {
    out[static_cast<size_t>(i)] = database_.DistanceTo(i, query);
  }
  return out;
}

std::vector<Neighbor> LinearScanIndex::WithinRadius(const uint64_t* query,
                                                    int r) const {
  const bool dead_rows = tombstones_.any();
  std::vector<Neighbor> out;
  for (int i = 0; i < database_.size(); ++i) {
    if (dead_rows && tombstones_.Test(i)) continue;
    const int d = database_.DistanceTo(i, query);
    if (d <= r) out.push_back({i, d});
  }
  return out;
}

}  // namespace uhscm::index
