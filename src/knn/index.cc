#include "knn/index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/hash.h"
#include "util/logging.h"
#include "util/simd.h"

namespace autoce::knn {

namespace simd = ::autoce::util::simd;

namespace {

/// Lexicographic (squared distance, index) order — the tie-break
/// contract. sqrt is strictly monotone, so this is the historical
/// (distance, index) order exactly.
bool Better(double sq_a, size_t i_a, double sq_b, size_t i_b) {
  return sq_a < sq_b || (sq_a == sq_b && i_a < i_b);
}

}  // namespace

Index Index::Build(std::vector<std::vector<double>> points,
                   std::vector<char> usable, IndexConfig config) {
  Index index;
  index.points_ = std::move(points);
  index.config_ = config;
  if (usable.empty()) {
    index.usable_.assign(index.points_.size(), 1);
  } else {
    AUTOCE_CHECK(usable.size() == index.points_.size());
    index.usable_ = std::move(usable);
  }
  index.usable_count_ = static_cast<size_t>(
      std::count(index.usable_.begin(), index.usable_.end(), 1));
  index.FinishBuild();
  return index;
}

void Index::FinishBuild() {
  dim_ = points_.empty() ? 0 : points_[0].size();
  flat_.resize(points_.size() * dim_);
  for (size_t i = 0; i < points_.size(); ++i) {
    AUTOCE_CHECK(points_[i].size() == dim_);
    std::copy(points_[i].begin(), points_[i].end(),
              flat_.begin() + static_cast<ptrdiff_t>(i * dim_));
  }
  if (config_.backend == Backend::kVpTree && usable_count_ > 0) {
    std::vector<size_t> ids;
    ids.reserve(usable_count_);
    for (size_t i = 0; i < points_.size(); ++i) {
      if (usable_[i]) ids.push_back(i);
    }
    nodes_.reserve(2 * ids.size() / std::max(1, config_.leaf_size) + 4);
    leaf_items_.reserve(ids.size());
    BuildNode(&ids, 0, ids.size());
  }
}

int32_t Index::BuildNode(std::vector<size_t>* ids, size_t begin, size_t end) {
  size_t n = end - begin;
  if (n == 0) return -1;
  int32_t node_id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  if (n <= static_cast<size_t>(std::max(1, config_.leaf_size))) {
    Node& node = nodes_[static_cast<size_t>(node_id)];
    node.is_leaf = true;
    node.leaf_begin = static_cast<uint32_t>(leaf_items_.size());
    for (size_t i = begin; i < end; ++i) leaf_items_.push_back((*ids)[i]);
    node.leaf_end = static_cast<uint32_t>(leaf_items_.size());
    return node_id;
  }
  // Deterministic pseudo-random vantage point: a pure function of the
  // subtree's member ids, so rebuilding the same member set always
  // yields the same tree (and hence the same traversal costs).
  size_t pick =
      begin + util::SplitMix64((*ids)[begin] * 0x9E3779B97F4A7C15ULL ^ n) % n;
  std::swap((*ids)[begin], (*ids)[pick]);
  size_t pivot = (*ids)[begin];

  // Median split of the remaining members by (distance-to-pivot, id);
  // the id tie-break makes the partition unique. Distances are read
  // from the contiguous member copies.
  std::vector<std::pair<double, size_t>> dist;
  dist.reserve(n - 1);
  const double* pivot_row = flat_.data() + pivot * dim_;
  for (size_t i = begin + 1; i < end; ++i) {
    double sq = simd::SquaredL2(pivot_row, flat_.data() + (*ids)[i] * dim_,
                                dim_);
    dist.emplace_back(std::sqrt(sq), (*ids)[i]);
  }
  size_t half = dist.size() / 2;
  std::nth_element(dist.begin(), dist.begin() + static_cast<ptrdiff_t>(half),
                   dist.end());
  double radius = dist[half].first;
  for (size_t i = 0; i < dist.size(); ++i) {
    (*ids)[begin + 1 + i] = dist[i].second;
  }
  nodes_[static_cast<size_t>(node_id)].pivot = pivot;
  nodes_[static_cast<size_t>(node_id)].radius = radius;
  // Inside child holds distances <= radius (plus the median element
  // itself), outside holds the rest; both are non-empty because half <
  // dist.size() and the median element anchors the outside range.
  int32_t inside = BuildNode(ids, begin + 1, begin + 1 + half);
  int32_t outside = BuildNode(ids, begin + 1 + half, end);
  nodes_[static_cast<size_t>(node_id)].inside = inside;
  nodes_[static_cast<size_t>(node_id)].outside = outside;
  return node_id;
}

void Index::Offer(size_t i, double sq, size_t k,
                  std::vector<Candidate>* best) {
  // Non-finite distances are never neighbors (the historical scan
  // stopped at the first non-finite entry).
  if (!std::isfinite(sq)) return;
  if (best->size() == k &&
      !Better(sq, i, best->back().sq, best->back().index)) {
    return;
  }
  Candidate n{sq, i};
  auto pos = std::lower_bound(
      best->begin(), best->end(), n,
      [](const Candidate& a, const Candidate& b) {
        return Better(a.sq, a.index, b.sq, b.index);
      });
  best->insert(pos, n);
  if (best->size() > k) best->pop_back();
}

void Index::SearchNode(int32_t node_id, std::span<const double> query,
                       size_t k, size_t exclude,
                       const std::vector<char>* allowed,
                       std::vector<Candidate>* best,
                       QueryStats* stats) const {
  if (node_id < 0) return;
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  if (stats != nullptr) ++stats->nodes_visited;
  if (node.is_leaf) {
    for (uint32_t i = node.leaf_begin; i < node.leaf_end; ++i) {
      size_t id = leaf_items_[i];
      if (id == exclude) continue;
      if (allowed != nullptr && !(*allowed)[id]) continue;
      if (stats != nullptr) ++stats->distance_evals;
      Offer(id, simd::SquaredL2(query.data(), flat_.data() + id * dim_, dim_),
            k, best);
    }
    return;
  }
  if (stats != nullptr) ++stats->distance_evals;
  double sq = simd::SquaredL2(query.data(), flat_.data() + node.pivot * dim_,
                              dim_);
  double d = std::sqrt(sq);
  if (node.pivot != exclude &&
      (allowed == nullptr || (*allowed)[node.pivot])) {
    Offer(node.pivot, sq, k, best);
  }
  // Visit the side the query falls in first so the pruning bound
  // tightens before the far side is considered. A subtree is skipped
  // only when the triangle inequality puts every member *strictly*
  // beyond the current k-th distance, where the (distance, index)
  // tie-break can no longer matter — exactness is preserved. Pruning
  // works in real distances (the triangle inequality needs them); the
  // candidate list stays in squared space, so the bound is the sqrt of
  // the k-th squared distance — the identical double the historical
  // per-candidate sqrt produced.
  int32_t near = d <= node.radius ? node.inside : node.outside;
  int32_t far = d <= node.radius ? node.outside : node.inside;
  SearchNode(near, query, k, exclude, allowed, best, stats);
  double tau = best->size() == k ? std::sqrt(best->back().sq)
                                 : std::numeric_limits<double>::infinity();
  bool visit_far = far == node.inside ? (d - node.radius <= tau)
                                      : (node.radius - d <= tau);
  if (visit_far) SearchNode(far, query, k, exclude, allowed, best, stats);
}

std::vector<Neighbor> Index::Query(std::span<const double> query, size_t k,
                                   size_t exclude,
                                   const std::vector<char>* allowed,
                                   QueryStats* stats) const {
  AUTOCE_CHECK(allowed == nullptr || allowed->size() == points_.size());
  std::vector<Neighbor> out;
  if (k == 0 || usable_count_ == 0 ||
      !nn::IsFinite(std::span<const double>(query))) {
    return out;
  }
  AUTOCE_CHECK(query.size() == dim_);
  std::vector<Candidate> best;
  best.reserve(k + 1);
  if (config_.backend == Backend::kVpTree && !nodes_.empty()) {
    SearchNode(0, query, k, exclude, allowed, &best, stats);
  } else {
    for (size_t i = 0; i < points_.size(); ++i) {
      if (!usable_[i] || i == exclude) continue;
      if (allowed != nullptr && !(*allowed)[i]) continue;
      if (stats != nullptr) ++stats->distance_evals;
      Offer(i, simd::SquaredL2(query.data(), flat_.data() + i * dim_, dim_),
            k, &best);
    }
  }
  out.reserve(best.size());
  for (const Candidate& c : best) {
    out.push_back(Neighbor{std::sqrt(c.sq), c.index});
  }
  return out;
}

}  // namespace autoce::knn
