#ifndef AUTOCE_FSS_FSS_HASH_H_
#define AUTOCE_FSS_FSS_HASH_H_

#include <cstdint>
#include <string>

#include "query/query.h"

namespace autoce::fss {

/// \brief Canonical feature-subspace key of a subplan (aqo-style).
///
/// The *feature subspace* of an SPJ sub-query is its shape: the relation
/// set, the join-edge set, and the predicate-column signature (which
/// columns are constrained, with which operators) — everything except
/// the literal values. Two subplans share an FSS exactly when a learned
/// estimator would treat them as the same estimation problem with
/// different bindings, which is the granularity at which per-subplan
/// knowledge transfers.
///
/// `MakeFssKey` canonicalizes before hashing (relations ascending, join
/// edges and predicates sorted by field tuple), so the key is invariant
/// under any permutation of the query's table / join / predicate lists.
/// The canonical bytes are the shape followed by the predicate literals;
/// both hashes are FNV-1a over them, and the bytes are kept in
/// `signature` so every lookup can detect a hash collision instead of
/// silently returning a stranger's knowledge.
struct FssKey {
  /// Hash of the shape (relations + join edges + predicate columns/ops):
  /// the shape prefix of `signature`.
  uint64_t fss_hash = 0;
  /// Hash of the shape plus the predicate literals — one concrete
  /// binding of the subspace: all of `signature`.
  uint64_t literal_hash = 0;
  /// Canonical shape bytes, then each predicate's literal interval.
  std::string signature;

  /// Exact equality: same canonical bytes, not merely same hashes.
  bool operator==(const FssKey& other) const {
    return signature == other.signature;
  }
};

/// Builds the canonical key for `q`. Pure function of the query content,
/// hence thread-count and call-order independent.
FssKey MakeFssKey(const query::Query& q);

}  // namespace autoce::fss

#endif  // AUTOCE_FSS_FSS_HASH_H_
