#include "dyn/mutation.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace autoce::dyn {

namespace {

/// Per-epoch fractions at intensity 1 (see MutationConfig): rows
/// appended and deleted per table, and values re-drawn in one column.
constexpr double kInsertFraction = 0.04;
constexpr double kDeleteFraction = 0.02;
constexpr double kShiftFraction = 0.08;
/// Skew of the shifted (mirrored Pareto) value distribution.
constexpr double kShiftSkew = 2.0;

/// `dyn.*` instruments, resolved once (obs/metrics.h interning).
struct DynMetrics {
  obs::Counter* epochs;
  obs::Counter* rows_inserted;
  obs::Counter* rows_deleted;
  obs::Counter* values_shifted;

  static DynMetrics& Get() {
    static DynMetrics m;
    return m;
  }

 private:
  DynMetrics() {
    auto& reg = obs::MetricsRegistry::Instance();
    epochs = reg.GetCounter("dyn.epochs");
    rows_inserted = reg.GetCounter("dyn.rows_inserted");
    rows_deleted = reg.GetCounter("dyn.rows_deleted");
    values_shifted = reg.GetCounter("dyn.values_shifted");
  }
};

/// Shifted value draw: a bounded-Pareto sample mirrored to the TOP of
/// the domain, so drifted data concentrates where the snapshot's skew
/// put almost nothing.
int32_t ShiftedDraw(Rng* rng, int32_t domain) {
  double v = rng->ParetoSkewed(kShiftSkew, 1.0, static_cast<double>(domain));
  int32_t iv = static_cast<int32_t>(std::lround(v));
  iv = std::clamp<int32_t>(iv, 1, domain);
  return domain + 1 - iv;
}

struct TableDelta {
  int64_t inserted = 0;
  int64_t deleted = 0;
  int64_t shifted = 0;
};

/// Per-table mutation: deletes, then inserts, then the in-place
/// distribution shift — one fixed draw order per table generator so the
/// result is a pure function of (table content role, forked rng).
TableDelta MutateTable(data::Table* table, const MutationConfig& cfg,
                       uint64_t next_epoch, bool is_fk_parent,
                       const std::vector<int>& fk_columns,
                       const std::vector<const std::vector<int32_t>*>&
                           fk_parent_values,
                       Rng* rng) {
  TableDelta delta;
  const double intensity = std::max(0.0, cfg.intensity);
  if (intensity <= 0.0) return delta;
  const int64_t rows = table->NumRows();
  if (rows <= 0) return delta;

  auto is_fk = [&](int c) {
    return std::find(fk_columns.begin(), fk_columns.end(), c) !=
           fk_columns.end();
  };

  // Deletes: only tables no FK references (removing a referenced parent
  // row would orphan FK values and skew join semantics unpredictably).
  if (!is_fk_parent) {
    int64_t want = static_cast<int64_t>(
        std::floor(kDeleteFraction * intensity * static_cast<double>(rows)));
    int64_t k = std::min(want, std::max<int64_t>(0, rows - cfg.min_rows));
    if (k > 0) {
      auto victims = rng->SampleWithoutReplacement(rows, k);
      std::sort(victims.begin(), victims.end());
      std::vector<bool> dead(static_cast<size_t>(rows), false);
      for (int64_t v : victims) dead[static_cast<size_t>(v)] = true;
      for (auto& col : table->columns) {
        size_t w = 0;
        for (size_t r = 0; r < col.values.size(); ++r) {
          if (!dead[r]) col.values[w++] = col.values[r];
        }
        col.values.resize(w);
      }
      delta.deleted = k;
    }
  }

  // Inserts: appended rows draw from the SHIFTED distribution (new data
  // looks different — the drift the post-update label variant scores).
  // PK columns get fresh distinct ids past the current domain; FK
  // columns sample the parent's epoch-start PK set.
  {
    int64_t k = static_cast<int64_t>(std::floor(
        kInsertFraction * intensity * static_cast<double>(rows)));
    if (k > 0) {
      for (int c = 0; c < table->NumColumns(); ++c) {
        data::Column& col = table->columns[static_cast<size_t>(c)];
        if (c == table->primary_key) {
          for (int64_t i = 1; i <= k; ++i) {
            col.values.push_back(col.domain_size + static_cast<int32_t>(i));
          }
          col.domain_size += static_cast<int32_t>(k);
          continue;
        }
        if (is_fk(c)) {
          size_t slot = static_cast<size_t>(
              std::find(fk_columns.begin(), fk_columns.end(), c) -
              fk_columns.begin());
          const std::vector<int32_t>& parent = *fk_parent_values[slot];
          for (int64_t i = 0; i < k; ++i) {
            int64_t j = rng->UniformInt(
                0, static_cast<int64_t>(parent.size()) - 1);
            col.values.push_back(parent[static_cast<size_t>(j)]);
          }
          continue;
        }
        for (int64_t i = 0; i < k; ++i) {
          col.values.push_back(
              ShiftedDraw(rng, col.domain_size));
        }
      }
      delta.inserted = k;
    }
  }

  // Distribution shift: re-draw a fraction of ONE non-key, non-FK
  // column (rotating with the epoch so drift walks the schema) from the
  // mirrored distribution.
  {
    std::vector<int> candidates;
    for (int c = 0; c < table->NumColumns(); ++c) {
      if (c != table->primary_key && !is_fk(c)) candidates.push_back(c);
    }
    if (!candidates.empty()) {
      int c = candidates[static_cast<size_t>(
          (next_epoch - 1) % candidates.size())];
      data::Column& col = table->columns[static_cast<size_t>(c)];
      int64_t n = static_cast<int64_t>(col.values.size());
      int64_t k = std::min<int64_t>(
          n, static_cast<int64_t>(std::floor(
                 kShiftFraction * intensity * static_cast<double>(n))));
      if (k > 0) {
        auto spots = rng->SampleWithoutReplacement(n, k);
        for (int64_t s : spots) {
          col.values[static_cast<size_t>(s)] =
              ShiftedDraw(rng, col.domain_size);
        }
        delta.shifted = k;
      }
    }
  }
  return delta;
}

}  // namespace

uint64_t DatasetFingerprint(const data::Dataset& ds) {
  // Not the FNV-1a basis (14695981039346656037): this fold has seeded
  // every mutation stream and is stored in .adat files as
  // base_fingerprint, so its start value stays.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<uint64_t>(ds.NumTables()));
  for (int t = 0; t < ds.NumTables(); ++t) {
    const data::Table& table = ds.table(t);
    mix(static_cast<uint64_t>(table.primary_key));
    mix(static_cast<uint64_t>(table.NumColumns()));
    for (const auto& col : table.columns) {
      mix(static_cast<uint64_t>(col.domain_size));
      mix(static_cast<uint64_t>(col.values.size()));
      for (int32_t v : col.values) mix(static_cast<uint64_t>(v));
    }
  }
  for (const auto& fk : ds.foreign_keys()) {
    mix(static_cast<uint64_t>(fk.fk_table));
    mix(static_cast<uint64_t>(fk.fk_column));
    mix(static_cast<uint64_t>(fk.pk_table));
    mix(static_cast<uint64_t>(fk.pk_column));
  }
  return h;
}

Result<EpochReport> ApplyEpoch(data::Dataset* ds,
                               const MutationConfig& config) {
  AUTOCE_CHECK(ds != nullptr);
  if (ds->NumTables() == 0) {
    return Status::InvalidArgument("cannot mutate an empty dataset");
  }
  if (ds->base_fingerprint() == 0) {
    ds->set_base_fingerprint(DatasetFingerprint(*ds));
  }
  const uint64_t next_epoch = ds->epoch() + 1;
  // The whole epoch's op stream hangs off this one mix — same
  // (snapshot, epoch) in, same ops out, on any machine at any
  // parallelism.
  Rng epoch_rng(util::FaultKeyMix(ds->base_fingerprint(), next_epoch));

  const int num_tables = ds->NumTables();
  std::vector<bool> is_parent(static_cast<size_t>(num_tables), false);
  for (const auto& fk : ds->foreign_keys()) {
    is_parent[static_cast<size_t>(fk.pk_table)] = true;
  }
  // Epoch-start parent PK snapshots: FK inserts sample these, so child
  // mutation never races parent mutation (parents only append PK values,
  // so every snapshot id stays live).
  std::vector<std::vector<int>> fk_columns(static_cast<size_t>(num_tables));
  std::vector<std::vector<std::vector<int32_t>>> parent_snapshots(
      static_cast<size_t>(num_tables));
  for (const auto& fk : ds->foreign_keys()) {
    const data::Table& parent = ds->table(fk.pk_table);
    fk_columns[static_cast<size_t>(fk.fk_table)].push_back(fk.fk_column);
    parent_snapshots[static_cast<size_t>(fk.fk_table)].push_back(
        parent.columns[static_cast<size_t>(fk.pk_column)].values);
  }

  // Fork sequentially, mutate in parallel: table t depends only on its
  // own pre-forked generator and the snapshots above (the
  // GenerateCorpus determinism pattern).
  std::vector<Rng> children;
  children.reserve(static_cast<size_t>(num_tables));
  for (int t = 0; t < num_tables; ++t) {
    children.push_back(epoch_rng.Fork(static_cast<uint64_t>(t)));
  }
  std::vector<TableDelta> deltas = util::ParallelMap(
      0, static_cast<size_t>(num_tables), 1, [&](size_t t) {
        std::vector<const std::vector<int32_t>*> parents;
        parents.reserve(parent_snapshots[t].size());
        for (const auto& snap : parent_snapshots[t]) parents.push_back(&snap);
        return MutateTable(ds->mutable_table(static_cast<int>(t)), config,
                           next_epoch, is_parent[t], fk_columns[t], parents,
                           &children[t]);
      });

  // Re-sync FK column domains to the (possibly grown) parent PK domain;
  // snapshot-sampled values are all <= the old domain <= the new one.
  for (const auto& fk : ds->foreign_keys()) {
    const data::Column& pk =
        ds->table(fk.pk_table).columns[static_cast<size_t>(fk.pk_column)];
    data::Column& fk_col = ds->mutable_table(fk.fk_table)
                               ->columns[static_cast<size_t>(fk.fk_column)];
    fk_col.domain_size = std::max(fk_col.domain_size, pk.domain_size);
  }
  ds->set_epoch(next_epoch);

  EpochReport report;
  report.epoch = next_epoch;
  for (const TableDelta& d : deltas) {
    report.rows_inserted += d.inserted;
    report.rows_deleted += d.deleted;
    report.values_shifted += d.shifted;
  }
  auto& metrics = DynMetrics::Get();
  metrics.epochs->Add();
  metrics.rows_inserted->Add(report.rows_inserted);
  metrics.rows_deleted->Add(report.rows_deleted);
  metrics.values_shifted->Add(report.values_shifted);

  if (Status st = ds->Validate(); !st.ok()) {
    return Status::Internal("ApplyEpoch broke dataset invariants: " +
                            st.ToString());
  }
  return report;
}

Result<EpochReport> ApplyEpochs(data::Dataset* ds,
                                const MutationConfig& config, int epochs) {
  EpochReport total;
  for (int e = 0; e < epochs; ++e) {
    auto r = ApplyEpoch(ds, config);
    if (!r.ok()) return r.status();
    total.epoch = r->epoch;
    total.rows_inserted += r->rows_inserted;
    total.rows_deleted += r->rows_deleted;
    total.values_shifted += r->values_shifted;
  }
  return total;
}

}  // namespace autoce::dyn
