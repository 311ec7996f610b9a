#ifndef AUTOCE_UTIL_SNAPSHOT_H_
#define AUTOCE_UTIL_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/fault.h"
#include "util/result.h"
#include "util/serde.h"
#include "util/status.h"

namespace autoce::util {

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `n` bytes;
/// pass a previous return value as `crc` to continue a running checksum.
uint32_t Crc32(const void* data, std::size_t n, uint32_t crc = 0);

/// \brief One named, CRC32-framed section of a snapshot file.
///
/// A snapshot is an ordered list of sections; each payload is framed as
/// `[name][u64 length][bytes][u32 crc32]` so corruption is detected per
/// section and a truncated file fails cleanly at the torn frame.
struct SnapshotSection {
  std::string name;
  std::string payload;
};

/// Parses a framed snapshot file. Every length is bounded by the bytes
/// actually remaining, every payload is CRC-checked, a file holds
/// exactly one snapshot (bytes after the trailer are corruption too), and
/// any mismatch returns `Status::DataLoss` — corrupt input can never OOM
/// or crash.
Result<std::vector<SnapshotSection>> ReadSnapshotFile(
    const std::string& path);

/// Writes `sections` to `path` as one standalone snapshot file, framed
/// exactly like a store generation, so `ReadSnapshotFile` parses it. The
/// write is atomic and durable — temp file, fsync, rename, directory
/// fsync — so a crash leaves the previous file or the new one, never a
/// torn one.
Status WriteSnapshotFile(const std::string& path,
                         const std::vector<SnapshotSection>& sections);

/// Replaces `path` atomically and durably: `write` fills a file writer
/// on `<path>.tmp`, which is fsynced and renamed over `path`, and then
/// the directory is fsynced. A crash leaves the previous file or the
/// new one, never a torn one; on failure the temp file is removed and
/// `path` is untouched.
Status WriteFileAtomically(const std::string& path,
                           const std::function<void(BinaryWriter*)>& write);

/// \brief Deterministic process-abort hooks at named persistence sites.
///
/// The recovery harness drives these via `AUTOCE_KILLPOINTS` /
/// `AUTOCE_KILLPOINT_SEED`: a `FaultRegistry` like `AUTOCE_FAULTS`, with
/// the same spec syntax and pure decision function (util/fault.h). When
/// a site fires the process terminates immediately via `std::_Exit`
/// with no cleanup — the in-process equivalent of `kill -9` — so tests
/// can prove every commit step is crash-atomic. Disabled (one relaxed
/// atomic load) unless a site is configured.
namespace kill_sites {
/// Mid-write of the snapshot temp file: only a prefix reached the OS.
inline constexpr const char* kTmpPartial = "snapshot.tmp_partial";
/// Temp file fully written and fsynced, before the rename.
inline constexpr const char* kTmpSynced = "snapshot.tmp_synced";
/// Snapshot renamed into place, before the MANIFEST update.
inline constexpr const char* kRenamed = "snapshot.renamed";
/// MANIFEST temp written and fsynced, before the MANIFEST rename.
inline constexpr const char* kManifestTmp = "snapshot.manifest_tmp";
/// MANIFEST renamed (commit point), before garbage collection.
inline constexpr const char* kCommitted = "snapshot.committed";
/// Old generations collected; the commit is fully finished.
inline constexpr const char* kGcDone = "snapshot.gc_done";
/// An advisor training checkpoint committed, before training resumes.
inline constexpr const char* kAdvisorCheckpoint = "advisor.checkpoint";
/// A serving hot reload loaded the new generation, before installing
/// it; a kill here must leave a restarted server on the previous
/// (still durable) generation.
inline constexpr const char* kServeReload = "serve.reload";
/// An OOD candidate admitted into the adaptation feedback queue; the
/// queue is in-memory by design, so a crash here simply loses pending
/// feedback — the durable model is untouched.
inline constexpr const char* kAdaptEnqueue = "adapt.enqueue";
/// A feedback item labeled, before its training unit is applied; a
/// crash here must leave the store on the pre-unit generation and a
/// restarted pipeline must relabel the item to the same bits.
inline constexpr const char* kAdaptLabeled = "adapt.labeled";
/// An adaptation unit trained and committed, before the server reload
/// is triggered; a crash here leaves a serving process on its previous
/// generation until a restarted server reopens the store.
inline constexpr const char* kAdaptTrained = "adapt.trained";
}  // namespace kill_sites

/// Every registered kill site, in commit order. The recovery harness
/// iterates this list and proves resume works after death at each one.
std::span<const char* const> AllKillSites();

/// Exit code a fired kill point terminates with (mirrors 128 + SIGKILL,
/// what a real `kill -9` would produce).
inline constexpr int kKillExitCode = 137;

namespace internal {
extern constinit FaultRegistry g_kill_points;
/// Reports the fired site on stderr and `std::_Exit`s with
/// kKillExitCode.
[[noreturn]] void ExitAtKillPoint(const char* site, uint64_t key);
}  // namespace internal

/// The kill-site registry over `AllKillSites()`, armed before `main`
/// from `AUTOCE_KILLPOINTS` / `AUTOCE_KILLPOINT_SEED`; tests of the
/// decision logic configure it in process.
inline FaultRegistry& KillPoints() { return internal::g_kill_points; }

/// The hook instrumenting persistence code: one relaxed load while no
/// kill site is configured.
inline void KillPoint(const char* site, uint64_t key) {
  if (KillPoints().armed() && KillPoints().Decide(site, key)) {
    internal::ExitAtKillPoint(site, key);
  }
}

struct SnapshotStoreOptions {
  /// Number of newest good generations retained by the keep-N GC.
  int keep_generations = 3;
  /// Disk-byte budget for the store (0 = unlimited). `Commit` projects
  /// the post-GC footprint (new snapshot + surviving generations) and
  /// refuses with `ResourceExhausted` BEFORE writing anything when the
  /// projection exceeds the budget — the previous generation is
  /// trivially untouched. Counted by `snapshot.budget_rejects`.
  uint64_t disk_budget_bytes = 0;
};

/// How durable a commit must be before it returns OK.
///
/// Atomicity (a reader sees the previous or the new generation, never a
/// torn one) comes from write-temp + rename and holds in both modes;
/// the modes only differ in what survives a POWER LOSS, not a crash.
enum class CommitDurability {
  /// fsync the snapshot, the MANIFEST, and the directory: on OK the
  /// generation survives power loss. Use for commits whose loss would
  /// lose information (final models, accepted online updates).
  kSync,
  /// Skip the fsyncs (renames still atomic): an OS crash may roll the
  /// store back to an earlier durable generation. Right for mid-training
  /// checkpoints, which are pure recomputable optimization — resuming
  /// from an older generation replays to the same bits, so syncing every
  /// chunk would buy nothing but fsync stalls in the training loop.
  kLazy,
};

/// \brief A durable, crash-safe, generational snapshot directory.
///
/// Layout: `snap-<generation>.snap` files (monotonically numbered) plus
/// a `MANIFEST` naming the last good generation. Every commit is
/// write-temp + fsync + rename + MANIFEST update (itself atomic) +
/// keep-N GC, with kill points between the steps; a crash anywhere
/// leaves either the previous or the new generation installed, never a
/// torn state. Loading verifies CRCs and falls back generation by
/// generation, so a corrupt or truncated newest snapshot degrades to
/// the previous good one with a warning instead of failing the process.
class SnapshotStore {
 public:
  /// Opens `dir`, creating it if needed.
  static Result<SnapshotStore> Open(const std::string& dir,
                                    SnapshotStoreOptions options = {});

  const std::string& dir() const { return dir_; }
  const SnapshotStoreOptions& options() const { return options_; }

  /// Commits `sections` as the next generation; returns its number.
  /// On OK the snapshot is installed (fsynced under kSync) and the
  /// MANIFEST points at it; generations beyond keep-N were collected.
  Result<uint64_t> Commit(const std::vector<SnapshotSection>& sections,
                          CommitDurability durability = CommitDurability::kSync);

  /// Loads the newest readable snapshot: the MANIFEST generation first,
  /// then remaining generations newest-first when it is missing, torn,
  /// or corrupt. `generation` (optional) reports the one actually used.
  Result<std::vector<SnapshotSection>> LoadLatest(
      uint64_t* generation = nullptr) const;

  /// Generation the MANIFEST points at; NotFound when absent/corrupt.
  Result<uint64_t> ManifestGeneration() const;

  /// Generations present on disk, ascending.
  std::vector<uint64_t> ListGenerations() const;

  /// Path of a generation's snapshot file.
  std::string GenerationPath(uint64_t generation) const;

 private:
  SnapshotStore(std::string dir, SnapshotStoreOptions options)
      : dir_(std::move(dir)), options_(options) {}

  Status WriteManifest(uint64_t generation, CommitDurability durability) const;
  void CollectGarbage(uint64_t newest) const;

  std::string dir_;
  SnapshotStoreOptions options_;
};

}  // namespace autoce::util

#endif  // AUTOCE_UTIL_SNAPSHOT_H_
