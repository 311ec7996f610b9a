#ifndef AUTOCE_OBS_MANIFEST_H_
#define AUTOCE_OBS_MANIFEST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace autoce::obs {

/// \brief Run-manifest writer: one JSON file per bench/CLI invocation
/// snapshotting what produced the numbers (DESIGN.md §5.9).
///
/// Every manifest opens with a common header — `name`, `git_describe`,
/// then whatever the caller adds (by convention `scale`, `seed`,
/// `threads`, `wall_seconds`) — followed by tool-specific fields, so
/// all BENCH_*.json / RUN_*.json artifacts share one self-describing
/// shape. Keys render in insertion order; values are formatted
/// deterministically, so manifests diff cleanly across runs.

/// `git describe --always --dirty` captured at configure time (the
/// AUTOCE_GIT_DESCRIBE compile definition), or "unknown".
std::string GitDescribe();

/// `s` as the body of a JSON string literal: quotes, backslashes and
/// control characters escaped.
std::string JsonEscape(const std::string& s);

/// \brief Ordered-key JSON object builder with file output.
class RunManifest {
 public:
  /// Starts a manifest whose header is {name, git_describe}.
  explicit RunManifest(const std::string& name);

  RunManifest& AddString(const std::string& key, const std::string& value);
  RunManifest& AddInt(const std::string& key, int64_t value);
  RunManifest& AddDouble(const std::string& key, double value);
  RunManifest& AddBool(const std::string& key, bool value);
  /// Splices pre-rendered JSON (array/object) verbatim under `key`.
  RunManifest& AddRaw(const std::string& key, const std::string& json);
  /// Embeds the current metrics registry snapshot under "metrics"
  /// (no-op when metrics are dormant).
  RunManifest& AddMetricsSnapshot();

  /// Renders the manifest as a pretty-printed JSON object.
  std::string ToJson() const;

  /// Writes ToJson() to `path`; false (with a stderr note) on failure.
  bool WriteTo(const std::string& path) const;
  /// Writes to `RUN_<name>.json` in the working directory.
  bool Write() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;  // key, raw json
};

}  // namespace autoce::obs

#endif  // AUTOCE_OBS_MANIFEST_H_
