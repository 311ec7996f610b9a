#ifndef AUTOCE_PERFBENCH_HARNESS_H_
#define AUTOCE_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "advisor/autoce.h"
#include "data/generator.h"
#include "util/timer.h"

namespace autoce::perfbench {

/// Command-line contract: `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1>`.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshot stores, traces and the run manifest.
  std::string out_dir = ".bench_build/perfbench/out";
};

/// FNV-1a over raw bits: the identity witness of every correctness check.
class Digest {
 public:
  void Add(double v);
  void Add(uint64_t v);
  void Add(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  void Byte(uint64_t b);
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// One timed call, recorded by the benchmark around a call into a layer.
/// Spans are kept in memory and written out when the run ends.
struct Span {
  std::string name;  ///< "<layer>.<call>"; the layer is the prefix
  double start_s = 0.0;
  double end_s = 0.0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  uint64_t request = 0;
};

/// In-memory span recorder for the single client thread. Disabled, every
/// call is a branch: the untraced phases run with it off.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int64_t Begin(const std::string& name, uint64_t request);
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of durations of spans named `name`, and their count.
  double TotalSeconds(const std::string& name, size_t* count = nullptr) const;
  /// Durations of spans named `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;
  /// Mean duration of spans named `name` in microseconds (0 when none).
  double MeanMicros(const std::string& name) const;

  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  Timer clock_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a no-op while the tracer is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer != nullptr && tracer->enabled() ? tracer->Begin(name, request)
                                                   : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// What a run reports: counts, correctness, and every metric it measured
/// (end-to-end metrics in an untraced run, per-layer ones in a traced run).
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check (the run then exits non-zero).
  void Check(bool ok, const std::string& what);
  /// A header line: printed and recorded in the run manifest.
  void Header(const std::string& key, const std::string& value);
  void Header(const std::string& key, int64_t value);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return failures_.empty(); }
  std::string ResultJson() const;
  std::string ManifestJson(const std::string& name) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> header_;  // key, raw json
  std::vector<std::string> failures_;
};

/// Adds the per-layer table of a traced phase: for every layer seen under
/// roots named "client.*", `<layer>.busy_s` (time inside the layer's
/// outermost spans), `<layer>.self_s` (minus time in nested spans of other
/// layers) and `<layer>.share` (self time over the summed root durations).
void ReportLayerTable(const Tracer& tracer, Report* report);

/// `featgraph.extract_us.p50`/`.p99` and `featgraph.extract_s` from the
/// `featgraph.extract` spans.
void ReportExtract(const Tracer& tracer, Report* report);

/// Mean of a metrics-registry histogram (0 when empty).
double HistogramMean(const char* name);

/// Advisor configuration of every workload that fits one (the bench
/// scale of the repository's benches: 40 DML epochs, 32-wide GIN, k = 5).
advisor::AutoCeConfig AdvisorConfig(uint64_t seed);

/// Dataset shape shared by the advisor workloads: 1-5 tables of 600-1500
/// rows, as in the repository's default-scale benches.
data::DatasetGenParams CorpusShape();

/// `shape` with its table count, column count, row count and domain size
/// pinned by index i, spread evenly over the ranges of `shape`.
data::DatasetGenParams ShapeAt(const data::DatasetGenParams& shape,
                               const std::string& name, int i);

/// `n` datasets of ShapeAt(shape, name, i) whose contents come from `rng`.
/// The seed then changes values, not the amount of work, so figures from
/// different seeds compare.
std::vector<data::Dataset> GenerateStratified(const data::DatasetGenParams& shape,
                                              const std::string& name, int n,
                                              Rng* rng);

/// Deterministic synthetic label keyed by `key`: serving and adaptation
/// cost does not depend on label quality, so those workloads skip the
/// testbed and no labeling change can move them.
advisor::DatasetLabel SyntheticLabel(uint64_t key);

/// 1 + mean D-error (paper Def. 1) of `advisor` over (graph, label) pairs,
/// averaged over the advisor's training weights: the ratio of the best
/// model's score to the recommended model's score.
double ScoreRatio(const advisor::AutoCe& advisor,
                  const std::vector<featgraph::FeatureGraph>& graphs,
                  const std::vector<advisor::DatasetLabel>& labels);

/// Digest of a recommendation's deterministic fields.
void AddRecommendation(const advisor::AutoCe::Recommendation& rec, Digest* d);

/// Median and percentile helpers over copies of `v` (0 for empty input).
double Median(const std::vector<double>& v);
double Pct(const std::vector<double>& v, double p);

/// Times of work that repeats with period `period` (times[k] and
/// times[k + period] time the same operation): the best time of each of
/// the first min(period, size) operations over all its repetitions. A
/// slow phase of a shared host then has to cover the same operation in
/// every repetition to move a figure taken over these times.
std::vector<double> BestOverRepeats(const std::vector<double>& times, size_t period);

/// Peak resident set size of this process in MB.
double PeakRssMb();
/// User + system CPU seconds consumed by this process so far.
double ProcessCpuSeconds();

/// Creates `dir` (and parents), empty: removes it recursively first when
/// present. False when it cannot be created; a store opened there then
/// fails with a Status.
bool FreshDir(const std::string& dir);
void RemoveDir(const std::string& dir);

/// Workload entry points; each fills `report` and returns normally even
/// when a check fails.
void RunTrain(const Args& args, Report* report);
void RunRecommend(const Args& args, Report* report);
void RunRecommendAdapt(const Args& args, Report* report);
void RunFss(const Args& args, Report* report);

}  // namespace autoce::perfbench

#endif  // AUTOCE_PERFBENCH_HARNESS_H_
