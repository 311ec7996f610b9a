#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "util/stats.h"

namespace autoce::perfbench {

namespace {

/// Shortest decimal text that reads back as the same double.
std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

void Digest::Byte(uint64_t b) {
  h_ ^= b;
  h_ *= 0x100000001B3ULL;
}

void Digest::Add(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void Digest::Add(uint64_t v) {
  for (int b = 0; b < 8; ++b) Byte((v >> (8 * b)) & 0xFF);
}

void Digest::Add(const std::string& s) {
  for (unsigned char c : s) Byte(c);
  Byte(0);
}

int64_t Tracer::Begin(const std::string& name, uint64_t request) {
  Span span;
  span.name = name;
  span.start_s = clock_.ElapsedSeconds();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end_s = clock_.ElapsedSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::TotalSeconds(const std::string& name, size_t* count) const {
  double total = 0.0;
  size_t n = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    total += s.end_s - s.start_s;
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

double Tracer::MeanMicros(const std::string& name) const {
  size_t n = 0;
  double total = TotalSeconds(name, &n);
  return n == 0 ? 0.0 : 1e6 * total / static_cast<double>(n);
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << Quote(s.name)
        << ",\"start_s\":" << Num(s.start_s) << ",\"end_s\":" << Num(s.end_s)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = {value, unit};
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::printf("# CHECK FAILED: %s\n", what.c_str());
}

void Report::Header(const std::string& key, const std::string& value) {
  header_.emplace_back(key, Quote(value));
  std::printf("# %s: %s\n", key.c_str(), value.c_str());
}

void Report::Header(const std::string& key, int64_t value) {
  header_.emplace_back(key, std::to_string(value));
  std::printf("# %s: %lld\n", key.c_str(), static_cast<long long>(value));
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": {\"value\": " + Num(vu.first) +
           ", \"unit\": " + Quote(vu.second) + "}";
  }
  return out + "}}";
}

std::string Report::ManifestJson(const std::string& name) const {
  obs::RunManifest manifest(name);
  for (const auto& [key, raw] : header_) manifest.AddRaw(key, raw);
  manifest.AddRaw("result", ResultJson());
  std::string failures = "[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    failures += (i > 0 ? ", " : "") + Quote(failures_[i]);
  }
  manifest.AddRaw("check_failures", failures + "]");
  return manifest.ToJson();
}

void ReportLayerTable(const Tracer& tracer, Report* report) {
  const std::vector<Span>& spans = tracer.spans();
  // Root of every span, and the summed child time of every span.
  std::vector<int64_t> root(spans.size());
  std::vector<double> child_s(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    int64_t p = spans[i].parent;
    root[i] = p < 0 ? static_cast<int64_t>(i) : root[static_cast<size_t>(p)];
    if (p >= 0) {
      child_s[static_cast<size_t>(p)] += spans[i].end_s - spans[i].start_s;
    }
  }
  std::map<std::string, double> busy, self;
  double total = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& root_span = spans[static_cast<size_t>(root[i])];
    if (root_span.name.rfind("client.", 0) != 0) continue;
    const double dur = spans[i].end_s - spans[i].start_s;
    const std::string layer = LayerOf(spans[i].name);
    if (spans[i].parent < 0) total += dur;
    self[layer] += dur - child_s[i];
    if (spans[i].parent < 0 ||
        LayerOf(spans[static_cast<size_t>(spans[i].parent)].name) != layer) {
      busy[layer] += dur;
    }
  }
  for (const auto& [layer, s] : self) {
    report->Set(layer + ".busy_s", busy[layer], "s");
    report->Set(layer + ".self_s", s, "s");
    report->Set(layer + ".share", total > 0 ? s / total : 0.0, "ratio");
  }
}

void ReportExtract(const Tracer& tracer, Report* report) {
  std::vector<double> us;
  for (double s : tracer.Durations("featgraph.extract")) us.push_back(1e6 * s);
  report->Set("featgraph.extract_us.p50", Median(us), "us");
  report->Set("featgraph.extract_us.p99", Pct(us, 99.0), "us");
  report->Set("featgraph.extract_s", tracer.TotalSeconds("featgraph.extract"), "s");
}

double HistogramMean(const char* name) {
  obs::HistogramSnapshot h =
      obs::MetricsRegistry::Instance().GetHistogram(name)->Snapshot();
  return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
}

advisor::AutoCeConfig AdvisorConfig(uint64_t seed) {
  advisor::AutoCeConfig cfg;
  cfg.dml.epochs = 40;
  cfg.gin.hidden = 32;
  cfg.gin.embedding_dim = 16;
  cfg.knn_k = 5;
  cfg.seed = seed;
  return cfg;
}

data::DatasetGenParams CorpusShape() {
  data::DatasetGenParams gen;
  gen.min_tables = 1;
  gen.max_tables = 5;
  gen.min_columns = 1;
  gen.max_columns = 6;
  gen.min_domain = 20;
  gen.max_domain = 2000;
  gen.max_fanout_skew = 2.0;
  gen.min_rows = 600;
  gen.max_rows = 1500;
  return gen;
}

data::DatasetGenParams ShapeAt(const data::DatasetGenParams& shape,
                               const std::string& name, int i) {
  // Co-prime strides decorrelate the four shape axes across indices.
  auto pick = [i](int64_t lo, int64_t hi, int stride) {
    return lo + (static_cast<int64_t>(i) * stride) % (hi - lo + 1);
  };
  data::DatasetGenParams p = shape;
  p.name = name + "_" + std::to_string(i);
  p.min_tables = p.max_tables =
      static_cast<int>(pick(shape.min_tables, shape.max_tables, 1));
  p.min_columns = p.max_columns =
      static_cast<int>(pick(shape.min_columns, shape.max_columns, 5));
  p.min_rows = p.max_rows = pick(shape.min_rows, shape.max_rows, 389);
  p.min_domain = p.max_domain =
      static_cast<int32_t>(pick(shape.min_domain, shape.max_domain, 613));
  return p;
}

std::vector<data::Dataset> GenerateStratified(const data::DatasetGenParams& shape,
                                              const std::string& name, int n,
                                              Rng* rng) {
  std::vector<data::Dataset> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Rng child = rng->Fork(static_cast<uint64_t>(i));
    out.push_back(data::GenerateDataset(ShapeAt(shape, name, i), &child));
  }
  return out;
}

advisor::DatasetLabel SyntheticLabel(uint64_t key) {
  Rng rng(key);
  advisor::DatasetLabel label;
  for (size_t m = 0; m < ce::kNumModels; ++m) {
    label.accuracy_score[m] = rng.Uniform(0.1, 1.0);
    label.efficiency_score[m] = rng.Uniform(0.1, 1.0);
    label.qerror_mean[m] = rng.Uniform(1.0, 40.0);
    label.latency_ms[m] = rng.Uniform(0.1, 130.0);
  }
  return label;
}

double ScoreRatio(const advisor::AutoCe& advisor,
                  const std::vector<featgraph::FeatureGraph>& graphs,
                  const std::vector<advisor::DatasetLabel>& labels) {
  const std::vector<double>& weights = advisor.config().training_weights;
  double total = 0.0;
  for (double w : weights) total += advisor.EvaluateMeanDError(graphs, labels, w);
  return 1.0 + total / static_cast<double>(weights.size());
}

void AddRecommendation(const advisor::AutoCe::Recommendation& rec, Digest* d) {
  d->Add(static_cast<uint64_t>(rec.model));
  for (double s : rec.score_vector) d->Add(s);
  for (size_t n : rec.neighbors) d->Add(static_cast<uint64_t>(n));
  d->Add(static_cast<uint64_t>(rec.degraded));
}

double Median(const std::vector<double>& v) { return Pct(v, 50.0); }

std::vector<double> BestOverRepeats(const std::vector<double>& times, size_t period) {
  std::vector<double> best(times.begin(),
                           times.begin() + std::min(period, times.size()));
  for (size_t k = best.size(); k < times.size(); ++k) {
    best[k % period] = std::min(best[k % period], times[k]);
  }
  return best;
}

double Pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : stats::Percentile(v, p);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

bool FreshDir(const std::string& dir) {
  RemoveDir(dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace autoce::perfbench
