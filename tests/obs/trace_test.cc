#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "util/parallel.h"

namespace autoce::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr);
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// A simulated clock starting at 0 whose every read advances it by
/// `step_us` microseconds.
Clock FakeClock(uint64_t step_us) {
  return [now_us = uint64_t{0}, step_us]() mutable {
    double seconds = static_cast<double>(now_us) * 1e-6;
    now_us += step_us;
    return seconds;
  };
}

// Every test drives the singleton through a fresh EnableBuffer/
// EnableFile epoch with a FakeClock, so timestamps (and hence the
// serialized stream) are bit-exact regardless of wall time.

TEST(TraceTest, ZeroCostOffRecordsNothing) {
  Tracer& tracer = Tracer::Instance();
  tracer.Disable();
  tracer.Reset();
  {
    TraceSpan span("tt.off");
  }
  EXPECT_TRUE(tracer.Aggregates().empty());
}

TEST(TraceTest, NestedSpansSerializeAndAggregate) {
  Tracer& tracer = Tracer::Instance();
  tracer.Reset();
  tracer.EnableBuffer(FakeClock(1));
  {
    TraceSpan outer("outer");
    { TraceSpan inner("inner"); }
  }
  tracer.Disable();
  // FakeClock reads: outer begin 0, inner begin 1, inner end 2 (dur 1),
  // outer end 3 (dur 3, self 2). Children emit before parents.
  EXPECT_EQ(tracer.TakeBuffer(),
            "{\"name\":\"inner\",\"ph\":\"X\",\"ts\":1,\"dur\":1,"
            "\"pid\":0,\"tid\":0},\n"
            "{\"name\":\"outer\",\"ph\":\"X\",\"ts\":0,\"dur\":3,"
            "\"pid\":0,\"tid\":0},\n");
  auto aggregates = tracer.Aggregates();
  ASSERT_EQ(aggregates.size(), 2u);
  EXPECT_EQ(aggregates["inner"].count, 1);
  EXPECT_EQ(aggregates["inner"].total_us, 1u);
  EXPECT_EQ(aggregates["inner"].self_us, 1u);
  EXPECT_EQ(aggregates["outer"].count, 1);
  EXPECT_EQ(aggregates["outer"].total_us, 3u);
  EXPECT_EQ(aggregates["outer"].self_us, 2u);
}

TEST(TraceTest, SelfTimeExcludesOnlyDirectChildren) {
  Tracer& tracer = Tracer::Instance();
  tracer.Reset();
  tracer.EnableBuffer(FakeClock(1));
  {
    TraceSpan a("a");
    {
      TraceSpan b("b");
      { TraceSpan c("c"); }
    }
  }
  tracer.Disable();
  tracer.TakeBuffer();
  // Clock reads 0..5: c = [2,3] dur 1; b = [1,4] dur 3 self 2;
  // a = [0,5] dur 5, self 5 - dur(b) = 2 (c is b's child, not a's).
  auto agg = tracer.Aggregates();
  EXPECT_EQ(agg["c"].total_us, 1u);
  EXPECT_EQ(agg["c"].self_us, 1u);
  EXPECT_EQ(agg["b"].total_us, 3u);
  EXPECT_EQ(agg["b"].self_us, 2u);
  EXPECT_EQ(agg["a"].total_us, 5u);
  EXPECT_EQ(agg["a"].self_us, 2u);
}

TEST(TraceTest, SiblingDurationsBothCountAgainstParent) {
  Tracer& tracer = Tracer::Instance();
  tracer.Reset();
  tracer.EnableBuffer(FakeClock(1));
  {
    TraceSpan parent("parent");
    { TraceSpan first("first"); }
    { TraceSpan second("second"); }
  }
  tracer.Disable();
  tracer.TakeBuffer();
  // Reads 0..5: first [1,2], second [3,4], parent [0,5] self 5-2 = 3.
  auto agg = tracer.Aggregates();
  EXPECT_EQ(agg["parent"].total_us, 5u);
  EXPECT_EQ(agg["parent"].self_us, 3u);
}

// The repo convention — spans only on the calling thread, counters in
// workers — makes FakeClock streams bit-identical across thread counts.
TEST(TraceTest, BufferBitExactAcrossThreadCounts) {
  Tracer& tracer = Tracer::Instance();
  std::string reference;
  for (int threads : {1, 2, 8}) {
    util::SetGlobalParallelism(threads);
    tracer.Reset();
    tracer.EnableBuffer(FakeClock(1));
    std::atomic<int64_t> sink{0};
    {
      TraceSpan burst("tt.burst");
      util::ParallelFor(0, 256, 16,
                        [&](size_t i) { sink.fetch_add(static_cast<int64_t>(i)); });
      { TraceSpan drain("tt.drain"); }
    }
    tracer.Disable();
    std::string buffer = tracer.TakeBuffer();
    EXPECT_EQ(sink.load(), 255 * 256 / 2);
    auto agg = tracer.Aggregates();
    EXPECT_EQ(agg["tt.burst"].count, 1);
    EXPECT_EQ(agg["tt.drain"].count, 1);
    if (reference.empty()) {
      reference = buffer;
      // Calling thread is always tid 0 in a fresh epoch.
      EXPECT_NE(buffer.find("\"tid\":0"), std::string::npos);
      EXPECT_EQ(buffer.find("\"tid\":1"), std::string::npos);
    } else {
      EXPECT_EQ(buffer, reference) << "threads=" << threads;
    }
  }
  util::SetGlobalParallelism(util::DefaultParallelism());
}

TEST(TraceTest, FileSinkIsLoadableChromeTraceJson) {
  const std::string path = "tt_trace_sink.json";
  Tracer& tracer = Tracer::Instance();
  tracer.Reset();
  tracer.EnableFile(path, FakeClock(1));
  {
    TraceSpan span("tt.file");
  }
  tracer.Disable();
  std::string content = ReadFile(path);
  std::remove(path.c_str());
  // Opens an array, one complete event, then the no-comma closing
  // instant event so the array parses as-is.
  EXPECT_EQ(content,
            "[\n"
            "{\"name\":\"tt.file\",\"ph\":\"X\",\"ts\":0,\"dur\":1,"
            "\"pid\":0,\"tid\":0},\n"
            "{\"name\":\"trace_end\",\"ph\":\"i\",\"ts\":0,\"pid\":0,"
            "\"tid\":0,\"s\":\"g\"}\n"
            "]\n");
}

TEST(TraceTest, ResetClearsAggregatesAndBuffer) {
  Tracer& tracer = Tracer::Instance();
  tracer.Reset();
  tracer.EnableBuffer(FakeClock(1));
  {
    TraceSpan span("tt.reset");
  }
  tracer.Disable();
  tracer.Reset();
  EXPECT_TRUE(tracer.Aggregates().empty());
  EXPECT_TRUE(tracer.TakeBuffer().empty());
}

TEST(TraceTest, AggregatesAccumulateAcrossRepeatedSpans) {
  Tracer& tracer = Tracer::Instance();
  tracer.Reset();
  tracer.EnableBuffer(FakeClock(2));
  for (int i = 0; i < 4; ++i) {
    TraceSpan span("tt.repeat");
  }
  tracer.Disable();
  tracer.TakeBuffer();
  auto agg = tracer.Aggregates();
  EXPECT_EQ(agg["tt.repeat"].count, 4);
  EXPECT_EQ(agg["tt.repeat"].total_us, 8u);  // 4 spans x (one 2 us step)
  EXPECT_EQ(agg["tt.repeat"].self_us, 8u);
}

}  // namespace
}  // namespace autoce::obs
