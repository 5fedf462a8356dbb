#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "common/thread_pool.h"

namespace uhscm {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, EveryFactoryProducesItsCode) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

Status FailsThenPropagates() {
  UHSCM_RETURN_NOT_OK(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(13);
  const std::vector<int> sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

TEST(RngTest, SampleAllElements) {
  Rng rng(13);
  const std::vector<int> sample = rng.SampleWithoutReplacement(5, 5);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIsIndependentOfParentContinuation) {
  Rng parent(21);
  Rng child = parent.Fork();
  // Child stream differs from parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

// ---------------------------------------------------------- string utils

TEST(StringUtilTest, SplitBasic) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitEmptyString) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, "--"), "x--y--z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("uhscm_core", "uhscm"));
  EXPECT_FALSE(StartsWith("core", "uhscm"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d bits %.2f", 64, 0.5), "64 bits 0.50");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("MiXeD Case"), "mixed case");
}

// ----------------------------------------------------------- TableWriter

TEST(TableWriterTest, AlignedTextOutput) {
  TableWriter t({"Method", "MAP"});
  t.AddRow({"LSH", "0.257"});
  t.AddRow({"UHSCM", "0.831"});
  const std::string text = t.ToText();
  EXPECT_NE(text.find("Method"), std::string::npos);
  EXPECT_NE(text.find("UHSCM"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(TableWriterTest, DoubleRowFormatsPrecision) {
  TableWriter t({"m", "a", "b"});
  t.AddRow("row", {0.12345, 0.6789}, 3);
  EXPECT_NE(t.ToText().find("0.123"), std::string::npos);
  EXPECT_NE(t.ToText().find("0.679"), std::string::npos);
}

TEST(TableWriterTest, CsvEscapesCommasAndQuotes) {
  TableWriter t({"name", "note"});
  t.AddRow({"a,b", "say \"hi\""});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableWriterTest, ShortRowsArePadded) {
  TableWriter t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_EQ(t.ToCsv(), "a,b,c\nonly,,\n");
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroAndOneCounts) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](int) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, GlobalHelperWorks) {
  std::atomic<int> sum{0};
  ParallelFor(1000, [&](int i) { sum += i; });
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(37, [&](int) { ++count; });
    EXPECT_EQ(count.load(), 37);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // Every outer iteration blocks its worker in an inner loop on the same
  // pool; queued inner chunks would wait for a worker forever.
  ThreadPool pool(4);
  constexpr int kOuter = 16;
  constexpr int kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](int i) {
    pool.ParallelFor(kInner, [&](int j) {
      hits[static_cast<size_t>(i * kInner + j)]++;
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, MeasuresNonNegativeMonotoneTime) {
  Stopwatch sw;
  const double t1 = sw.ElapsedSeconds();
  const double t2 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

// --------------------------------------------------------------- logging

TEST(LoggingTest, LevelGate) {
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  UHSCM_LOG(Info) << "suppressed";
  SetLogLevel(LogLevel::kInfo);
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
}

}  // namespace
}  // namespace uhscm
