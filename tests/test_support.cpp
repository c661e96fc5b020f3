// Unit tests for the support library.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "support/csv.hpp"
#include "support/log.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/str.hpp"

namespace kspec {
namespace {

TEST(Math, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0);
  EXPECT_EQ(CeilDiv(1, 4), 1);
  EXPECT_EQ(CeilDiv(4, 4), 1);
  EXPECT_EQ(CeilDiv(5, 4), 2);
  EXPECT_EQ(CeilDiv(8u, 3u), 3u);
}

TEST(Math, AlignUpDown) {
  EXPECT_EQ(AlignUp(0, 16), 0);
  EXPECT_EQ(AlignUp(1, 16), 16);
  EXPECT_EQ(AlignUp(16, 16), 16);
  EXPECT_EQ(AlignUp(17, 16), 32);
  EXPECT_EQ(AlignDown(17, 16), 16);
  EXPECT_EQ(AlignDown(15, 16), 0);
}

TEST(Math, Pow2Helpers) {
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(0));
  EXPECT_FALSE(IsPow2(48));
  EXPECT_EQ(ILog2(1), 0u);
  EXPECT_EQ(ILog2(64), 6u);
  EXPECT_EQ(ILog2(65), 6u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(33), 64u);
}

TEST(Str, SplitTrimJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Join({"x", "y"}, "--"), "x--y");
}

TEST(Str, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("kernel.cu", "kern"));
  EXPECT_FALSE(StartsWith("k", "kern"));
  EXPECT_TRUE(EndsWith("kernel.cu", ".cu"));
  EXPECT_FALSE(EndsWith("cu", ".cu"));
}

TEST(Str, Format) {
  EXPECT_EQ(Format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(Format("%.2f", 1.5), "1.50");
}

TEST(Str, Fnv1aDistinguishes) {
  EXPECT_NE(Fnv1a("a"), Fnv1a("b"));
  EXPECT_EQ(Fnv1a("same"), Fnv1a("same"));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    auto n = r.NextInt(3, 9);
    EXPECT_GE(n, 3);
    EXPECT_LE(n, 9);
  }
}

TEST(Csv, EscapingAndLayout) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("q\"q"), "\"q\"\"q\"");

  Table t({"name", "value"});
  t.Row() << "x" << 1.25;
  t.Row() << "y" << std::int64_t{42};
  std::ostringstream csv;
  t.WriteCsv(csv);
  EXPECT_EQ(csv.str(), "name,value\nx,1.25\ny,42\n");

  std::ostringstream ascii;
  t.WriteAscii(ascii);
  EXPECT_NE(ascii.str().find("| name | value |"), std::string::npos);
}

TEST(Status, CheckThrowsInternalError) {
  EXPECT_THROW(KSPEC_CHECK_MSG(false, "boom"), InternalError);
  EXPECT_NO_THROW(KSPEC_CHECK(true));
  try {
    KSPEC_CHECK_MSG(1 == 2, "context");
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("context"), std::string::npos);
  }
}

// Four threads log while the main thread flips the level and swaps the sink.
// Every call a sink receives is one whole message, and a sink replaced by
// set_sink is never called once set_sink has returned. Run under TSan, this
// also shows the level and sink are race-free.
TEST(Logger, LevelAndSinkChangeWhileThreadsLog) {
  Logger& log = Logger::Instance();
  const LogLevel old_level = log.level();
  std::atomic<std::uint64_t> a{0}, b{0}, c{0};
  auto counting = [](std::atomic<std::uint64_t>* n) -> LogSink {
    return [n](LogLevel level, const std::string& msg) {
      EXPECT_EQ(level, LogLevel::kWarn);
      EXPECT_EQ(msg.rfind("worker ", 0), 0u) << msg;
      n->fetch_add(1, std::memory_order_relaxed);
    };
  };
  log.set_level(LogLevel::kWarn);
  LogSink old_sink = log.set_sink(counting(&a));

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&stop, t] {
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        KSPEC_LOG_WARN << "worker " << t << " line " << i;
      }
    });
  }
  while (a.load() == 0) std::this_thread::yield();
  for (int flip = 0; flip < 2000; ++flip) {
    log.set_level(flip % 2 != 0 ? LogLevel::kError : LogLevel::kInfo);
    log.set_sink(counting(flip % 2 != 0 ? &a : &b));
  }
  log.set_level(LogLevel::kWarn);
  log.set_sink(counting(&c));
  const std::uint64_t a_done = a.load();
  const std::uint64_t b_done = b.load();
  while (c.load() < 100) std::this_thread::yield();
  stop = true;
  for (std::thread& w : workers) w.join();
  log.set_sink(std::move(old_sink));
  log.set_level(old_level);

  EXPECT_EQ(a.load(), a_done) << "a replaced sink was called after set_sink returned";
  EXPECT_EQ(b.load(), b_done) << "a replaced sink was called after set_sink returned";
  EXPECT_GE(c.load(), 100u);
}


}  // namespace
}  // namespace kspec

#include "apps/cpu_model.hpp"

namespace kspec::apps {
namespace {

TEST(CpuModel, ScalesWithWorkAndCores) {
  CpuModel m;
  EXPECT_GT(m.Millis(2e6, 1), m.Millis(1e6, 1));          // more work, more time
  EXPECT_GT(m.Millis(1e6, 1), m.Millis(1e6, 4));          // more cores, less time
  EXPECT_DOUBLE_EQ(m.Millis(1e6, 8), m.Millis(1e6, 4));   // capped at physical cores
  EXPECT_DOUBLE_EQ(m.Millis(0, 4), 0.0);
}

TEST(CpuModel, FlopCountsScaleWithProblem) {
  EXPECT_GT(MatchingFlops(200, 400), MatchingFlops(100, 400));
  EXPECT_GT(PivFlops(10, 49, 256), PivFlops(10, 25, 256));
  EXPECT_GT(BackprojFlops(1000, 20), BackprojFlops(1000, 10));
}

}  // namespace
}  // namespace kspec::apps
