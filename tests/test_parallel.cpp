#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "scoped_env.hpp"

namespace m3d::par {
namespace {

TEST(Parallel, EmptyRangeCallsNothing) {
  std::atomic<int> calls{0};
  parallelFor(5, 5, 1, [&](std::int64_t) { ++calls; }, 4);
  parallelFor(7, 3, 1, [&](std::int64_t) { ++calls; }, 4);  // inverted range
  parallelForChunks(0, 0, 16, [&](std::int64_t, std::int64_t) { ++calls; }, 4);
  EXPECT_EQ(calls.load(), 0);
}

TEST(Parallel, GrainLargerThanRangeIsOneChunk) {
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallelForChunks(
      3, 13, 100, [&](std::int64_t lo, std::int64_t hi) { chunks.push_back({lo, hi}); }, 4);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 3);
  EXPECT_EQ(chunks[0].second, 13);
}

TEST(Parallel, ChunkDecompositionIsPureFunctionOfRange) {
  // Same (range, grain) must yield the same chunk set at any thread count.
  auto chunksAt = [](int threads) {
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    std::mutex mu;
    parallelForChunks(
        0, 103, 10,
        [&](std::int64_t lo, std::int64_t hi) {
          std::lock_guard<std::mutex> lock(mu);
          out.push_back({lo, hi});
        },
        threads);
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto seq = chunksAt(1);
  ASSERT_EQ(seq.size(), 11u);  // ceil(103 / 10)
  EXPECT_EQ(seq, chunksAt(2));
  EXPECT_EQ(seq, chunksAt(8));
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  parallelFor(0, kN, 64, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; }, 8);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(Parallel, ExceptionPropagatesAndPoolSurvives) {
  auto boom = [] {
    parallelFor(
        0, 1000, 1,
        [](std::int64_t i) {
          if (i == 421) throw std::runtime_error("chunk failure");
        },
        8);
  };
  EXPECT_THROW(boom(), std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> calls{0};
  parallelFor(0, 100, 1, [&](std::int64_t) { ++calls; }, 8);
  EXPECT_EQ(calls.load(), 100);
}

TEST(Parallel, NestedCallsRunInlineWithoutDeadlock) {
  std::atomic<int> total{0};
  parallelFor(
      0, 16, 1,
      [&](std::int64_t) {
        EXPECT_TRUE(inParallelRegion());
        // Nested call: must complete inline on this thread.
        parallelFor(0, 50, 8, [&](std::int64_t) { ++total; }, 8);
      },
      4);
  EXPECT_EQ(total.load(), 16 * 50);
  EXPECT_FALSE(inParallelRegion());
}

TEST(Parallel, EnvOverrideForcesSequentialFallback) {
  ScopedEnv env("M3D_THREADS", "1");
  EXPECT_EQ(envThreadOverride(), 1);
  EXPECT_EQ(resolveThreads(0), 1);
  // With the override active an auto-threaded loop runs entirely on the
  // calling thread (slot 0), in ascending order.
  std::vector<std::int64_t> seen;
  parallelFor(0, 100, 7, [&](std::int64_t i) {
    EXPECT_EQ(currentSlot(), 0);
    seen.push_back(i);
  });
  ASSERT_EQ(seen.size(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(Parallel, ThreadResolutionPrecedence) {
  {
    ScopedEnv env("M3D_THREADS", "3");
    EXPECT_EQ(resolveThreads(0), 3);  // env wins over hardware
    EXPECT_EQ(resolveThreads(2), 2);  // explicit request wins over env
  }
  {
    ScopedEnv env("M3D_THREADS", nullptr);
    EXPECT_EQ(envThreadOverride(), 0);
    EXPECT_EQ(resolveThreads(0), hardwareConcurrency());
  }
  {
    ScopedEnv env("M3D_THREADS", "not_a_number");
    EXPECT_EQ(envThreadOverride(), 0);
  }
  {
    ScopedEnv env("M3D_THREADS", "0");
    EXPECT_EQ(envThreadOverride(), 0);
  }
  EXPECT_EQ(resolveThreads(kMaxThreads + 100), kMaxThreads);  // clamp
}

TEST(Parallel, WorkerSlotsAreInBounds) {
  std::atomic<bool> ok{true};
  parallelFor(
      0, 2000, 1,
      [&](std::int64_t) {
        const int slot = currentSlot();
        if (slot < 0 || slot >= maxSlots()) ok = false;
      },
      8);
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(currentSlot(), 0);  // caller slot outside regions
}

TEST(Parallel, ReduceFoldsPartialsInChunkOrder) {
  // Concatenation is order-sensitive: the fold must walk chunks ascending.
  const std::string s = parallelReduce<std::string>(
      0, 26, 5, std::string{},
      [](std::int64_t lo, std::int64_t hi) {
        std::string part;
        for (std::int64_t i = lo; i < hi; ++i) part.push_back(static_cast<char>('a' + i));
        return part;
      },
      [](std::string acc, std::string part) { return acc + part; }, 8);
  EXPECT_EQ(s, "abcdefghijklmnopqrstuvwxyz");
}

TEST(Parallel, ReduceIsBitIdenticalAcrossThreadCounts) {
  // Floating-point sum: non-associative, so bit-identity across thread
  // counts only holds because chunking and fold order are fixed.
  auto sumAt = [](int threads) {
    return parallelReduce<double>(
        0, 100000, 1024, 0.0,
        [](std::int64_t lo, std::int64_t hi) {
          double s = 0.0;
          for (std::int64_t i = lo; i < hi; ++i) s += 1.0 / static_cast<double>(i + 1);
          return s;
        },
        [](double a, double b) { return a + b; }, threads);
  };
  const double s1 = sumAt(1);
  EXPECT_EQ(s1, sumAt(2));
  EXPECT_EQ(s1, sumAt(8));
}

TEST(Parallel, ReduceEmptyRangeReturnsInit) {
  const int r = parallelReduce<int>(
      10, 10, 4, 42, [](std::int64_t, std::int64_t) { return 7; },
      [](int a, int b) { return a + b; }, 4);
  EXPECT_EQ(r, 42);
}

}  // namespace
}  // namespace m3d::par
