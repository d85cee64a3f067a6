#include "src/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/rng.h"

namespace stedb {
namespace {

TEST(ResolveThreadCountTest, PositiveRequestWins) {
  unsetenv("STEDB_THREADS");
  EXPECT_EQ(ResolveThreadCount(3), 3);
  EXPECT_EQ(ResolveThreadCount(1), 1);
}

TEST(ResolveThreadCountTest, ZeroMeansHardwareConcurrency) {
  unsetenv("STEDB_THREADS");
  EXPECT_GE(ResolveThreadCount(0), 1);
}

TEST(ResolveThreadCountTest, EnvFillsDefaultButExplicitPinWins) {
  setenv("STEDB_THREADS", "5", 1);
  EXPECT_EQ(ResolveThreadCount(0), 5);  // env steers the default
  // Explicit pins are deliberate (nested fan-outs pin 1, equivalence
  // tests pin 1 vs 4) and must not be defeated by the env knob.
  EXPECT_EQ(ResolveThreadCount(2), 2);
  setenv("STEDB_THREADS", "garbage", 1);
  EXPECT_GE(ResolveThreadCount(0), 1);  // unparseable -> ignored
  unsetenv("STEDB_THREADS");
}

class ParallelForTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { unsetenv("STEDB_THREADS"); }
};

TEST_P(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h = 0;
  ParallelFor(GetParam(), kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForTest, EmptyAndSingleRanges) {
  int calls = 0;
  ParallelFor(GetParam(), 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> one{0};
  ParallelFor(GetParam(), 1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    one.fetch_add(1);
  });
  EXPECT_EQ(one.load(), 1);
}

TEST_P(ParallelForTest, ExceptionsPropagate) {
  auto throw_at_13 = [](size_t i) {
    if (i == 13) throw std::runtime_error("boom");
  };
  EXPECT_THROW(ParallelFor(GetParam(), 64, throw_at_13), std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> count{0};
  ParallelFor(GetParam(), 8, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST_P(ParallelForTest, ReusableAcrossManyJobs) {
  std::atomic<long> total{0};
  for (int job = 0; job < 50; ++job) {
    ParallelFor(GetParam(), 20, [&](size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(total.load(), 50L * (19 * 20 / 2));
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForTest,
                         ::testing::Values(1, 2, 4, 7));

// The process pool is shared by every caller: the cases below drive it
// from several threads at once and from inside running bodies.
class SharedPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("STEDB_THREADS"); }
  void TearDown() override { unsetenv("STEDB_THREADS"); }
};

// First of its suite, so no earlier case in this binary has grown the
// pool: the pin itself must start the helpers.
TEST_F(SharedPoolTest, PinGetsHelpersWhenTheDefaultIsOne) {
  setenv("STEDB_THREADS", "1", 1);
  ASSERT_EQ(ResolveThreadCount(0), 1);
  // Every body waits (bounded) until a second thread has joined, so a
  // pin that got no helper shows up as a single thread id.
  constexpr size_t kN = 4;
  std::vector<std::thread::id> ran_on(kN);
  std::atomic<int> arrived{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ParallelFor(4, kN, [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
    arrived.fetch_add(1);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_GE(std::set<std::thread::id>(ran_on.begin(), ran_on.end()).size(),
            2u);
}

TEST_F(SharedPoolTest, ConcurrentCallersCoverTheirOwnIndices) {
  constexpr int kCallers = 8;
  constexpr int kRounds = 20;
  constexpr size_t kN = 257;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kN);
        for (auto& h : hits) h = 0;
        ParallelFor(4, kN, [&](size_t i) { hits[i].fetch_add(1); });
        for (const auto& h : hits) {
          if (h.load() != 1) wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(SharedPoolTest, NestedFanOutsComplete) {
  constexpr size_t kWidth = 4;
  std::vector<std::atomic<int>> leaves(kWidth * kWidth * kWidth);
  for (auto& l : leaves) l = 0;
  ParallelFor(4, kWidth, [&](size_t i) {
    ParallelFor(4, kWidth, [&](size_t j) {
      ParallelFor(4, kWidth, [&](size_t k) {
        leaves[(i * kWidth + j) * kWidth + k].fetch_add(1);
      });
    });
  });
  for (size_t l = 0; l < leaves.size(); ++l) {
    EXPECT_EQ(leaves[l].load(), 1) << "leaf " << l;
  }
}

TEST_F(SharedPoolTest, PeakConcurrencyStaysWithinPin) {
  ParallelFor(8, 8, [](size_t) {});  // grow the pool past the pins below
  for (int pin : {2, 4}) {
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    ParallelFor(pin, 64, [&](size_t) {
      const int now = running.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      running.fetch_sub(1);
    });
    EXPECT_GE(peak.load(), 1);
    EXPECT_LE(peak.load(), pin);
  }
}

TEST_F(SharedPoolTest, ExceptionStaysWithItsCaller) {
  constexpr int kRounds = 50;
  std::atomic<int> thrower_misses{0};
  std::atomic<int> clean_errors{0};
  std::thread thrower([&] {
    for (int round = 0; round < kRounds; ++round) {
      try {
        ParallelFor(4, 64, [](size_t i) {
          if (i == 13) throw std::runtime_error("boom");
        });
        thrower_misses.fetch_add(1);
      } catch (const std::runtime_error&) {
      }
    }
  });
  std::thread clean([&] {
    for (int round = 0; round < kRounds; ++round) {
      std::atomic<int> count{0};
      try {
        ParallelFor(4, 64, [&](size_t) { count.fetch_add(1); });
      } catch (...) {
        clean_errors.fetch_add(1);
      }
      if (count.load() != 64) clean_errors.fetch_add(1);
    }
  });
  thrower.join();
  clean.join();
  EXPECT_EQ(thrower_misses.load(), 0);
  EXPECT_EQ(clean_errors.load(), 0);
}

TEST(RngForkStreamTest, StreamsAreDisjoint) {
  Rng root(42);
  Rng a = root.Fork(0);
  Rng b = root.Fork(1);
  Rng c = root.Fork(2);
  bool all_equal_ab = true, all_equal_ac = true;
  for (int i = 0; i < 16; ++i) {
    const uint64_t va = a.NextUint(1u << 30);
    const uint64_t vb = b.NextUint(1u << 30);
    const uint64_t vc = c.NextUint(1u << 30);
    all_equal_ab &= va == vb;
    all_equal_ac &= va == vc;
  }
  EXPECT_FALSE(all_equal_ab);
  EXPECT_FALSE(all_equal_ac);
}

TEST(RngForkStreamTest, SameStreamReproduces) {
  Rng root(42);
  Rng a = root.Fork(7);
  Rng b = root.Fork(7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.NextUint(1u << 30), b.NextUint(1u << 30));
  }
}

TEST(RngForkStreamTest, IndependentOfParentDrawPosition) {
  // The counter-based fork keys off the construction seed, so workers can
  // fork their streams before or after the parent advanced.
  Rng before(99);
  Rng fresh = before.Fork(5);
  Rng advanced(99);
  for (int i = 0; i < 100; ++i) advanced.NextDouble();
  Rng late = advanced.Fork(5);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(fresh.NextUint(1u << 30), late.NextUint(1u << 30));
  }
}

TEST(RngForkStreamTest, DiffersFromStatefulFork) {
  Rng a(13);
  Rng stateful = a.Fork();
  Rng counter = Rng(13).Fork(0);
  bool all_equal = true;
  for (int i = 0; i < 16; ++i) {
    all_equal &= stateful.NextUint(1u << 30) == counter.NextUint(1u << 30);
  }
  EXPECT_FALSE(all_equal);
}

}  // namespace
}  // namespace stedb
