// EpochDomain (common/epoch.h): the reader-epoch primitive behind table
// state swaps and placement flips, tested on its own — deterministic
// pinning, the blocking synchronize() contract, bounded garbage under a
// continuous reader stream, and move-only guards that exit exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/epoch.h"

namespace bandana {
namespace {

/// A retiree that reports its own destruction.
struct Tracked {
  explicit Tracked(std::atomic<int>& freed) : freed_(freed) {}
  ~Tracked() { freed_.fetch_add(1); }
  std::atomic<int>& freed_;
};

TEST(EpochDomain, QuiescentRetireIsFreedByTheNextPass) {
  EpochDomain d;
  std::atomic<int> freed{0};
  EXPECT_EQ(d.try_reclaim(), 0u);
  d.retire(std::make_unique<Tracked>(freed));
  EXPECT_EQ(d.retired(), 1u);
  EXPECT_EQ(d.try_reclaim(), 1u);
  EXPECT_EQ(d.retired(), 0u);
  EXPECT_EQ(freed.load(), 1);
}

TEST(EpochDomain, HeldGuardPinsExactlyOneRetireeUntilReleased) {
  EpochDomain d;
  std::atomic<int> freed{0};
  EpochDomain::Guard guard(d);
  d.retire(std::make_unique<Tracked>(freed));
  for (int pass = 0; pass < 20; ++pass) {
    EXPECT_EQ(d.try_reclaim(), 0u) << "pass " << pass;
    EXPECT_EQ(d.retired(), 1u) << "pass " << pass;
  }
  EXPECT_EQ(freed.load(), 0);
  guard.release();
  // One pass after the release frees it.
  EXPECT_EQ(d.try_reclaim(), 1u);
  EXPECT_EQ(d.retired(), 0u);
  EXPECT_EQ(freed.load(), 1);
}

TEST(EpochDomain, SynchronizeWaitsForAGuardTakenBeforeIt) {
  EpochDomain d;
  EpochDomain::Guard guard(d);
  std::atomic<bool> returned{false};
  std::thread writer([&] {
    d.synchronize();
    returned.store(true);
  });
  // Negative check: while the guard is held the writer must not return.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  guard.release();
  writer.join();
  EXPECT_TRUE(returned.load());
}

TEST(EpochDomain, ContinuousReadersKeepTheRetiredListBounded) {
  EpochDomain d;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> iterations[2] = {0, 0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        { EpochDomain::Guard g(d); }
        iterations[r].fetch_add(1, std::memory_order_release);
      }
    });
  }
  std::atomic<int> freed{0};
  std::size_t worst = 0;
  for (int round = 0; round < 1000; ++round) {
    d.retire(std::make_unique<Tracked>(freed));
    d.try_reclaim();
    worst = std::max(worst, d.retired());
    // Let each reader finish whatever guard it held during the pass. A
    // reader descheduled mid-guard legitimately pins retirees for as long
    // as it sleeps; the bound is about flips making progress under a busy
    // stream, not about the scheduler.
    for (auto& it : iterations) {
      const std::uint64_t seen = it.load(std::memory_order_acquire);
      while (it.load(std::memory_order_acquire) < seen + 2) {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_LE(worst, 2u);
  d.synchronize();
  EXPECT_EQ(d.retired(), 0u);
  EXPECT_EQ(freed.load(), 1000);
}

TEST(EpochDomain, MovedFromGuardExitsItsSlotExactlyOnce) {
  EpochDomain d;
  std::atomic<int> freed{0};
  {
    EpochDomain::Guard first(d);
    EXPECT_TRUE(first);
    EpochDomain::Guard moved(std::move(first));
    EpochDomain::Guard assigned;
    assigned = std::move(moved);
    EXPECT_FALSE(first);
    EXPECT_FALSE(moved);
    EXPECT_TRUE(assigned);
    // The retiree stays pinned by the one live guard.
    d.retire(std::make_unique<Tracked>(freed));
    for (int pass = 0; pass < 3; ++pass) d.try_reclaim();
    EXPECT_EQ(d.retired(), 1u);
  }
  // Exactly one exit per enter: a missing exit would leave the bank busy
  // forever, a doubled one would make exited overtake entered — either
  // way the retiree would never be freed.
  EXPECT_EQ(d.try_reclaim(), 1u);
  EXPECT_EQ(freed.load(), 1);
  d.retire(std::make_unique<Tracked>(freed));
  EXPECT_EQ(d.try_reclaim(), 1u);
  EXPECT_EQ(freed.load(), 2);
}

}  // namespace
}  // namespace bandana
