#include "common/epoch.h"

#include <algorithm>
#include <thread>

namespace bandana {

void EpochDomain::retire_owner(Owner owner) {
  std::lock_guard lock(mu_);
  retired_.push_back({std::move(owner), ++seq_});
}

bool EpochDomain::drained(std::uint32_t bank) const {
  for (const Slot& slot : banks_[bank]) {
    // exited BEFORE entered (file comment).
    const std::uint64_t exited = slot.exited.load(std::memory_order_seq_cst);
    const std::uint64_t entered = slot.entered.load(std::memory_order_seq_cst);
    if (entered != exited) return false;
  }
  return true;
}

std::size_t EpochDomain::pass_locked() {
  // Everything retired so far predates the observations below (both happen
  // under mu_), so a drained bank covers seq_.
  const std::uint64_t seq = seq_;
  std::uint32_t inactive =
      static_cast<std::uint32_t>((gen_.load(std::memory_order_seq_cst) + 1) & 1);
  if (drained(inactive)) {
    drained_seq_[inactive] = seq;
    gen_.fetch_add(1, std::memory_order_seq_cst);
    inactive ^= 1;
    if (drained(inactive)) drained_seq_[inactive] = seq;
  }
  const std::uint64_t safe = std::min(drained_seq_[0], drained_seq_[1]);
  return std::erase_if(retired_,
                       [safe](const Retired& r) { return r.seq <= safe; });
}

std::size_t EpochDomain::try_reclaim() {
  std::lock_guard lock(mu_);
  if (retired_.empty()) return 0;
  return pass_locked();
}

void EpochDomain::synchronize() {
  std::unique_lock lock(mu_);
  // A sequence no observation made before this call can cover.
  const std::uint64_t target = ++seq_;
  for (;;) {
    pass_locked();
    if (std::min(drained_seq_[0], drained_seq_[1]) >= target) return;
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
  }
}

std::size_t EpochDomain::retired() const {
  std::lock_guard lock(mu_);
  return retired_.size();
}

}  // namespace bandana
