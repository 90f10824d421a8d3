// Reader epochs: the one reclamation primitive behind every object the
// serving path replaces under live readers (a BandanaTable's state on each
// retraining push, a StoreCluster's placement map on each rebalance flip).
// Readers hold a Guard across the seq_cst load of the protected pointer and
// every use of its target. Writers publish the replacement with a seq_cst
// store, then retire() the old object for try_reclaim() to free, or wait
// in synchronize() until no guard can still hold it.
//
// Safety. A slot is seen empty when exited == entered with `exited` loaded
// first: both only grow and an exit follows its enter, so exited(t1) ==
// entered(t2), t1 < t2, means nobody was inside at t1. A reader holding the
// OLD pointer entered (seq_cst) before its seq_cst load read the value the
// publisher's store replaced, so the enter precedes that store, and every
// drain check after it, in the single seq_cst order: such a check reports
// the bank busy until the reader exits (the acquire on `exited` orders the
// reader's accesses before the free). A check that misses an enter
// precedes it, so that reader's load follows the store and sees the NEW
// pointer. A reader may sit in either bank (it read the generation
// early), so an object retired at sequence s is freed once BOTH banks have
// been seen drained after s.
//
// Liveness. A pass checks the INACTIVE bank, which new guards no longer
// enter, and flips the generation only once it has drained; it then checks
// the just-vacated bank too, so a quiescent retire is freed by the same
// pass. Under a continuous read stream each pass finds the bank the
// previous flip vacated drained, so a retiree is freed within about two
// passes and the retired list stays bounded. A held guard delays
// reclamation until released; it never blocks readers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace bandana {

class EpochDomain {
  static constexpr std::uint32_t kSlots = 16;
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> entered{0};
    std::atomic<std::uint64_t> exited{0};
  };

 public:
  /// RAII reader registration: take it BEFORE the seq_cst pointer load and
  /// keep it past the last use of the target. Entering is one relaxed
  /// generation load (its parity picks the bank) and one seq_cst `entered`
  /// increment on a thread-striped, cache-line-aligned slot; exiting is one
  /// release `exited` increment. No heap, lock or indirect call. Move-only;
  /// a moved-from or default-constructed guard holds nothing.
  class Guard {
   public:
    Guard() = default;
    explicit Guard(const EpochDomain& d)
        : slot_(&d.banks_[d.gen_.load(std::memory_order_relaxed) & 1]
                         [thread_slot()]) {
      slot_->entered.fetch_add(1, std::memory_order_seq_cst);
    }
    Guard(Guard&& o) noexcept : slot_(std::exchange(o.slot_, nullptr)) {}
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        release();
        slot_ = std::exchange(o.slot_, nullptr);
      }
      return *this;
    }
    ~Guard() { release(); }

    explicit operator bool() const { return slot_ != nullptr; }

    /// Exit early (idempotent).
    void release() noexcept {
      if (slot_ == nullptr) return;
      slot_->exited.fetch_add(1, std::memory_order_release);
      slot_ = nullptr;
    }

   private:
    Slot* slot_ = nullptr;
  };

  /// Hand an object already unpublished (the protected pointer no longer
  /// names it) to the domain; a later pass frees it once both banks have
  /// been seen drained after this call.
  template <class T>
  void retire(std::unique_ptr<T> owner) {
    retire_owner(Owner(owner.release(),
                       [](void* p) { delete static_cast<T*>(p); }));
  }

  /// One non-blocking reclaim pass (see the file comment): observe the
  /// inactive bank, flip once it has drained, and free every retiree both
  /// banks have been seen drained after. Returns objects freed.
  std::size_t try_reclaim();

  /// Block until every guard taken before the call has been released: the
  /// reclaim pass, repeated with a yield in between until both banks have
  /// been seen drained after the call. Frees covered retirees on the way.
  void synchronize();

  /// Retired objects still awaiting reclamation.
  std::size_t retired() const;

 private:
  using Owner = std::unique_ptr<void, void (*)(void*)>;
  struct Retired {
    Owner owner;
    std::uint64_t seq = 0;  ///< Retirement sequence the drains must cover.
  };

  static std::uint32_t thread_slot() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % kSlots;
    return slot;
  }
  void retire_owner(Owner owner);
  bool drained(std::uint32_t bank) const;
  /// The reclaim pass body; caller holds mu_.
  std::size_t pass_locked();

  /// Mutable: readers of const owners still register.
  mutable Slot banks_[2][kSlots];
  /// Parity names the bank new guards enter.
  std::atomic<std::uint64_t> gen_{0};

  /// Guards the bookkeeping below (retires and passes). Never taken by
  /// readers.
  mutable std::mutex mu_;
  std::uint64_t seq_ = 0;                  ///< Last sequence handed out.
  std::uint64_t drained_seq_[2] = {0, 0};  ///< Latest sequence each bank's
                                           ///< drain observation covers.
  std::vector<Retired> retired_;
};

}  // namespace bandana
