// One embedding table inside a Bandana store: NVM-resident blocks plus a
// sharded DRAM vector cache with prefetch admission.
//
// Concurrency model: the vector universe is striped across N cache shards
// by *block* (shard_of(v) = block_of(v) % N), so a miss, its block read,
// and the prefetch admission of the block's other members all stay inside
// one shard — lookup() takes exactly one shard lock and concurrent
// requests to the same table proceed in parallel on different shards.
// Metrics are relaxed atomics (lock-free snapshot); block-read dedup
// epochs are per-block and therefore shard-local too.
//
// Online retraining (§2.2) swaps the whole layout-dependent state — the
// block layout, the local-block -> global-block map, the cache/shadow
// structures and the shard striping derived from the layout — as one unit:
// everything layout-dependent lives in an immutable-once-published State
// behind an atomic pointer. A lookup loads the pointer, locks the shard
// the state assigns its vector to, and re-validates the pointer under the
// lock; swap_state() installs a fresh State while holding every shard
// lock, so a lookup either completes entirely against the old state (whose
// storage blocks stay valid — a trickle republish writes replacement
// blocks elsewhere) or retries and completes entirely against the new one.
// No lookup ever observes a half-swapped mapping.
//
// publish/republish mutate NVM storage in place and require external
// exclusion against lookups (Store holds its storage mutex uniquely around
// them). swap_state only requires exclusion against other swaps/publishes
// (Store's shared storage lock + one trickle session per table).
//
// Retired states are reclaimed with a two-bank epoch scheme instead of
// being kept for the table's lifetime: every state-dereferencing reader
// enters a striped reader bank (selected by the current generation parity)
// before loading the state pointer and exits it when done. A reclaim pass
// (run by every swap_state, and on demand via reclaim_retired) observes
// the per-slot entered/exited counters of the INACTIVE bank — the one new
// readers no longer enter: a bank whose slots all read exited == entered
// (exited loaded first — both counters are monotone, so equality proves
// the slot was empty at the first load and stayed untouched until the
// second) holds no reader that predates the pass. Only when the inactive
// bank has drained does the pass flip the generation, so new readers land
// on it and the busy bank is vacated for the next pass to observe. A
// retired state is freed once BOTH banks have been observed drained while
// inactive after its retirement, so a straggler that loaded the old
// pointer just before the swap always keeps it alive until it exits.
// Under a continuous read stream each pass finds the bank the previous
// flip vacated drained, so a retiree is freed within about two passes and
// the retired list stays bounded rather than growing with every push.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cache/sharded_lru.h"
#include "core/config.h"
#include "core/manifest.h"
#include "core/metrics.h"
#include "nvm/block_storage.h"
#include "partition/layout.h"
#include "trace/embedding_table.h"

namespace bandana {

/// Compose local block `b`'s bytes under `layout` from `values`
/// (zero-padded tail for a partial last block). The single definition of
/// block composition: publish, in-place republish and the trickle plan
/// diff must all agree byte-for-byte or the diff would mis-classify
/// blocks.
void compose_block_bytes(const BlockLayout& layout,
                         const EmbeddingTable& values, BlockId b,
                         std::size_t vector_bytes, std::span<std::byte> block);

/// Internal to Store. Owns the cache state of one table; block data lives in
/// the store-wide BlockStorage at the blocks named by the table's current
/// block map (initially the contiguous range starting at `first_block`).
class BandanaTable {
 public:
  BandanaTable(const StoreConfig& store_cfg, TablePolicy policy,
               BlockLayout layout, std::vector<std::uint32_t> access_counts,
               BlockId first_block);

  /// Restore construction (Store::open): identical to the primary ctor but
  /// with an explicit local-block -> storage-block map recovered from the
  /// manifest instead of the fresh contiguous range. No blocks are written
  /// — the map points at data already in storage.
  BandanaTable(const StoreConfig& store_cfg, TablePolicy policy,
               BlockLayout layout, std::vector<std::uint32_t> access_counts,
               BlockId first_block, std::vector<BlockId> block_map);

  /// Write all vectors of `values` into NVM blocks per the current layout
  /// and block map. Block images are composed wave-by-wave (at most
  /// `wave_blocks` per wave, 0 = 4096-block chunks) into one buffer — a
  /// leased registered wave buffer when the backend offers one — and each
  /// wave goes out as a single batched write_blocks() call. Returns the
  /// number of batches issued (for StoreMetrics::write_batches). Requires
  /// external exclusion against lookups.
  std::uint64_t publish(const EmbeddingTable& values, BlockStorage& storage,
                        std::uint64_t wave_blocks = 0);

  /// What an in-place republish actually rewrote after the plan diff.
  struct RepublishDiff {
    std::uint64_t written_blocks = 0;  ///< Blocks whose bytes changed.
    std::uint64_t skipped_blocks = 0;  ///< Blocks proven byte-identical.
    std::uint64_t written_vectors = 0; ///< Members of the written blocks.
    std::uint64_t write_batches = 0;   ///< Batched write_blocks waves issued.
  };

  /// Re-publish updated values in place (retraining with an unchanged
  /// layout, §4.2.2): diffs each block's new bytes against storage, writes
  /// only the blocks that changed — accumulated into waves of at most
  /// `wave_blocks` blocks (0 = 4096) and flushed as batched write_blocks()
  /// calls — and drops only those blocks' members from the cache
  /// (unchanged blocks keep serving their warm entries). Identical values
  /// are a complete no-op. Requires external exclusion.
  RepublishDiff republish(const EmbeddingTable& values, BlockStorage& storage,
                          std::uint64_t wave_blocks = 0);

  struct LookupOutcome {
    bool hit = false;
    BlockId block_read = 0;   ///< Valid when nvm_read is true.
    bool nvm_read = false;    ///< True if a block read was issued.
    bool deferred = false;    ///< True if the lookup was not served because
                              ///< its block was not staged (staged_only
                              ///< mode); nothing was counted or mutated —
                              ///< re-run it with the block staged.
  };

  /// Open a block-read dedup scope (one batched query, or one table's id
  /// lists within a multi-get request): lookups sharing the returned epoch
  /// count each block read once. Epochs are monotonic, and a block is
  /// "already read" when its mark is >= the scope's epoch — so when two
  /// concurrent scopes touch the same block, the later fetch coalesces
  /// with the earlier one instead of being double-counted.
  std::uint64_t begin_batch() {
    return epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Serve one vector. Thread-safe: locks the vector's cache shard for the
  /// duration (re-validating the state pointer under the lock, so a
  /// concurrent swap_state makes it retry against the new mapping). On
  /// miss, consumes the block's bytes from `staged` when the request
  /// pre-fetched them (Store's batched read pipeline), otherwise reads the
  /// block from `storage` inline; either way the caller accounts device
  /// timing. Admits prefetches per policy and caches the vector.
  ///
  /// With `staged_only` (Store's airtight batched pipeline) an unstaged
  /// miss never falls back to an inline read: the lookup returns
  /// `deferred = true` BEFORE touching any state (metrics, LRU, shadow),
  /// so the caller can fetch the block through a batched retry wave and
  /// re-run the lookup as if this call never happened. The deferral check
  /// and the subsequent cache access run under one shard lock, so a block
  /// evicted between the request's staging peek and this lookup — or a
  /// mapping swapped under the request's feet — is always caught.
  LookupOutcome lookup(VectorId v, BlockStorage& storage,
                       std::span<std::byte> out, std::uint64_t epoch,
                       const StagedBlockReads* staged = nullptr,
                       bool staged_only = false);

  /// True if v is currently cached. Takes the shard lock but never mutates
  /// LRU state — the staging pass peeks ahead of the real lookups to
  /// collect the blocks a request will miss on.
  bool is_cached(VectorId v) const;

  /// Store-wide block id that serves vector v under the current mapping.
  /// Lock-free snapshot: a concurrent swap may retarget v immediately
  /// after — the staged_only lookup pipeline re-checks under the shard
  /// lock and defers on any disagreement.
  BlockId global_block_of(VectorId v) const {
    ReadGuard guard(*this);
    const State* st = state_.load(std::memory_order_seq_cst);
    return st->block_map[st->layout.block_of(v)];
  }

  /// A retrained table mapping, installable via swap_state: the new layout,
  /// the storage block backing each local block (unchanged blocks keep
  /// their old global block; changed blocks point at freshly written
  /// replacements), the refreshed per-vector access counts, and the
  /// (re-tuned) policy. The policy's cache_vectors must equal the current
  /// capacity — online retraining re-ranks and re-packs, it does not
  /// re-size DRAM (the slab is fixed at construction).
  struct RetrainedState {
    BlockLayout layout;
    std::vector<BlockId> block_map;
    std::vector<std::uint32_t> access_counts;
    TablePolicy policy;
  };

  /// Atomically install a retrained mapping. Builds the fresh
  /// layout-dependent state off to the side, then takes every shard lock,
  /// publishes the new state pointer and retires the old one (kept alive
  /// for stragglers that loaded the pointer before the swap — they retry
  /// under their shard lock and never mutate it). The cache starts cold:
  /// cached bytes predate the new values. Concurrent lookups are safe; the
  /// caller must exclude concurrent publish/republish/swap_state of this
  /// table (Store: one trickle session per table). Returns the old
  /// mapping's global blocks the new mapping no longer references, for
  /// reuse by the next republish (double buffering).
  std::vector<BlockId> swap_state(RetrainedState next);

  /// Snapshot of the current local-block -> global-block mapping.
  std::vector<BlockId> block_map() const;

  /// Copy of the table's entire current mapping (layout, block map, access
  /// counts, policy) as one consistent unit — what the manifest records per
  /// table. Safe against concurrent lookups; the caller must exclude
  /// concurrent swap_state (Store composes manifests under its manifest
  /// lock, which every shared-lock-path swap also takes).
  RetrainedState mapping_snapshot() const;

  /// The same consistent mapping as mapping_snapshot(), as the manifest's
  /// per-table entry (first block, layout order, block map, access counts,
  /// policy): one copy of each array, taken from the live state under a
  /// reader guard. The store-owned fields (free_blocks, retired) are left
  /// default. Same exclusion contract as mapping_snapshot().
  ManifestTable manifest_entry() const;

  /// Count vectors rewritten by an external republish path (the trickle
  /// session, which writes blocks itself and swaps at completion).
  void note_republished(std::uint64_t vectors) {
    metrics_.republish_writes.fetch_add(vectors, std::memory_order_relaxed);
  }

  std::uint32_t num_vectors() const { return num_vectors_; }
  std::uint32_t num_blocks() const { return num_blocks_; }
  BlockId first_block() const { return first_block_; }
  /// Current layout / policy. References into the current state: the
  /// caller must hold exclusion against swap_state of this table (Store's
  /// unique storage lock, or the table's trickle claim) — a swapped-out
  /// state is reclaimed once no reader epoch can still hold it, so an
  /// unexcluded reference may dangle. Unlocked callers that only need the
  /// policy use policy_snapshot().
  const BlockLayout& layout() const {
    return state_.load(std::memory_order_acquire)->layout;
  }
  const TablePolicy& policy() const {
    return state_.load(std::memory_order_acquire)->policy;
  }
  /// By-value policy read, safe against concurrent swap + reclamation.
  TablePolicy policy_snapshot() const {
    ReadGuard guard(*this);
    return state_.load(std::memory_order_seq_cst)->policy;
  }
  std::size_t vector_bytes() const { return vector_bytes_; }

  std::uint32_t num_shards() const { return num_shards_; }

  /// Lock-free snapshot of the per-shard counters, aggregated on read.
  TableMetrics metrics() const { return metrics_.snapshot(); }

  /// Cache occupancy/traffic of one shard (taken under that shard's lock).
  CacheShardStats shard_stats(std::uint32_t s) const;
  /// Aggregate over all shards.
  CacheShardStats cache_stats() const;

  /// Cached ids, shard by shard, each MRU->LRU (test/diagnostic; takes the
  /// shard locks). With one shard this is the exact LRU eviction order.
  std::vector<VectorId> cache_contents() const;

  /// Run one reclaim pass: observe the inactive reader bank, flip the
  /// generation once it has drained, and free every retired state whose
  /// retirement is covered by a drain observation of each bank. Returns
  /// states freed. swap_state runs a pass automatically; long-lived
  /// serving loops (or tests) call this to drain stragglers from earlier
  /// swaps.
  std::size_t reclaim_retired();

  /// Retired states still awaiting reclamation (diagnostic).
  std::size_t retired_count() const;

 private:
  /// Everything derived from one (layout, block map, policy) triple.
  /// Published at a whole-struct granularity: built, then installed with
  /// an atomic pointer store under all shard locks; never mutated except
  /// through a shard lock of the *current* state. Retired states stay
  /// allocated so a reader that loaded the pointer just before a swap can
  /// still dereference it (it will fail the under-lock re-validation and
  /// retry — it never writes through a retired state).
  struct State {
    BlockLayout layout;
    std::vector<BlockId> block_map;   ///< local block -> storage block
    std::vector<std::uint32_t> access_counts;
    TablePolicy policy;
    ShardedInsertionLru cache;
    std::unique_ptr<ShardedInsertionLru> shadow;
    std::size_t low_point = 0;  ///< Insertion point for cold prefetches.
    std::vector<std::uint32_t> slot_of;   ///< vector -> DRAM slot
    std::vector<std::uint8_t> prefetched;
    std::vector<std::uint64_t> block_epochs;  ///< per-block dedup marks
    std::vector<std::vector<std::uint32_t>> free_slots;  ///< per shard

    State(BlockLayout l, std::vector<BlockId> bm,
          std::vector<std::uint32_t> ac, TablePolicy p,
          ShardedInsertionLru c)
        : layout(std::move(l)),
          block_map(std::move(bm)),
          access_counts(std::move(ac)),
          policy(p),
          cache(std::move(c)) {}
  };

  /// Per-shard lock + scratch. The mutex array is fixed for the table's
  /// lifetime (states swap underneath it).
  struct Shard {
    std::mutex mu;
    std::vector<std::byte> block_buf;  ///< scratch for block reads
  };

  /// Reader-epoch machinery. A reader enters one striped slot of the bank
  /// named by the generation's parity, loads the state pointer (both with
  /// seq_cst, so a reclaim pass that reads the counters and misses the
  /// enter is globally ordered before it — and the reader's state load
  /// then sees the post-swap pointer, never the retired state), and exits
  /// the same slot on destruction. Slots are thread-striped to keep the
  /// hot-path RMW on a mostly-private cache line.
  static constexpr std::uint32_t kReaderSlots = 16;
  struct alignas(64) ReaderSlot {
    std::atomic<std::uint64_t> entered{0};
    std::atomic<std::uint64_t> exited{0};
  };
  static std::uint32_t reader_slot() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % kReaderSlots;
    return slot;
  }
  class ReadGuard {
   public:
    explicit ReadGuard(const BandanaTable& t)
        : t_(&t),
          bank_(static_cast<std::uint32_t>(
              t.reader_gen_.load(std::memory_order_relaxed) & 1)),
          slot_(reader_slot()) {
      t_->reader_banks_[bank_][slot_].entered.fetch_add(
          1, std::memory_order_seq_cst);
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ~ReadGuard() {
      t_->reader_banks_[bank_][slot_].exited.fetch_add(
          1, std::memory_order_release);
    }

   private:
    const BandanaTable* t_;
    std::uint32_t bank_;
    std::uint32_t slot_;
  };
  /// One retired state plus the retirement sequence it must outlive.
  struct RetiredState {
    std::unique_ptr<State> state;
    std::uint64_t seq = 0;
  };
  /// exited-then-entered per-slot equality check (see class comment).
  bool bank_drained(std::uint32_t bank) const;
  /// The reclaim pass body; caller holds reclaim_mu_.
  std::size_t reclaim_retired_locked();

  std::unique_ptr<State> make_state(TablePolicy policy, BlockLayout layout,
                                    std::vector<std::uint32_t> access_counts,
                                    std::vector<BlockId> block_map) const;
  LookupOutcome lookup_locked(State& st, std::uint32_t shard_idx, VectorId v,
                              BlockStorage& storage, std::span<std::byte> out,
                              std::uint64_t epoch,
                              const StagedBlockReads* staged, bool staged_only);
  std::span<std::byte> slot_bytes(std::uint32_t slot);
  void cache_vector(State& st, std::uint32_t shard_idx, VectorId v,
                    std::span<const std::byte> bytes, std::size_t point,
                    bool is_prefetch);
  void admit_prefetches(State& st, std::uint32_t shard_idx,
                        BlockId local_block, std::span<const std::byte> block);

  std::uint32_t num_vectors_;
  std::uint32_t num_blocks_;
  BlockId first_block_;
  std::size_t vector_bytes_;
  std::size_t block_bytes_;
  std::uint32_t vectors_per_block_;
  std::uint32_t num_shards_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::byte> slab_;  ///< cache capacity * vector_bytes
  std::atomic<std::uint64_t> epoch_{0};

  std::unique_ptr<State> state_owner_;
  std::atomic<State*> state_;

  /// Reader epochs: two banks of striped enter/exit counters; the
  /// generation's parity names the bank new readers enter. Mutable — read
  /// paths on const tables still register.
  mutable ReaderSlot reader_banks_[2][kReaderSlots];
  std::atomic<std::uint64_t> reader_gen_{0};
  /// Guards the retirement bookkeeping below (swap_state's push and
  /// concurrent reclaim passes). Never taken by readers.
  mutable std::mutex reclaim_mu_;
  std::uint64_t retire_seq_ = 0;                ///< Tags handed to retires.
  std::uint64_t bank_drained_seq_[2] = {0, 0};  ///< Latest covered retire.
  /// States replaced by swap_state, kept alive until both reader banks
  /// have been observed drained after their retirement.
  std::vector<RetiredState> retired_;

  AtomicTableMetrics metrics_;
};

}  // namespace bandana
