// Benchmark-side tracing: spans recorded around calls into the library's
// public functions, plus a BlockStorage decorator that times every call the
// store makes into its storage backend.
//
// Spans live in memory until the run ends (Tracer::write). A disabled
// tracer records nothing, and the untraced run never installs the
// decorator, so end-to-end metrics are measured with tracing off.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nvm/block_storage.h"

namespace perf {

enum class SpanKind : std::uint8_t {
  kTrain,           // Trainer::train
  kBuild,           // StoreBuilder::build / StoreCluster construction
  kMultiGet,        // Store::multi_get
  kRouterMultiGet,  // ClusterRouter::multi_get
  kRetrain,         // OnlineRetrainer::retrain_now
  kPump,            // OnlineRetrainer::pump
  kOpen,            // Store::open
  kReadBlock,       // BlockStorage::read_block
  kReadBlocks,      // BlockStorage::read_blocks
  kWriteBlock,      // BlockStorage::write_block
  kWriteBlocks,     // BlockStorage::write_blocks
  kSync,            // BlockStorage::sync
};

inline const char* span_name(SpanKind k) {
  static constexpr const char* kNames[] = {
      "train",       "build",       "multi_get", "router_multi_get",
      "retrain_now", "pump",        "open",      "read_block",
      "read_blocks", "write_block", "write_blocks", "sync"};
  return kNames[static_cast<std::size_t>(k)];
}

/// Which part of a run a span belongs to.
enum class Phase : std::uint8_t { kSetup, kReplay, kTimed };

struct Span {
  SpanKind kind = SpanKind::kTrain;
  Phase phase = Phase::kSetup;
  std::int32_t parent = -1;  ///< Index of the enclosing span, -1 at top.
  std::uint32_t blocks = 0;  ///< Blocks carried (storage spans only).
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  bool enabled() const { return enabled_; }

  /// Tags every span opened from now on (call between phases, when no
  /// other thread is recording).
  void set_phase(Phase p) { phase_ = p; }

  /// RAII span: opened at construction, closed at destruction; nested
  /// scopes on one thread record their parent.
  class Scope {
   public:
    Scope(Tracer& t, SpanKind kind, std::uint32_t blocks = 0) : t_(t) {
      if (t_.enabled_) index_ = t_.open(kind, blocks);
    }
    ~Scope() {
      if (index_ >= 0) t_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t index_ = -1;
  };

  /// Snapshot of the spans recorded so far (call once serving stopped).
  std::vector<Span> spans() const {
    std::lock_guard lock(mu_);
    return spans_;
  }

  /// Write the first `limit` spans, one tab-separated line each: index,
  /// parent, phase, name, blocks, start and end in ns (a parent always
  /// precedes its children). Returns false on an I/O error.
  bool write(const std::string& path, std::size_t limit) const {
    std::lock_guard lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    static constexpr const char* kPhases[] = {"setup", "replay", "timed"};
    std::fprintf(f,
                 "index\tparent\tphase\tname\tblocks\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < std::min(limit, spans_.size()); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%s\t%s\t%u\t%lld\t%lld\n", i, s.parent,
                   kPhases[static_cast<std::size_t>(s.phase)],
                   span_name(s.kind), s.blocks,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int32_t open(SpanKind kind, std::uint32_t blocks) {
    Span s;
    s.kind = kind;
    s.phase = phase_;
    s.parent = current_;
    s.blocks = blocks;
    std::lock_guard lock(mu_);
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    current_ = index;
    spans_.back().start_ns = now_ns();
    return index;
  }

  void close(std::int32_t index) {
    const std::int64_t t = now_ns();
    std::lock_guard lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = t;
    current_ = s.parent;
  }

  bool enabled_;
  Phase phase_ = Phase::kSetup;
  mutable std::mutex mu_;  ///< Guards spans_ (storage calls may come from
                           ///< any thread the store runs them on).
  std::vector<Span> spans_;
  static thread_local std::int32_t current_;
};

inline thread_local std::int32_t Tracer::current_ = -1;

/// Forwards every BlockStorage virtual to the wrapped backend, timing the
/// read, write and sync calls as spans. Batched-I/O preferences, write
/// stats and wave-buffer leases come from the backend unchanged, so the
/// store takes the same code paths with or without the decorator.
class TimedStorage final : public bandana::BlockStorage {
 public:
  TimedStorage(std::unique_ptr<bandana::BlockStorage> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const bandana::BlockStorage& inner() const { return *inner_; }

  std::size_t block_bytes() const override { return inner_->block_bytes(); }
  std::uint64_t num_blocks() const override { return inner_->num_blocks(); }

  void read_block(bandana::BlockId b, std::span<std::byte> out) const override {
    Tracer::Scope s(tracer_, SpanKind::kReadBlock, 1);
    inner_->read_block(b, out);
  }
  void write_block(bandana::BlockId b,
                   std::span<const std::byte> in) override {
    Tracer::Scope s(tracer_, SpanKind::kWriteBlock, 1);
    inner_->write_block(b, in);
  }
  void read_blocks(std::span<const bandana::BlockReadOp> ops) const override {
    Tracer::Scope s(tracer_, SpanKind::kReadBlocks,
                    static_cast<std::uint32_t>(ops.size()));
    inner_->read_blocks(ops);
  }
  void write_blocks(std::span<const bandana::BlockWriteOp> ops) override {
    Tracer::Scope s(tracer_, SpanKind::kWriteBlocks,
                    static_cast<std::uint32_t>(ops.size()));
    inner_->write_blocks(ops);
  }
  void sync() override {
    Tracer::Scope s(tracer_, SpanKind::kSync);
    inner_->sync();
  }

  bool prefers_batched_reads() const override {
    return inner_->prefers_batched_reads();
  }
  bool prefers_batched_writes() const override {
    return inner_->prefers_batched_writes();
  }
  bandana::BlockStorageWriteStats write_stats() const override {
    return inner_->write_stats();
  }
  // The lease is minted by the backend, so it returns its buffer to the
  // backend directly.
  WaveBufferLease lease_wave_buffer(std::size_t bytes) const override {
    return inner_->lease_wave_buffer(bytes);
  }
  bool same_backing(const bandana::BlockStorage& other) const override {
    const auto* timed = dynamic_cast<const TimedStorage*>(&other);
    return inner_->same_backing(timed != nullptr ? timed->inner() : other);
  }

 private:
  std::unique_ptr<bandana::BlockStorage> inner_;
  Tracer& tracer_;
};

/// `factory` with every storage it creates wrapped in a TimedStorage.
inline bandana::BlockStorageFactory timed_factory(
    bandana::BlockStorageFactory factory, Tracer& tracer) {
  return [factory = std::move(factory), &tracer](std::uint64_t blocks,
                                                 std::size_t bytes) {
    return std::unique_ptr<bandana::BlockStorage>(
        std::make_unique<TimedStorage>(factory(blocks, bytes), tracer));
  };
}

/// The backend under any TimedStorage wrapper.
inline const bandana::BlockStorage& unwrap(const bandana::BlockStorage& s) {
  const auto* timed = dynamic_cast<const TimedStorage*>(&s);
  return timed != nullptr ? timed->inner() : s;
}

}  // namespace perf
