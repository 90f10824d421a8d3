// Versioned, checksummed store manifest — the durable root of the
// persistence layer (crash recovery + warm restart).
//
// The manifest lives in its own small file next to the block file and
// records everything Store::open needs to reconstruct serving state
// without retraining: store geometry, per-table config (layout order,
// policy, access counts), each table's local-block -> storage-block map,
// the replacement-block free banks (so double buffering keeps alternating
// across restarts instead of growing storage), the trickle epoch, and the
// block-file path.
//
// Commit protocol (write_manifest): the whole manifest is serialized into
// one buffer, written to `<path>.tmp`, fsync'd, and then atomically
// rename(2)'d over `path`, followed by an fsync of the parent directory so
// the directory entry itself is durable. rename is the pointer flip: a
// crash at ANY instant leaves either the complete previous manifest or the
// complete new one — never a torn mix. Store orders its commits so the
// data a manifest references is durable (BlockStorage::sync) BEFORE the
// flip, and blocks referenced by the currently-durable manifest are never
// overwritten until a newer manifest that drops them has committed (the
// trickle path's double-buffered replacement blocks provide exactly this
// alternation). Recovery therefore always lands on an entirely-old or
// entirely-new plan.
//
// The commit serializes straight into one exactly-sized buffer (header,
// then payload; every u32 array is one bulk little-endian copy) and writes
// it with no further copy, so its cost beyond the I/O is a few memcpys and
// one checksum pass.
//
// Validation (load_manifest): magic, format version, payload length and a
// word-wise FNV-1a checksum over the payload (the xor-multiply step on
// 64-bit little-endian words, tail bytes folded in singly) must all match;
// any short read, truncation or flipped byte makes the manifest invalid. Callers decide
// what invalid means — Store::open refuses to guess and throws, while the
// manifest-routed storage factories treat "no valid manifest" as
// permission to start fresh (truncate).
//
// The format is fixed-width little-endian (the platforms we serve on);
// bump kManifestVersion for any layout change — older binaries then
// cleanly reject newer manifests instead of misparsing them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/config.h"

namespace bandana {

/// Current on-disk format version. Loaders reject anything else.
/// v2 added live-migration state: per-table retired tombstones, the
/// store-wide reclaimed free pool, and pending-install block reservations.
/// v3 keeps v2's layout and checksums the payload a 64-bit word at a time
/// instead of a byte at a time; a v2 manifest is rejected like a v1 one.
inline constexpr std::uint32_t kManifestVersion = 3;

/// One table's recoverable state.
struct ManifestTable {
  BlockId first_block = 0;               ///< Initial contiguous publish base.
  std::vector<VectorId> order;           ///< Layout permutation (position->v).
  std::vector<BlockId> block_map;        ///< local block -> storage block
  std::vector<std::uint32_t> access_counts;
  TablePolicy policy;
  /// Storage blocks retired by this table's completed swaps, free for its
  /// next republish (the replacement bank).
  std::vector<BlockId> free_blocks;
  /// Tombstone: the table was migrated out (Store::retire_table) — its
  /// slot keeps the TableId but it no longer serves, and its blocks were
  /// reclaimed into the store-wide free pool.
  bool retired = false;
};

/// Everything Store::open needs, plus the commit bookkeeping.
struct Manifest {
  std::uint64_t commit_seq = 0;     ///< Monotonic per-store commit counter.
  std::uint64_t trickle_epoch = 0;  ///< Completed mapping swaps (all tables).
  std::uint64_t block_bytes = 0;
  std::uint64_t vector_bytes = 0;
  std::uint64_t vectors_per_block = 0;
  std::uint64_t storage_blocks = 0;  ///< Blocks the backing file is sized to.
  std::uint64_t next_block = 0;      ///< First never-allocated storage block.
  /// Path of the block file this manifest describes, as given to the
  /// factory (empty for memory-backed stores, which are not recoverable).
  std::string block_file;
  std::vector<ManifestTable> tables;
  /// Store-wide free pool: blocks reclaimed from retired tables, handed to
  /// future streaming installs before the file grows.
  std::vector<BlockId> free_pool;
  /// Blocks reserved by streaming installs still in flight at commit time
  /// (Store::begin_table_install). No table references them yet; recovery
  /// reclaims each list into the free pool and drops the record, so a
  /// crash mid-stream leaves no half-table and leaks no storage.
  std::vector<std::vector<BlockId>> pending_installs;
};

/// Test seam for crash injection around the commit's atomic pointer flip.
/// `before_flip` runs after the tmp file is written and fsync'd but before
/// the rename; `after_flip` runs after the rename, before the directory
/// fsync. A hook that throws models a kill at exactly that boundary.
struct ManifestCommitHooks {
  std::function<void()> before_flip;
  std::function<void()> after_flip;
};

/// Serialize `m` and commit it crash-atomically at `path` (tmp file +
/// fsync + rename + parent-directory fsync). Returns the bytes committed.
/// Throws std::runtime_error on any I/O failure — the previous manifest
/// (if any) is still intact then.
std::size_t write_manifest(const std::string& path, const Manifest& m,
                           const ManifestCommitHooks* hooks = nullptr);

/// Load and fully validate the manifest at `path`. Returns std::nullopt
/// (with a human-readable reason in *error when non-null) on a missing
/// file, bad magic, unknown version, truncation, checksum mismatch or any
/// structural overrun — never throws for invalid content.
std::optional<Manifest> load_manifest(const std::string& path,
                                      std::string* error = nullptr);

/// True iff `path` holds a complete, checksum-valid manifest. The
/// manifest-routed storage factories probe this to decide fresh-vs-preserve
/// on their first invocation.
bool manifest_valid(const std::string& path);

}  // namespace bandana
