// Manifest format tests: round-trip fidelity, crash-atomic commit
// mechanics (tmp file + rename), and rejection of every corruption mode —
// a manifest that doesn't validate byte-for-byte must never load. The
// store-level tests pin what Store composes into each commit and the
// commit metrics it reports.
#include "core/manifest.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/store.h"
#include "core/store_builder.h"
#include "partition/layout.h"
#include "trace/embedding_table.h"

namespace bandana {
namespace {

std::string tmp_path(const std::string& name) {
  return "/tmp/bandana_manifest_test_" + std::to_string(::getpid()) + "_" +
         name;
}

Manifest sample_manifest() {
  Manifest m;
  m.commit_seq = 7;
  m.trickle_epoch = 3;
  m.block_bytes = 4096;
  m.vector_bytes = 128;
  m.vectors_per_block = 32;
  m.storage_blocks = 300;
  m.next_block = 260;
  m.block_file = "/tmp/blocks.bin";

  ManifestTable t0;
  t0.first_block = 0;
  t0.order = {3, 1, 0, 2, 4, 5};
  t0.block_map = {17, 4};
  t0.access_counts = {9, 0, 4, 2, 2, 1};
  t0.policy.cache_vectors = 2;
  t0.policy.policy = PrefetchPolicy::kShadowPosition;
  t0.policy.access_threshold = 5;
  t0.policy.insertion_position = 0.25;
  t0.policy.shadow_multiplier = 2.0;
  t0.free_blocks = {128, 131};
  m.tables.push_back(t0);

  ManifestTable t1;
  t1.first_block = 2;
  t1.order = {0, 1, 2, 3};
  t1.block_map = {2, 3};
  t1.policy.cache_vectors = 1;
  t1.policy.policy = PrefetchPolicy::kNone;
  m.tables.push_back(t1);
  return m;
}

void expect_equal(const Manifest& a, const Manifest& b) {
  EXPECT_EQ(a.commit_seq, b.commit_seq);
  EXPECT_EQ(a.trickle_epoch, b.trickle_epoch);
  EXPECT_EQ(a.block_bytes, b.block_bytes);
  EXPECT_EQ(a.vector_bytes, b.vector_bytes);
  EXPECT_EQ(a.vectors_per_block, b.vectors_per_block);
  EXPECT_EQ(a.storage_blocks, b.storage_blocks);
  EXPECT_EQ(a.next_block, b.next_block);
  EXPECT_EQ(a.block_file, b.block_file);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (std::size_t i = 0; i < a.tables.size(); ++i) {
    const ManifestTable& x = a.tables[i];
    const ManifestTable& y = b.tables[i];
    EXPECT_EQ(x.first_block, y.first_block);
    EXPECT_EQ(x.order, y.order);
    EXPECT_EQ(x.block_map, y.block_map);
    EXPECT_EQ(x.access_counts, y.access_counts);
    EXPECT_EQ(x.free_blocks, y.free_blocks);
    EXPECT_EQ(x.policy.cache_vectors, y.policy.cache_vectors);
    EXPECT_EQ(x.policy.policy, y.policy.policy);
    EXPECT_EQ(x.policy.access_threshold, y.policy.access_threshold);
    EXPECT_DOUBLE_EQ(x.policy.insertion_position, y.policy.insertion_position);
    EXPECT_DOUBLE_EQ(x.policy.shadow_multiplier, y.policy.shadow_multiplier);
  }
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ManifestTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_ = tmp_path("m.manifest");
};

TEST_F(ManifestTest, RoundTripsEveryField) {
  const Manifest m = sample_manifest();
  write_manifest(path_, m);
  std::string err;
  auto loaded = load_manifest(path_, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  expect_equal(m, *loaded);
  EXPECT_TRUE(manifest_valid(path_));
}

TEST_F(ManifestTest, EmptyManifestRoundTrips) {
  Manifest m;
  m.block_bytes = 4096;
  m.vector_bytes = 128;
  write_manifest(path_, m);
  auto loaded = load_manifest(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->tables.empty());
  EXPECT_TRUE(loaded->block_file.empty());
}

TEST_F(ManifestTest, CommitOverwritesAtomicallyAndCleansTmp) {
  Manifest m = sample_manifest();
  write_manifest(path_, m);
  m.commit_seq = 8;
  m.tables.pop_back();
  write_manifest(path_, m);
  auto loaded = load_manifest(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->commit_seq, 8u);
  EXPECT_EQ(loaded->tables.size(), 1u);
  // The tmp file was renamed over the target, not left behind.
  EXPECT_NE(::access((path_ + ".tmp").c_str(), F_OK), 0);
}

TEST_F(ManifestTest, MissingFileIsInvalid) {
  std::string err;
  EXPECT_FALSE(load_manifest(path_, &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(manifest_valid(path_));
}

TEST_F(ManifestTest, EveryTruncationPointIsInvalid) {
  write_manifest(path_, sample_manifest());
  const std::vector<char> blob = read_file(path_);
  ASSERT_GT(blob.size(), 28u);
  // A torn write can stop at any byte; each prefix must be rejected (step
  // a few bytes to keep the sweep fast).
  for (std::size_t n = 0; n < blob.size(); n += 7) {
    write_file(path_, {blob.begin(), blob.begin() + n});
    EXPECT_FALSE(manifest_valid(path_)) << "prefix " << n << " accepted";
  }
}

TEST_F(ManifestTest, EveryFlippedByteIsInvalid) {
  write_manifest(path_, sample_manifest());
  std::vector<char> blob = read_file(path_);
  for (std::size_t i = 0; i < blob.size(); i += 11) {
    std::vector<char> bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    write_file(path_, bad);
    EXPECT_FALSE(manifest_valid(path_)) << "flip at " << i << " accepted";
  }
  // The pristine blob still loads (the corruption sweep is the thing that
  // invalidates, not the rewrite plumbing).
  write_file(path_, blob);
  EXPECT_TRUE(manifest_valid(path_));
}

TEST_F(ManifestTest, TrailingGarbageIsInvalid) {
  write_manifest(path_, sample_manifest());
  std::vector<char> blob = read_file(path_);
  blob.push_back('x');
  write_file(path_, blob);
  EXPECT_FALSE(manifest_valid(path_));
}

TEST_F(ManifestTest, UnknownVersionIsInvalid) {
  write_manifest(path_, sample_manifest());
  std::vector<char> blob = read_file(path_);
  blob[8] = static_cast<char>(kManifestVersion + 1);  // version field
  write_file(path_, blob);
  std::string err;
  EXPECT_FALSE(load_manifest(path_, &err).has_value());
  EXPECT_NE(err.find("version"), std::string::npos);
}

TEST_F(ManifestTest, HooksFireAroundTheFlip) {
  // before_flip: tmp exists, target does not yet. after_flip: target
  // exists. This is the boundary pair the crash-injection suite kills at.
  int order = 0;
  int before_at = 0;
  int after_at = 0;
  ManifestCommitHooks hooks;
  hooks.before_flip = [&] {
    before_at = ++order;
    EXPECT_EQ(::access((path_ + ".tmp").c_str(), F_OK), 0);
    EXPECT_NE(::access(path_.c_str(), F_OK), 0);
  };
  hooks.after_flip = [&] {
    after_at = ++order;
    EXPECT_EQ(::access(path_.c_str(), F_OK), 0);
  };
  write_manifest(path_, sample_manifest(), &hooks);
  EXPECT_EQ(before_at, 1);
  EXPECT_EQ(after_at, 2);
  EXPECT_TRUE(manifest_valid(path_));
}

TEST_F(ManifestTest, ThrowingBeforeFlipPreservesPreviousManifest) {
  Manifest m = sample_manifest();
  write_manifest(path_, m);
  m.commit_seq = 99;
  ManifestCommitHooks hooks;
  hooks.before_flip = [] { throw std::runtime_error("killed before flip"); };
  EXPECT_THROW(write_manifest(path_, m, &hooks), std::runtime_error);
  auto loaded = load_manifest(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->commit_seq, 7u);  // the old version survived intact
}

TEST_F(ManifestTest, RoundTripsAPayloadThatIsNotWholeWords) {
  // An odd-length block-file path leaves the payload a few bytes past a
  // multiple of 8, so the checksum's byte-wise tail carries part of it;
  // every optional list is empty.
  Manifest m = sample_manifest();
  m.block_file = "/tmp/odd.bin";
  m.tables[0].free_blocks.clear();
  m.tables[1].retired = true;
  ASSERT_TRUE(m.free_pool.empty());
  ASSERT_TRUE(m.pending_installs.empty());
  write_manifest(path_, m);
  const std::size_t payload = read_file(path_).size() - 28;
  EXPECT_NE(payload % 8, 0u);

  std::string err;
  auto loaded = load_manifest(path_, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  expect_equal(m, *loaded);
  EXPECT_FALSE(loaded->tables[0].retired);
  EXPECT_TRUE(loaded->tables[1].retired);
  EXPECT_TRUE(loaded->free_pool.empty());
  EXPECT_TRUE(loaded->pending_installs.empty());

  // The last byte lies in the tail past the final whole word: flipping it
  // must still fail the checksum.
  std::vector<char> blob = read_file(path_);
  blob.back() = static_cast<char>(blob.back() ^ 0x01);
  write_file(path_, blob);
  EXPECT_FALSE(load_manifest(path_, &err).has_value());
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

// ---- store-level: what a commit records, and what it costs ---------------

constexpr std::uint32_t kVectors = 256;
constexpr std::uint16_t kDim = 32;  // 128 B vectors, 32 per 4 KB block
constexpr std::uint32_t kVpb = 32;

EmbeddingTable make_values(float tag) {
  EmbeddingTable e(kVectors, kDim);
  for (std::uint32_t v = 0; v < kVectors; ++v) {
    auto row = e.vector(v);
    for (std::uint16_t d = 0; d < kDim; ++d) {
      row[d] = tag * 1000.0f + static_cast<float>(v) +
               static_cast<float>(d) / 64.0f;
    }
  }
  return e;
}

TablePlan plan(std::uint64_t layout_seed) {
  TablePolicy pol;
  pol.cache_vectors = 64;
  pol.policy = PrefetchPolicy::kNone;
  return {layout_seed == 0 ? BlockLayout::identity(kVectors, kVpb)
                           : BlockLayout::random(kVectors, kVpb, layout_seed),
          {}, pol, 0.0};
}

StoreConfig store_config() {
  StoreConfig cfg;
  cfg.cache_shards = 1;
  cfg.simulate_timing = false;
  return cfg;
}

class StoreManifestTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(block_.c_str());
    std::remove(manifest_.c_str());
    std::remove((manifest_ + ".tmp").c_str());
  }
  std::string block_ = tmp_path("store.bin");
  std::string manifest_ = tmp_path("store.manifest");
};

TEST_F(StoreManifestTest, CommittedTablesEqualEachTablesMappingSnapshot) {
  const EmbeddingTable a = make_values(1.0f);
  const EmbeddingTable b = make_values(2.0f);
  Store store = StoreBuilder(store_config())
                    .file_storage(block_)
                    .manifest(manifest_)
                    .add_table(a, plan(0))
                    .add_table(b, plan(0))
                    .build();
  // A finished trickle swaps table 0 onto a new layout, new values and
  // replacement blocks, and commits.
  TrickleRepublish push =
      store.begin_trickle_republish(0, b, plan(0xBEEF), RepublishConfig{});
  while (!push.done()) push.pump();
  ASSERT_TRUE(push.mapping_swapped());

  std::string err;
  const auto m = load_manifest(manifest_, &err);
  ASSERT_TRUE(m.has_value()) << err;
  EXPECT_EQ(m->trickle_epoch, 1u);
  ASSERT_EQ(m->tables.size(), store.num_tables());
  for (TableId t = 0; t < store.num_tables(); ++t) {
    const BandanaTable& table = store.table(t);
    const BandanaTable::RetrainedState snap = table.mapping_snapshot();
    const ManifestTable& mt = m->tables[t];
    EXPECT_EQ(mt.first_block, table.first_block()) << "table " << t;
    EXPECT_EQ(mt.order, snap.layout.order()) << "table " << t;
    EXPECT_EQ(mt.block_map, snap.block_map) << "table " << t;
    EXPECT_EQ(mt.access_counts, snap.access_counts) << "table " << t;
    EXPECT_EQ(mt.policy.cache_vectors, snap.policy.cache_vectors);
    EXPECT_EQ(mt.policy.policy, snap.policy.policy);
    EXPECT_EQ(mt.policy.access_threshold, snap.policy.access_threshold);
    EXPECT_DOUBLE_EQ(mt.policy.insertion_position,
                     snap.policy.insertion_position);
    EXPECT_DOUBLE_EQ(mt.policy.shadow_multiplier,
                     snap.policy.shadow_multiplier);
    EXPECT_FALSE(mt.retired);
  }
  // The swap moved table 0 off its first layout and onto fresh blocks.
  EXPECT_EQ(m->tables[0].order, plan(0xBEEF).layout.order());
  EXPECT_NE(m->tables[0].block_map, m->tables[1].block_map);
}

TEST_F(StoreManifestTest, CommitMetricsAreReportedOnlyWithAManifest) {
  const EmbeddingTable a = make_values(1.0f);
  Store file = StoreBuilder(store_config())
                   .file_storage(block_)
                   .manifest(manifest_)
                   .add_table(a, plan(0))
                   .build();
  const StoreMetrics fm = file.store_metrics();
  EXPECT_GT(fm.manifest_commits, 0u);
  EXPECT_GT(fm.manifest_commit_us, 0u);
  struct stat st{};
  ASSERT_EQ(::stat(manifest_.c_str(), &st), 0);
  EXPECT_EQ(fm.manifest_bytes, static_cast<std::uint64_t>(st.st_size));

  Store memory =
      StoreBuilder(store_config()).add_table(a, plan(0)).build();
  const StoreMetrics mm = memory.store_metrics();
  EXPECT_EQ(mm.manifest_commits, 0u);
  EXPECT_EQ(mm.manifest_commit_us, 0u);
  EXPECT_EQ(mm.manifest_bytes, 0u);
}

}  // namespace
}  // namespace bandana
