#include "core/manifest.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <system_error>

namespace bandana {
namespace {

// "BNDMNFST" little-endian.
constexpr std::uint64_t kMagic = 0x5453464e4d444e42ull;
// magic u64 + version u32 + payload length u64 + checksum u64.
constexpr std::size_t kHeaderBytes = 28;

// The format is little-endian and u32 arrays are copied to and from it in
// bulk, so the host's own byte order must be little-endian.
static_assert(std::endian::native == std::endian::little,
              "the manifest format is read and written as host-order LE");

// FNV-1a's xor-multiply step applied to 64-bit little-endian words, with
// the tail bytes folded in one at a time. Each step is a bijection of the
// running state (xor with the input, then a multiply by an odd constant),
// so two payloads that differ within a single word always checksum apart.
std::uint64_t word_checksum(const std::uint8_t* data, std::size_t n) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, 8);
    h ^= w;
    h *= kPrime;
  }
  for (; i < n; ++i) {
    h ^= data[i];
    h *= kPrime;
  }
  return h;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " +
                           std::system_category().message(errno));
}

// ---- serialization -------------------------------------------------------

// Output cursor. With a null `out` it only counts, so one serialize pass
// sizes the buffer exactly and a second fills it: the layout is defined
// once, in serialize_payload.
struct Writer {
  std::uint8_t* out = nullptr;
  std::size_t n = 0;

  void put_raw(const void* src, std::size_t len) {
    if (out != nullptr && len != 0) std::memcpy(out + n, src, len);
    n += len;
  }
  void put_u32(std::uint32_t v) { put_raw(&v, 4); }
  void put_u64(std::uint64_t v) { put_raw(&v, 8); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_bytes(const std::string& s) {
    put_u64(s.size());
    put_raw(s.data(), s.size());
  }
  template <typename T>
  void put_u32_vec(const std::vector<T>& v) {
    static_assert(sizeof(T) == 4);
    put_u64(v.size());
    put_raw(v.data(), 4 * v.size());
  }
};

void serialize_payload(const Manifest& m, Writer& w) {
  w.put_u64(m.commit_seq);
  w.put_u64(m.trickle_epoch);
  w.put_u64(m.block_bytes);
  w.put_u64(m.vector_bytes);
  w.put_u64(m.vectors_per_block);
  w.put_u64(m.storage_blocks);
  w.put_u64(m.next_block);
  w.put_bytes(m.block_file);
  w.put_u64(m.tables.size());
  for (const ManifestTable& t : m.tables) {
    w.put_u32(t.first_block);
    w.put_u64(t.policy.cache_vectors);
    w.put_u32(static_cast<std::uint32_t>(t.policy.policy));
    w.put_u32(t.policy.access_threshold);
    w.put_f64(t.policy.insertion_position);
    w.put_f64(t.policy.shadow_multiplier);
    w.put_u32_vec(t.order);
    w.put_u32_vec(t.block_map);
    w.put_u32_vec(t.access_counts);
    w.put_u32_vec(t.free_blocks);
    w.put_u32(t.retired ? 1u : 0u);
  }
  w.put_u32_vec(m.free_pool);
  w.put_u64(m.pending_installs.size());
  for (const std::vector<BlockId>& blocks : m.pending_installs) {
    w.put_u32_vec(blocks);
  }
}

// ---- bounds-checked deserialization --------------------------------------

// Cursor over the payload; every get_* either succeeds or flips `ok` and
// returns zero, so the parser can't read past a truncated buffer.
struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  bool ok = true;

  std::uint32_t get_u32() {
    std::uint32_t v = 0;
    if (take(4)) std::memcpy(&v, data + pos - 4, 4);
    return v;
  }

  std::uint64_t get_u64() {
    std::uint64_t v = 0;
    if (take(8)) std::memcpy(&v, data + pos - 8, 8);
    return v;
  }

  double get_f64() { return std::bit_cast<double>(get_u64()); }

  std::string get_bytes() {
    std::uint64_t n = get_u64();
    if (!take(n)) return {};
    return std::string(reinterpret_cast<const char*>(data + pos - n),
                       static_cast<std::size_t>(n));
  }

  template <typename T>
  std::vector<T> get_u32_vec() {
    static_assert(sizeof(T) == 4);
    std::uint64_t n = get_u64();
    // An element count can't exceed the bytes left to hold it.
    if (!ok || n > (size - pos) / 4) {
      ok = false;
      return {};
    }
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n != 0) std::memcpy(v.data(), data + pos, 4 * v.size());
    pos += 4 * v.size();
    return v;
  }

  bool take(std::uint64_t n) {
    if (!ok || n > size - pos) {
      ok = false;
      return false;
    }
    pos += static_cast<std::size_t>(n);
    return true;
  }
};

std::optional<Manifest> parse_payload(const std::uint8_t* data,
                                      std::size_t size, std::string* error) {
  Reader r{data, size};
  Manifest m;
  m.commit_seq = r.get_u64();
  m.trickle_epoch = r.get_u64();
  m.block_bytes = r.get_u64();
  m.vector_bytes = r.get_u64();
  m.vectors_per_block = r.get_u64();
  m.storage_blocks = r.get_u64();
  m.next_block = r.get_u64();
  m.block_file = r.get_bytes();
  std::uint64_t num_tables = r.get_u64();
  if (!r.ok || num_tables > (size - r.pos)) {
    if (error) *error = "manifest payload truncated";
    return std::nullopt;
  }
  m.tables.reserve(static_cast<std::size_t>(num_tables));
  for (std::uint64_t i = 0; i < num_tables && r.ok; ++i) {
    ManifestTable t;
    t.first_block = static_cast<BlockId>(r.get_u32());
    t.policy.cache_vectors = r.get_u64();
    t.policy.policy = static_cast<PrefetchPolicy>(r.get_u32());
    t.policy.access_threshold = r.get_u32();
    t.policy.insertion_position = r.get_f64();
    t.policy.shadow_multiplier = r.get_f64();
    t.order = r.get_u32_vec<VectorId>();
    t.block_map = r.get_u32_vec<BlockId>();
    t.access_counts = r.get_u32_vec<std::uint32_t>();
    t.free_blocks = r.get_u32_vec<BlockId>();
    t.retired = r.get_u32() != 0;
    m.tables.push_back(std::move(t));
  }
  m.free_pool = r.get_u32_vec<BlockId>();
  std::uint64_t num_pending = r.get_u64();
  if (!r.ok || num_pending > (size - r.pos)) {
    if (error) *error = "manifest payload truncated";
    return std::nullopt;
  }
  m.pending_installs.reserve(static_cast<std::size_t>(num_pending));
  for (std::uint64_t i = 0; i < num_pending && r.ok; ++i) {
    m.pending_installs.push_back(r.get_u32_vec<BlockId>());
  }
  if (!r.ok || r.pos != size) {
    if (error) *error = "manifest payload truncated or overlong";
    return std::nullopt;
  }
  return m;
}

// RAII fd so every error path closes.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

void write_all(int fd, const std::uint8_t* data, std::size_t n,
               const std::string& path) {
  std::size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("manifest write failed for " + path);
    }
    off += static_cast<std::size_t>(w);
  }
}

void fsync_path_dir(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0                ? "/"
                                                      : path.substr(0, slash);
  Fd d;
  d.fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (d.fd < 0) throw_errno("manifest directory open failed for " + dir);
  if (::fsync(d.fd) != 0)
    throw_errno("manifest directory fsync failed for " + dir);
}

}  // namespace

std::size_t write_manifest(const std::string& path, const Manifest& m,
                           const ManifestCommitHooks* hooks) {
  // One exactly-sized buffer: the payload is serialized in place after the
  // header, then checksummed, and the header is filled in last.
  Writer counter;
  serialize_payload(m, counter);
  const std::size_t payload_size = counter.n;
  const std::size_t size = kHeaderBytes + payload_size;
  const auto blob = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  Writer payload{blob.get() + kHeaderBytes};
  serialize_payload(m, payload);
  assert(payload.n == payload_size);
  Writer header{blob.get()};
  header.put_u64(kMagic);
  header.put_u32(kManifestVersion);
  header.put_u64(payload_size);
  header.put_u64(word_checksum(blob.get() + kHeaderBytes, payload_size));

  const std::string tmp = path + ".tmp";
  {
    Fd f;
    f.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (f.fd < 0) throw_errno("manifest tmp open failed for " + tmp);
    write_all(f.fd, blob.get(), size, tmp);
    if (::fsync(f.fd) != 0) throw_errno("manifest tmp fsync failed for " + tmp);
  }
  if (hooks && hooks->before_flip) hooks->before_flip();
  // The pointer flip: rename is atomic, so `path` transitions from the
  // previous complete manifest to the new complete one in one step.
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    throw_errno("manifest rename failed for " + path);
  if (hooks && hooks->after_flip) hooks->after_flip();
  fsync_path_dir(path);
  return size;
}

std::optional<Manifest> load_manifest(const std::string& path,
                                      std::string* error) {
  Fd f;
  f.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (f.fd < 0) {
    if (error) *error = "manifest open failed for " + path + ": " +
                        std::system_category().message(errno);
    return std::nullopt;
  }
  struct stat st{};
  if (::fstat(f.fd, &st) != 0 ||
      st.st_size < static_cast<off_t>(kHeaderBytes)) {
    if (error) *error = "manifest too small at " + path;
    return std::nullopt;
  }
  std::vector<std::uint8_t> blob(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < blob.size()) {
    ssize_t r = ::read(f.fd, blob.data() + off, blob.size() - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (error) *error = "manifest read failed for " + path + ": " +
                          std::system_category().message(errno);
      return std::nullopt;
    }
    if (r == 0) break;
    off += static_cast<std::size_t>(r);
  }
  if (off != blob.size()) {
    if (error) *error = "manifest short read at " + path;
    return std::nullopt;
  }

  Reader h{blob.data(), blob.size()};
  if (h.get_u64() != kMagic) {
    if (error) *error = "manifest bad magic at " + path;
    return std::nullopt;
  }
  std::uint32_t version = h.get_u32();
  if (version != kManifestVersion) {
    if (error)
      *error = "manifest version " + std::to_string(version) +
               " unsupported at " + path;
    return std::nullopt;
  }
  std::uint64_t payload_bytes = h.get_u64();
  std::uint64_t checksum = h.get_u64();
  if (!h.ok || payload_bytes != blob.size() - h.pos) {
    if (error) *error = "manifest payload length mismatch at " + path;
    return std::nullopt;
  }
  const std::uint8_t* payload = blob.data() + h.pos;
  if (word_checksum(payload, static_cast<std::size_t>(payload_bytes)) !=
      checksum) {
    if (error) *error = "manifest checksum mismatch at " + path;
    return std::nullopt;
  }
  return parse_payload(payload, static_cast<std::size_t>(payload_bytes), error);
}

bool manifest_valid(const std::string& path) {
  return load_manifest(path).has_value();
}

}  // namespace bandana
