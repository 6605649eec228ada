#pragma once
/// \file binary_io.hpp
/// Little-endian binary serialization primitives used by the dataset format
/// and the neural-network model format. All multi-byte values are written
/// little-endian regardless of host order (x86/ARM little-endian fast path).
///
/// Untrusted-input hardening: every length field a BinaryReader decodes is
/// bounds-checked against a configurable allocation budget *before* any
/// memory is reserved, so a corrupt or hostile length (e.g.
/// 0xFFFFFFFFFFFFFFFF) produces a descriptive std::runtime_error naming the
/// file and byte offset instead of a multi-GB allocation. The default budget
/// is generous for trusted files; network-facing decoders (net::FrameReader)
/// layer much tighter per-field limits on top of the same contract.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace dlpic::util {

/// RAII binary writer. Throws std::runtime_error on open failure.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);

  void write_u32(uint32_t v);
  void write_u64(uint64_t v);
  void write_i64(int64_t v);
  void write_f64(double v);
  void write_string(const std::string& s);          // u64 length + bytes
  void write_f64_array(const double* data, size_t n);
  void write_f64_vector(const std::vector<double>& v);  // u64 length + data

  /// Flushes buffered data; stream closes on destruction.
  void flush();

 private:
  std::ofstream out_;
  std::string path_;
};

/// Default BinaryReader allocation budget: 1 GiB. Far above any legitimate
/// dlpic artifact (model bundles and datasets are tens of MB) yet small
/// enough that a corrupt length field fails fast instead of invoking the
/// OOM killer.
inline constexpr uint64_t kDefaultMaxAlloc = 1ull << 30;

/// RAII binary reader matching BinaryWriter's format.
/// All read_* methods throw std::runtime_error on EOF/corruption, naming the
/// file and the byte offset where decoding failed. Short reads are detected
/// by comparing bytes actually read (gcount), not just stream state, so a
/// file cut mid-value cannot yield partially-written garbage.
class BinaryReader {
 public:
  /// `max_alloc` bounds the bytes any single length-prefixed read
  /// (read_string / read_f64_vector) may allocate. Lengths above it throw
  /// before allocating.
  explicit BinaryReader(const std::string& path, uint64_t max_alloc = kDefaultMaxAlloc);

  uint32_t read_u32();
  uint64_t read_u64();
  int64_t read_i64();
  double read_f64();
  std::string read_string();
  void read_f64_array(double* data, size_t n);
  /// u64 length + data. A vector spanning a whole 2 MB page asks for
  /// transparent huge pages on its 2 MB-aligned interior before the read.
  std::vector<double> read_f64_vector();

  /// True when the stream is positioned at end-of-file (or has failed — a
  /// reader that already threw has no more bytes to offer).
  bool at_eof();

  /// Bytes successfully consumed so far (the offset reported by errors).
  [[nodiscard]] uint64_t offset() const { return offset_; }

  /// The file being read (named by every error).
  [[nodiscard]] const std::string& path() const { return path_; }

  /// The allocation budget for length-prefixed reads.
  [[nodiscard]] uint64_t max_alloc() const { return max_alloc_; }

  /// Adjusts the allocation budget (e.g. tighter for untrusted sources).
  void set_max_alloc(uint64_t max_alloc) { max_alloc_ = max_alloc; }

 private:
  void require(size_t bytes);  // post-read: gcount() must equal `bytes`
  void check_alloc(uint64_t bytes, const char* what);
  std::ifstream in_;
  std::string path_;
  uint64_t max_alloc_;
  uint64_t offset_ = 0;
};

}  // namespace dlpic::util
