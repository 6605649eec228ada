#include "util/binary_io.hpp"

#include <sys/mman.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace dlpic::util {

static_assert(std::endian::native == std::endian::little,
              "dlpic binary formats assume a little-endian host");

namespace {

/// Asks for transparent huge pages on the 2 MB-aligned interior of
/// [data, data + bytes), before its first touch: one fault per 2 MB instead
/// of one per 4 KB. The start is rounded up and the end down, so no byte
/// outside the buffer is advised. A hint only: its result is ignored, and
/// with THP off or absent the memory is mapped as before.
void advise_huge_pages([[maybe_unused]] const void* data, [[maybe_unused]] size_t bytes) {
#ifdef MADV_HUGEPAGE
  constexpr uintptr_t kHugePage = uintptr_t{1} << 21;
  const auto begin = reinterpret_cast<uintptr_t>(data);
  const uintptr_t lo = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const uintptr_t hi = (begin + bytes) & ~(kHugePage - 1);
  if (hi > lo) (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#endif
}

}  // namespace

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary), path_(path) {
  if (!out_) throw std::runtime_error("BinaryWriter: cannot create " + path);
}

void BinaryWriter::write_u32(uint32_t v) { out_.write(reinterpret_cast<const char*>(&v), 4); }
void BinaryWriter::write_u64(uint64_t v) { out_.write(reinterpret_cast<const char*>(&v), 8); }
void BinaryWriter::write_i64(int64_t v) { out_.write(reinterpret_cast<const char*>(&v), 8); }
void BinaryWriter::write_f64(double v) { out_.write(reinterpret_cast<const char*>(&v), 8); }

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void BinaryWriter::write_f64_array(const double* data, size_t n) {
  out_.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(n * 8));
}

void BinaryWriter::write_f64_vector(const std::vector<double>& v) {
  write_u64(v.size());
  write_f64_array(v.data(), v.size());
}

void BinaryWriter::flush() {
  out_.flush();
  if (!out_) throw std::runtime_error("BinaryWriter: write failure on " + path_);
}

BinaryReader::BinaryReader(const std::string& path, uint64_t max_alloc)
    : in_(path, std::ios::binary), path_(path), max_alloc_(max_alloc) {
  if (!in_) throw std::runtime_error("BinaryReader: cannot open " + path);
}

void BinaryReader::require(size_t bytes) {
  // gcount() is the byte count of the last unformatted read — the honest
  // short-read signal. Stream state alone misses the case where read()
  // delivered a partial tail before hitting EOF.
  const size_t got = static_cast<size_t>(in_.gcount());
  if (got != bytes || in_.bad()) {
    throw std::runtime_error("BinaryReader: truncated read (wanted " +
                             std::to_string(bytes) + " bytes, got " + std::to_string(got) +
                             ") at offset " + std::to_string(offset_) + " in " + path_);
  }
  offset_ += bytes;
}

void BinaryReader::check_alloc(uint64_t bytes, const char* what) {
  if (bytes > max_alloc_) {
    throw std::runtime_error("BinaryReader: " + std::string(what) + " length " +
                             std::to_string(bytes) + " bytes exceeds max_alloc " +
                             std::to_string(max_alloc_) + " at offset " +
                             std::to_string(offset_) + " in " + path_ +
                             " (corrupt or hostile length field)");
  }
}

uint32_t BinaryReader::read_u32() {
  uint32_t v = 0;
  in_.read(reinterpret_cast<char*>(&v), 4);
  require(4);
  return v;
}

uint64_t BinaryReader::read_u64() {
  uint64_t v = 0;
  in_.read(reinterpret_cast<char*>(&v), 8);
  require(8);
  return v;
}

int64_t BinaryReader::read_i64() {
  int64_t v = 0;
  in_.read(reinterpret_cast<char*>(&v), 8);
  require(8);
  return v;
}

double BinaryReader::read_f64() {
  double v = 0;
  in_.read(reinterpret_cast<char*>(&v), 8);
  require(8);
  return v;
}

std::string BinaryReader::read_string() {
  const uint64_t n = read_u64();
  check_alloc(n, "string");
  std::string s(static_cast<size_t>(n), '\0');
  in_.read(s.data(), static_cast<std::streamsize>(n));
  require(static_cast<size_t>(n));
  return s;
}

void BinaryReader::read_f64_array(double* data, size_t n) {
  in_.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(n * 8));
  require(n * 8);
}

std::vector<double> BinaryReader::read_f64_vector() {
  const uint64_t n = read_u64();
  // Compare in element space so an n*8 byte-count overflow cannot slip a
  // huge length past the budget.
  if (n > max_alloc_ / 8) {
    throw std::runtime_error("BinaryReader: f64 vector length " + std::to_string(n) +
                             " elements exceeds max_alloc " + std::to_string(max_alloc_) +
                             " bytes at offset " + std::to_string(offset_) + " in " +
                             path_ + " (corrupt or hostile length field)");
  }
  std::vector<double> v;
  v.reserve(static_cast<size_t>(n));
  advise_huge_pages(v.data(), static_cast<size_t>(n) * sizeof(double));
  v.resize(static_cast<size_t>(n));
  read_f64_array(v.data(), static_cast<size_t>(n));
  return v;
}

bool BinaryReader::at_eof() {
  // A failed stream (a read already threw) has nothing further to offer;
  // peek() on it would not set eofbit, so check the state first instead of
  // trusting a peek on a failed stream.
  if (!in_.good()) return true;
  return in_.peek() == std::char_traits<char>::eof();
}

}  // namespace dlpic::util
