// Binary (de)serialization helpers for index, hierarchy, and snapshot
// persistence. Format discipline: fixed-width little-endian integers (we
// only target little-endian platforms, checked at build time), a 4-byte
// magic + 4-byte version per file, length-prefixed arrays of PODs, and a
// CRC32C over every durable payload (common/crc32c.h).
//
// Aligned arrays (WriteArray / ReadArray) are what lets a decoder adopt a
// payload in place: the array starts at an 8-byte boundary of its payload,
// its u64 prefix counts BYTES, and zero padding closes it to the next
// 8-byte boundary. Read from an 8-aligned buffer (every BinarySpanReader
// holds one), each element sits at its natural alignment, so the decoded
// object can view the buffer instead of copying it (common/shared_array.h).
//
// Hostile-input stance: readers treat every byte from disk as attacker-
// controlled. Length prefixes are validated against the bytes actually
// remaining BEFORE any allocation (a corrupt uint64_t length must produce a
// clean Status, never a bad_alloc/OOM), reads past EOF fail instead of
// yielding zeros, and the first failure latches into status() with the
// offset where decoding stopped so loaders can report precise diagnostics.

#ifndef COD_COMMON_BINARY_IO_H_
#define COD_COMMON_BINARY_IO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/shared_array.h"
#include "common/status.h"

static_assert(std::endian::native == std::endian::little,
              "codlib's binary formats assume a little-endian platform");

namespace cod {

// Appends PODs and length-prefixed arrays to a std::string. Snapshot
// sections are assembled here so each section's CRC32C can be computed over
// the exact bytes that hit the disk.
class BinaryBufferWriter {
 public:
  template <typename T>
  void WritePod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  // An aligned array (see the file comment): padding to 8, the u64 byte
  // length, the elements, padding to 8. `values` is any contiguous range.
  template <typename Range>
  void WriteArray(const Range& values) {
    using T = std::remove_cvref_t<decltype(*std::data(values))>;
    static_assert(std::is_trivially_copy_constructible_v<T> &&
                  alignof(T) <= 8);
    PadTo8();
    const size_t bytes = std::size(values) * sizeof(T);
    WritePod<uint64_t>(bytes);
    buf_.append(reinterpret_cast<const char*>(std::data(values)), bytes);
    PadTo8();
  }

  // Length-prefixed string (for interned names and the like).
  void WriteString(std::string_view s) {
    WritePod<uint64_t>(s.size());
    buf_.append(s.data(), s.size());
  }

  void WriteBytes(std::string_view bytes) {
    buf_.append(bytes.data(), bytes.size());
  }

  size_t size() const { return buf_.size(); }
  const std::string& bytes() const { return buf_; }
  std::string&& TakeBytes() { return std::move(buf_); }

 private:
  // Zero bytes up to the next multiple of 8.
  void PadTo8() { buf_.append((8 - buf_.size() % 8) % 8, '\0'); }

  std::string buf_;
};

// Decodes PODs and length-prefixed arrays from an 8-aligned byte buffer it
// shares. Every read validates against the remaining bytes before touching
// memory; the first failure latches (all later reads fail fast) and status()
// describes what broke and where.
class BinarySpanReader {
 public:
  // Decodes `buffer` in place: arrays read into a SharedArray share it.
  // `origin` names the byte source in error messages (a path, a snapshot
  // section, ...).
  BinarySpanReader(SharedArray<std::byte> buffer, std::string origin)
      : buffer_(std::move(buffer)),
        bytes_(reinterpret_cast<const char*>(buffer_.data()), buffer_.size()),
        origin_(std::move(origin)) {}

  // Decodes an aligned copy of `bytes`.
  explicit BinarySpanReader(std::string_view bytes, std::string origin = "")
      : BinarySpanReader(CopyBytes(bytes), std::move(origin)) {}

  size_t offset() const { return off_; }
  size_t remaining() const { return bytes_.size() - off_; }
  bool exhausted() const { return off_ == bytes_.size(); }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  template <typename T>
  bool ReadPod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!status_.ok()) return false;
    if (remaining() < sizeof(T)) {
      return Fail("truncated: need " + std::to_string(sizeof(T)) + " bytes");
    }
    std::memcpy(value, bytes_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return true;
  }

  // An aligned array (see the file comment), adopted in place: *values
  // views this reader's buffer and keeps it alive.
  template <typename T>
  bool ReadArray(SharedArray<T>* values, uint64_t max_elements = UINT64_MAX) {
    std::span<const T> view;
    if (!ReadArrayView(&view, max_elements)) return false;
    *values = SharedArray<T>(view.data(), view.size(), buffer_.owner());
    return true;
  }

  // The same layout, copied out (for data that must not pin the buffer).
  template <typename T>
  bool ReadArray(std::vector<T>* values, uint64_t max_elements = UINT64_MAX) {
    std::span<const T> view;
    if (!ReadArrayView(&view, max_elements)) return false;
    values->assign(view.begin(), view.end());
    return true;
  }

  bool ReadString(std::string* s, uint64_t max_bytes = UINT64_MAX) {
    uint64_t size = 0;
    if (!ReadPod(&size)) return false;
    if (size > max_bytes || size > remaining()) {
      return Fail("string length " + std::to_string(size) + " out of range");
    }
    s->assign(bytes_.data() + off_, size);
    off_ += size;
    return true;
  }

  // Records a decoding failure discovered by the CALLER (a semantic check
  // over successfully read bytes) so it surfaces through status() like any
  // read failure. Always returns false.
  bool Fail(const std::string& why) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument(
          (origin_.empty() ? std::string("<buffer>") : origin_) +
          " at offset " + std::to_string(off_) + ": " + why);
    }
    return false;
  }

 private:
  // Skips the zero padding up to the next multiple of 8.
  bool SkipPadding() {
    if (!status_.ok()) return false;
    const size_t pad = (8 - off_ % 8) % 8;
    if (remaining() < pad) return Fail("truncated padding");
    for (size_t i = 0; i < pad; ++i) {
      if (bytes_[off_ + i] != 0) return Fail("nonzero padding");
    }
    off_ += pad;
    return true;
  }

  template <typename T>
  bool ReadArrayView(std::span<const T>* view, uint64_t max_elements) {
    static_assert(std::is_trivially_copy_constructible_v<T> &&
                  alignof(T) <= 8);
    uint64_t bytes = 0;
    if (!SkipPadding() || !ReadPod(&bytes)) return false;
    if (bytes % sizeof(T) != 0) {
      return Fail("array length " + std::to_string(bytes) +
                  " is not a multiple of the element size " +
                  std::to_string(sizeof(T)));
    }
    if (bytes / sizeof(T) > max_elements) {
      return Fail("array length " + std::to_string(bytes / sizeof(T)) +
                  " exceeds cap " + std::to_string(max_elements));
    }
    if (bytes > remaining()) {
      return Fail("array length " + std::to_string(bytes) +
                  " exceeds remaining bytes");
    }
    // The buffer start is 8-aligned and the array starts at a multiple of
    // 8, so the cast is aligned for every T.
    *view = std::span<const T>(
        reinterpret_cast<const T*>(bytes_.data() + off_), bytes / sizeof(T));
    off_ += bytes;
    return SkipPadding();
  }

  SharedArray<std::byte> buffer_;
  std::string_view bytes_;
  std::string origin_;
  size_t off_ = 0;
  Status status_;
};

}  // namespace cod

#endif  // COD_COMMON_BINARY_IO_H_
