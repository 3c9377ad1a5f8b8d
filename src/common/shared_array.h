// One array type for the immutable arrays of Graph, Dendrogram, HimorIndex
// and CoverageSketchIndex: a read-only span plus a shared owner that keeps
// the span's memory alive.
//
// The memory comes from one of two places, and readers cannot tell which:
//  * a builder's std::vector, moved in without a copy;
//  * a range of a byte buffer, typically one epoch-snapshot section read
//    from disk (storage/epoch_snapshot.h). Every array adopted from the
//    section shares the buffer, so the section stays resident exactly as
//    long as the last object built from it.
//
// Copies share the owner, never the bytes. A moved-from array is empty.

#ifndef COD_COMMON_SHARED_ARRAY_H_
#define COD_COMMON_SHARED_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace cod {

template <typename T>
class SharedArray {
  static_assert(std::is_trivially_copy_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SharedArray holds plain data only");

 public:
  SharedArray() = default;

  // Adopts a builder's output without copying it.
  explicit SharedArray(std::vector<T> values) {
    if (values.empty()) return;
    auto owner = std::make_shared<const std::vector<T>>(std::move(values));
    view_ = std::span<const T>(*owner);
    owner_ = std::move(owner);
  }

  // `count` elements at `data`, kept alive by `owner`.
  SharedArray(const T* data, size_t count, std::shared_ptr<const void> owner)
      : view_(data, count), owner_(std::move(owner)) {}

  SharedArray(const SharedArray&) = default;
  SharedArray& operator=(const SharedArray&) = default;
  SharedArray(SharedArray&& other) noexcept
      : view_(std::exchange(other.view_, {})),
        owner_(std::move(other.owner_)) {}
  SharedArray& operator=(SharedArray&& other) noexcept {
    view_ = std::exchange(other.view_, {});
    owner_ = std::move(other.owner_);
    return *this;
  }

  size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const T* data() const { return view_.data(); }
  const T& operator[](size_t i) const { return view_[i]; }
  const T& front() const { return view_.front(); }
  const T& back() const { return view_.back(); }
  auto begin() const { return view_.begin(); }
  auto end() const { return view_.end(); }
  std::span<const T> span() const { return view_; }

  const std::shared_ptr<const void>& owner() const { return owner_; }

 private:
  std::span<const T> view_;
  std::shared_ptr<const void> owner_;
};

// `size` bytes aligned to 8, NOT zero-filled (the caller overwrites all of
// them, e.g. with pread); *data receives the writable start.
inline SharedArray<std::byte> AllocateBytes(size_t size, std::byte** data) {
  std::shared_ptr<uint64_t[]> words =
      std::make_shared_for_overwrite<uint64_t[]>((size + 7) / 8);
  *data = reinterpret_cast<std::byte*>(words.get());
  return SharedArray<std::byte>(*data, size, std::move(words));
}

// An 8-aligned copy of `bytes`.
inline SharedArray<std::byte> CopyBytes(std::string_view bytes) {
  std::byte* data = nullptr;
  SharedArray<std::byte> out = AllocateBytes(bytes.size(), &data);
  if (!bytes.empty()) std::memcpy(data, bytes.data(), bytes.size());
  return out;
}

}  // namespace cod

#endif  // COD_COMMON_SHARED_ARRAY_H_
