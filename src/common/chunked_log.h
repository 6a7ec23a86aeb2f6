// ChunkedLog<T>: the one representation of an append-only per-record
// history — a version chain's version entries, backward deltas and
// keyframes, attribute and demon entries, minor versions, link lists
// and attachment offsets.
//
// Elements live in full chunks of kChunkSize, immutable once full and
// shared by reference between copies, plus one mutable tail holding
// the newest 1..kChunkSize elements. Copying a log copies one pointer
// to the (immutable) chunk list and the tail, so the copy-on-write
// that stages a record in a transaction overlay or a context costs the
// same whatever the record's history depth: the paper's "storage of
// many versions without copying each individual item" applied to the
// in-memory records as well as to their contents.
//
// A full chunk is never written again. Appends go to the tail; the
// one in-place edit, mutable_back(), reaches the newest element, which
// is always in the tail (a full tail is frozen by the *next* append,
// not by the one that fills it); clear() and DropFront() replace the
// chunk list instead of editing it. So a copy can never change what
// the original reads, and chunks need no locking of their own: they
// are written once, before they are shared.

#ifndef NEPTUNE_COMMON_CHUNKED_LOG_H_
#define NEPTUNE_COMMON_CHUNKED_LOG_H_

#include <algorithm>
#include <compare>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace neptune {

template <typename T>
class ChunkedLog {
 public:
  static constexpr size_t kChunkSize = 64;

  // Random access by index, so std::upper_bound and friends work.
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const ChunkedLog* log, size_t i) : log_(log), i_(i) {}

    reference operator*() const { return (*log_)[i_]; }
    pointer operator->() const { return &(*log_)[i_]; }
    reference operator[](difference_type n) const {
      return (*log_)[i_ + static_cast<size_t>(n)];
    }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    const_iterator& operator--() {
      --i_;
      return *this;
    }
    const_iterator operator--(int) {
      const_iterator old = *this;
      --i_;
      return old;
    }
    const_iterator& operator+=(difference_type n) {
      i_ += static_cast<size_t>(n);
      return *this;
    }
    const_iterator& operator-=(difference_type n) {
      i_ -= static_cast<size_t>(n);
      return *this;
    }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    bool operator==(const const_iterator& other) const {
      return i_ == other.i_;
    }
    std::strong_ordering operator<=>(const const_iterator& other) const {
      return i_ <=> other.i_;
    }

   private:
    const ChunkedLog* log_ = nullptr;
    size_t i_ = 0;
  };

  ChunkedLog() = default;
  ChunkedLog(std::initializer_list<T> values) {
    for (const T& value : values) push_back(value);
  }

  size_t size() const { return frozen_ - skip_ + tail_.size(); }
  // The tail is empty only when the whole log is.
  bool empty() const { return tail_.empty(); }

  const T& operator[](size_t i) const {
    const size_t at = i + skip_;
    if (at >= frozen_) return tail_[at - frozen_];
    return (*(*spine_)[at / kChunkSize])[at % kChunkSize];
  }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return tail_.back(); }
  // The newest element, for a same-time overwrite; always in the tail.
  T& mutable_back() { return tail_.back(); }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  void push_back(T value) {
    if (tail_.size() == kChunkSize) Freeze();
    tail_.push_back(std::move(value));
  }

  // Keeps the tail's capacity: the tail is never shared.
  void clear() {
    spine_.reset();
    frozen_ = 0;
    skip_ = 0;
    tail_.clear();
  }

  // Drops the oldest `n` elements (history pruning) without copying
  // any survivor: whole chunks leave the chunk list, and a partly
  // dropped first chunk is skipped into (its dead elements, fewer than
  // kChunkSize, are freed with the chunk). Other copies of this log
  // read on unchanged.
  void DropFront(size_t n) {
    n = std::min(n, size());
    if (n == 0) return;
    const size_t at = skip_ + n;
    if (at >= frozen_) {
      tail_.erase(tail_.begin(),
                  tail_.begin() + static_cast<std::ptrdiff_t>(at - frozen_));
      spine_.reset();
      frozen_ = 0;
      skip_ = 0;
      return;
    }
    const size_t whole = at / kChunkSize;
    if (whole > 0) {
      spine_ = std::make_shared<const Spine>(
          spine_->begin() + static_cast<std::ptrdiff_t>(whole), spine_->end());
      frozen_ -= whole * kChunkSize;
    }
    skip_ = at % kChunkSize;
  }

  // Bytes a copy of this log duplicates: the tail's elements, each
  // measured by `bytes_of` (the chunks are shared, not copied).
  template <typename BytesOf>
  size_t TailBytes(BytesOf bytes_of) const {
    size_t total = 0;
    for (const T& value : tail_) total += bytes_of(value);
    return total;
  }
  // Elements that own no heap memory are measured by their size.
  size_t TailBytes() const
    requires std::is_trivially_destructible_v<T>
  {
    return tail_.size() * sizeof(T);
  }

 private:
  using Chunk = std::vector<T>;  // exactly kChunkSize elements
  using Spine = std::vector<std::shared_ptr<const Chunk>>;

  // Seals the full tail into a chunk. The chunk list is itself shared
  // by copies, so it is replaced rather than extended in place: one
  // pointer copy per existing chunk, once every kChunkSize appends.
  void Freeze() {
    auto spine = spine_ != nullptr ? std::make_shared<Spine>(*spine_)
                                   : std::make_shared<Spine>();
    spine->push_back(std::make_shared<const Chunk>(std::move(tail_)));
    spine_ = std::move(spine);
    frozen_ += kChunkSize;
    tail_ = Chunk();
  }

  std::shared_ptr<const Spine> spine_;  // null until a chunk fills
  size_t frozen_ = 0;  // elements held in chunks, skipped ones included
  size_t skip_ = 0;    // dropped elements at the front of the first chunk
  std::vector<T> tail_;
};

}  // namespace neptune

#endif  // NEPTUNE_COMMON_CHUNKED_LOG_H_
