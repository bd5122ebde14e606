#include "common/arena.h"

#include <algorithm>
#include <bit>

namespace tempo::common {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  return n <= 1 ? 1 : std::bit_ceil(n);
}

}  // namespace

BufferArena::BufferArena(BufferArenaConfig cfg)
    : min_class_(round_up_pow2(cfg.min_class_bytes < 64
                                   ? 64
                                   : cfg.min_class_bytes)) {
  const std::size_t max_class =
      round_up_pow2(cfg.max_class_bytes < min_class_ ? min_class_
                                                     : cfg.max_class_bytes);
  for (std::size_t bytes = min_class_; bytes <= max_class; bytes *= 2) {
    class_bytes_.push_back(bytes);
    const std::size_t by_bytes = cfg.max_bytes_per_class / bytes;
    std::size_t bound = std::min(cfg.max_buffers_per_class, by_bytes);
    if (bound < 1) bound = 1;
    class_bound_.push_back(bound);
  }
  classes_ = std::vector<SizeClass>(class_bytes_.size());
}

std::size_t BufferArena::class_for_take(std::size_t n) const {
  if (n > class_bytes_.back()) return class_bytes_.size();
  const std::size_t rounded = n <= min_class_ ? min_class_ : round_up_pow2(n);
  // log2 distance from the smallest class is the index.
  return static_cast<std::size_t>(std::bit_width(rounded / min_class_) - 1);
}

Bytes BufferArena::take(std::size_t min_bytes) {
  if (min_bytes == 0) min_bytes = 1;
  const std::size_t ci = class_for_take(min_bytes);
  if (ci >= classes_.size()) {
    // Oversize: a plain heap one-off, never pooled.
    ++misses_;
    return Bytes(min_bytes);
  }
  {
    std::lock_guard<std::mutex> lock(classes_[ci].mu);
    if (!classes_[ci].free.empty()) {
      Bytes buf = std::move(classes_[ci].free.back());
      classes_[ci].free.pop_back();
      bytes_pooled_ -= static_cast<std::int64_t>(buf.size());
      ++hits_;
      return buf;
    }
  }
  ++misses_;
  return Bytes(class_bytes_[ci]);
}

void BufferArena::recycle(Bytes buf) {
  if (buf.empty()) return;
  if (buf.size() < min_class_ || buf.size() > class_bytes_.back()) {
    ++discards_;
    return;
  }
  // Largest class that fits entirely inside the buffer: pooled buffers
  // are never smaller than their class, so a later take(class) cannot
  // receive a short buffer.
  const std::size_t ci =
      static_cast<std::size_t>(std::bit_width(buf.size() / min_class_) - 1);
  if (buf.size() != class_bytes_[ci]) {
    // A foreign or shrunken buffer: trim to the class it claims (a
    // downward resize never reallocates or fills).
    buf.resize(class_bytes_[ci]);
  }
  {
    std::lock_guard<std::mutex> lock(classes_[ci].mu);
    if (classes_[ci].free.size() < class_bound_[ci]) {
      bytes_pooled_ += static_cast<std::int64_t>(buf.size());
      classes_[ci].free.push_back(std::move(buf));
      ++recycles_;
      return;
    }
  }
  ++discards_;
}

BufferArenaStats BufferArena::stats() const {
  BufferArenaStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.recycles = recycles_.load(std::memory_order_relaxed);
  s.discards = discards_.load(std::memory_order_relaxed);
  s.bytes_pooled = bytes_pooled_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tempo::common
