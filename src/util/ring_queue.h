// Vector-backed circular FIFO queue, a drop-in for the std::deque
// push_back / front / pop_front pattern on simulator hot paths.
//
// std::deque allocates and frees fixed-size chunks as the queue breathes;
// per-OSD service queues breathe on every dispatch, so that chunk churn
// shows up in profiles.  A power-of-two ring reuses one flat allocation:
// steady-state push/pop touch only the slot itself, and growth is a single
// doubling copy (amortised O(1), identical element order).
//
// Elements are not destroyed on pop_front -- they linger in their slot
// until overwritten or the queue is destroyed.  Use only with value types
// where that is acceptable (trivial or cheaply-resettable payloads).
//
// Thread-safety: none -- confine each queue to one thread, like the
// simulator state it belongs to.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace edm::util {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Drops all elements (slots linger until overwritten; capacity kept).
  void clear() {
    head_ = 0;
    count_ = 0;
  }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  void push_back(T value) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask_] = std::move(value);
    ++count_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --count_;
  }

 private:
  void grow() {
    const std::size_t new_capacity = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> bigger(new_capacity);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(bigger);
    head_ = 0;
    mask_ = new_capacity - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;  // buf_.size() - 1 once allocated
};

}  // namespace edm::util
