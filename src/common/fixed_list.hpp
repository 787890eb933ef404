// Fixed-capacity list for the per-cycle bookkeeping of the hardware models.
//
// A std::array plus a length: the cycle loops of the simulators keep short
// lists (words a window touches, reads issued this cycle, port queues) whose
// length a structural argument bounds, so they never need the heap. Each
// user derives its capacity from that argument; exceeding it means the
// argument (or the schedule) is wrong, so push_back is an invariant check.
#pragma once

#include <array>
#include <cstddef>

#include "common/check.hpp"

namespace saber {

template <typename T, std::size_t N>
class FixedList {
 public:
  void push_back(const T& v) {
    SABER_ENSURE(size_ < N, "fixed-capacity list overflow");
    items_[size_++] = v;
  }
  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }

 private:
  std::array<T, N> items_{};
  std::size_t size_ = 0;
};

}  // namespace saber
