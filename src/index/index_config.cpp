#include "index/index_config.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace amri::index {

IndexConfig::IndexConfig(std::vector<std::uint8_t> bits_per_attr)
    : bits_(std::move(bits_per_attr)) {
  shifts_.resize(bits_.size(), 0);
  for (const std::uint8_t b : bits_) total_bits_ += b;
  if (total_bits_ > kMaxTotalBits) {
    throw std::invalid_argument(
        "index config uses " + std::to_string(total_bits_) +
        " bucket-id bits; at most " + std::to_string(kMaxTotalBits) +
        " are allowed");
  }
  // Chunk layout: attribute 0 occupies the most-significant bits.
  int shift = total_bits_;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    shift -= bits_[i];
    shifts_[i] = shift;
    if (bits_[i] > 0) {
      ++indexed_attrs_;
      indexed_mask_ |= (AttrMask{1} << i);
    }
  }
}

int IndexConfig::bits_for(AttrMask mask) const {
  int total = 0;
  for_each_bit(mask, [&](unsigned pos) {
    if (pos < bits_.size()) total += bits_[pos];
  });
  return total;
}

std::string IndexConfig::to_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if (i != 0) out += ' ';
    out += static_cast<char>('A' + (i % 26));
    out += ':';
    out += std::to_string(static_cast<int>(bits_[i]));
  }
  out += ']';
  return out;
}

void enumerate_allocations(
    std::size_t num_attrs, int budget, int max_per_attr,
    const std::function<void(const std::vector<std::uint8_t>&)>& fn) {
  assert(budget >= 0);
  assert(max_per_attr >= 0);
  std::vector<std::uint8_t> alloc(num_attrs, 0);
  // Depth-first over attribute positions.
  const std::function<void(std::size_t, int)> rec = [&](std::size_t pos,
                                                        int remaining) {
    if (pos == num_attrs) {
      fn(alloc);
      return;
    }
    const int limit = std::min(remaining, max_per_attr);
    for (int b = 0; b <= limit; ++b) {
      alloc[pos] = static_cast<std::uint8_t>(b);
      rec(pos + 1, remaining - b);
    }
    alloc[pos] = 0;
  };
  rec(0, budget);
}

}  // namespace amri::index
