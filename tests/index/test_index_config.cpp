#include "index/index_config.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

namespace amri::index {
namespace {

TEST(IndexConfig, TotalsAndCounts) {
  IndexConfig ic({5, 2, 3});
  EXPECT_EQ(ic.num_attrs(), 3u);
  EXPECT_EQ(ic.total_bits(), 10);
  EXPECT_EQ(ic.indexed_attr_count(), 3);
  EXPECT_EQ(ic.indexed_mask(), 0b111u);
  EXPECT_EQ(ic.bucket_count(), 1024u);
}

TEST(IndexConfig, BitBudgetIsCheckedInReleaseBuilds) {
  const IndexConfig widest({10, 10, 10});
  EXPECT_EQ(widest.total_bits(), IndexConfig::kMaxTotalBits);
  EXPECT_THROW(IndexConfig({10, 10, 11}), std::invalid_argument);
  EXPECT_THROW(IndexConfig({40}), std::invalid_argument);
}

TEST(IndexConfig, ZeroBitsAttrNotIndexed) {
  IndexConfig ic({4, 0, 2});
  EXPECT_EQ(ic.indexed_attr_count(), 2);
  EXPECT_EQ(ic.indexed_mask(), 0b101u);
  EXPECT_EQ(ic.total_bits(), 6);
}

TEST(IndexConfig, ZeroConfig) {
  const IndexConfig ic = IndexConfig::zero(3);
  EXPECT_EQ(ic.total_bits(), 0);
  EXPECT_EQ(ic.indexed_attr_count(), 0);
  EXPECT_EQ(ic.bucket_count(), 1u);
}

TEST(IndexConfig, ShiftLayoutMatchesPaperConcatenation) {
  // Paper Figure 3: 10-bit IC, 5 bits A1, 2 bits A2, 3 bits A3.
  // A1 occupies the most significant bits, A3 the least.
  IndexConfig ic({5, 2, 3});
  EXPECT_EQ(ic.shift_of(0), 5);  // A1 starts above A2+A3 = 5 bits
  EXPECT_EQ(ic.shift_of(1), 3);
  EXPECT_EQ(ic.shift_of(2), 0);
}

TEST(IndexConfig, PaperFigure3BucketId) {
  // Values map to chunks 00111, 11, 010 -> 0011111010 = 250.
  IndexConfig ic({5, 2, 3});
  const std::uint64_t id = (0b00111ULL << ic.shift_of(0)) |
                           (0b11ULL << ic.shift_of(1)) |
                           (0b010ULL << ic.shift_of(2));
  EXPECT_EQ(id, 250u);
}

TEST(IndexConfig, BitsForMask) {
  IndexConfig ic({5, 2, 3});
  EXPECT_EQ(ic.bits_for(0b001), 5);
  EXPECT_EQ(ic.bits_for(0b101), 8);
  EXPECT_EQ(ic.bits_for(0b111), 10);
  EXPECT_EQ(ic.bits_for(0), 0);
}

TEST(IndexConfig, Equality) {
  EXPECT_EQ(IndexConfig({1, 2}), IndexConfig({1, 2}));
  EXPECT_NE(IndexConfig({1, 2}), IndexConfig({2, 1}));
}

TEST(IndexConfig, ToString) {
  EXPECT_EQ(IndexConfig({1, 0, 3}).to_string(), "[A:1 B:0 C:3]");
}

TEST(EnumerateAllocations, CountsMatchCombinatorics) {
  // Allocations of <= 4 bits over 2 attrs with cap 4: sum_{t=0}^{4} (t+1)
  // = 15 allocations.
  int count = 0;
  enumerate_allocations(2, 4, 4, [&](const std::vector<std::uint8_t>&) {
    ++count;
  });
  EXPECT_EQ(count, 15);
}

TEST(EnumerateAllocations, RespectsPerAttrCap) {
  enumerate_allocations(3, 10, 2, [](const std::vector<std::uint8_t>& a) {
    for (const auto b : a) EXPECT_LE(b, 2);
  });
}

TEST(EnumerateAllocations, RespectsBudget) {
  enumerate_allocations(3, 5, 5, [](const std::vector<std::uint8_t>& a) {
    int total = 0;
    for (const auto b : a) total += b;
    EXPECT_LE(total, 5);
  });
}

TEST(EnumerateAllocations, DistinctAllocations) {
  std::set<std::vector<std::uint8_t>> seen;
  enumerate_allocations(3, 4, 4, [&](const std::vector<std::uint8_t>& a) {
    EXPECT_TRUE(seen.insert(a).second);
  });
  EXPECT_GT(seen.size(), 1u);
}

TEST(EnumerateAllocations, IncludesZeroAllocation) {
  bool saw_zero = false;
  enumerate_allocations(2, 3, 3, [&](const std::vector<std::uint8_t>& a) {
    if (a[0] == 0 && a[1] == 0) saw_zero = true;
  });
  EXPECT_TRUE(saw_zero);
}

}  // namespace
}  // namespace amri::index
