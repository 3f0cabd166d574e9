// The benchmark's reference model: correct expected bytes across versions,
// out-of-order recording, pinning, and a per-op cost that does not grow
// with blob size.
#include "model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

namespace perfbench {
namespace {

using blobseer::Slice;

constexpr uint64_t kUnit = 4096;

/// Bytes of [offset, offset + len) after applying `writes` (offset, seed,
/// len) in order to an empty blob — the brute-force oracle.
std::string Oracle(const std::vector<std::tuple<uint64_t, uint64_t, uint64_t>>&
                       writes) {
  std::string blob;
  for (const auto& [off, seed, len] : writes) {
    std::string p = MakePayload(seed, len, kUnit);
    if (blob.size() < off + len) blob.resize(off + len);
    blob.replace(off, len, p);
  }
  return blob;
}

TEST(ReferenceModel, TracksAppendsAndOverwritesPerVersion) {
  ReferenceModel m(kUnit, 3);
  m.AddBlob(1, 0);
  ASSERT_TRUE(m.RecordUpdate(1, 1, true, 0, 4 * kUnit, 11).ok());
  ASSERT_TRUE(m.RecordUpdate(1, 2, false, kUnit, 2 * kUnit, 22).ok());
  ASSERT_TRUE(m.RecordUpdate(1, 3, true, 0, kUnit, 33).ok());
  ASSERT_TRUE(m.RecordUpdate(1, 4, false, 4 * kUnit, 2 * kUnit, 44).ok());
  EXPECT_EQ(m.Frontier(1), 4u);
  EXPECT_EQ(m.SizeAt(1, 1), 4 * kUnit);
  EXPECT_EQ(m.SizeAt(1, 3), 5 * kUnit);
  EXPECT_EQ(m.SizeAt(1, 4), 6 * kUnit);

  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> w = {
      {0, 11, 4 * kUnit}, {kUnit, 22, 2 * kUnit}, {4 * kUnit, 33, kUnit},
      {4 * kUnit, 44, 2 * kUnit}};
  for (size_t v = 1; v <= 4; v++) {
    std::string want = Oracle({w.begin(), w.begin() + v});
    EXPECT_TRUE(m.Verify(1, v, 0, Slice(want)).ok()) << "v" << v;
    // Unaligned sub-range.
    EXPECT_TRUE(m.Verify(1, v, 100, Slice(want.substr(100, 5000))).ok());
  }
  // One flipped byte is caught.
  std::string v4 = Oracle(w);
  v4[kUnit + 7] ^= 1;
  EXPECT_TRUE(m.Verify(1, 4, 0, Slice(v4)).IsCorruption());
  // Reads past the snapshot size are rejected.
  EXPECT_FALSE(m.Verify(1, 1, 0, Slice(Oracle(w))).ok());
}

TEST(ReferenceModel, AppliesOutOfOrderRecordsInVersionOrder) {
  ReferenceModel m(kUnit, 3);
  m.AddBlob(9, 5);
  ASSERT_TRUE(m.RecordUpdate(9, 7, true, 0, kUnit, 2).ok());
  EXPECT_EQ(m.Frontier(9), 5u);  // version 6 still missing
  ASSERT_TRUE(m.RecordUpdate(9, 6, true, 0, kUnit, 1).ok());
  EXPECT_EQ(m.Frontier(9), 7u);
  EXPECT_EQ(m.SizeAt(9, 6), kUnit);
  EXPECT_TRUE(m.Verify(9, 7, 0, Slice(Oracle({{0, 1, kUnit}, {kUnit, 2,
                                                                kUnit}})))
                  .ok());
  EXPECT_TRUE(m.RecordUpdate(9, 7, true, 0, kUnit, 3).IsAlreadyExists());
}

TEST(ReferenceModel, PinnedVersionsSurvivePruning) {
  ReferenceModel m(kUnit, 1);
  m.AddBlob(1, 0);
  ASSERT_TRUE(m.RecordUpdate(1, 1, true, 0, kUnit, 100).ok());
  m.Pin(1, 1);
  for (uint64_t v = 2; v <= 20; v++)
    ASSERT_TRUE(m.RecordUpdate(1, v, false, 0, kUnit, 100 + v).ok());
  EXPECT_TRUE(m.Verify(1, 1, 0, Slice(MakePayload(100, kUnit, kUnit))).ok());
  m.Unpin(1, 1);
  ASSERT_TRUE(m.RecordUpdate(1, 21, false, 0, kUnit, 121).ok());
  // Unpinned and more than keep_versions behind: pruned, no longer
  // verifiable.
  EXPECT_FALSE(m.Verify(1, 1, 0, Slice(MakePayload(100, kUnit, kUnit))).ok());
  EXPECT_TRUE(
      m.Verify(1, 20, 0, Slice(MakePayload(120, kUnit, kUnit))).ok());
  EXPECT_EQ(m.OldestReadable(1), 20u);
}

/// Runs 2000 small ops (a 4-unit overwrite plus a verified 4-unit read) on
/// a blob of `blob_units` units; returns {units touched, seconds}.
std::pair<uint64_t, double> SmallOpCost(uint64_t blob_units) {
  ReferenceModel m(kUnit, 3);
  m.AddBlob(1, 0);
  // Build the blob from large appends (cost proportional to its size, but
  // outside the measured ops).
  uint64_t v = 0;
  constexpr uint64_t kChunk = 1024;
  for (uint64_t done = 0; done < blob_units; done += kChunk) {
    v++;
    EXPECT_TRUE(m.RecordUpdate(1, v, true, 0,
                               std::min(kChunk, blob_units - done) * kUnit, v)
                    .ok());
  }
  const uint64_t touched_before = m.units_touched();
  uint64_t x = 12345;
  std::string expect;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 2000; i++) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t unit = (x >> 20) % (blob_units - 4);
    EXPECT_TRUE(m.RecordUpdate(1, ++v, false, unit * kUnit, 4 * kUnit,
                               1000 + i)
                    .ok());
    expect = MakePayload(1000 + i, 4 * kUnit, kUnit);
    EXPECT_TRUE(m.Verify(1, v, unit * kUnit, Slice(expect)).ok());
  }
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return {m.units_touched() - touched_before, s};
}

TEST(ReferenceModel, PerOpCostDoesNotGrowWithBlobSize) {
  // 64 KiB vs 1 GiB of 4 KiB units: same ops, same work.
  auto [small_units, small_s] = SmallOpCost(16);
  auto [large_units, large_s] = SmallOpCost(256 * 1024);
  EXPECT_EQ(small_units, large_units);
  EXPECT_EQ(small_units, 2000u * 8);
  // Wall clock agrees within a generous factor (the large blob's unit
  // histories are scattered in memory, so a few cache misses are allowed;
  // a cost linear in blob size would be ~16000x).
  double best_ratio = 1e9;
  for (int i = 0; i < 3; i++) {
    auto [su, ss] = SmallOpCost(16);
    auto [lu, ls] = SmallOpCost(256 * 1024);
    best_ratio = std::min(best_ratio, ls / ss);
  }
  EXPECT_LT(best_ratio, 4.0) << "small " << small_s << " s, large "
                             << large_s << " s";
}

}  // namespace
}  // namespace perfbench
