// Reference model for the end-to-end benchmark: what every published
// snapshot of every blob must contain, kept as a per-blob, per-unit extent
// log keyed by payload seed instead of as bytes.
//
// Payload bytes are a pure function of (payload seed, unit index within the
// payload), so the model never stores user data. Each blob unit (a fixed
// byte span, the blob's page size in practice) keeps a short history of
// (version, payload seed, payload unit) entries, pruned to what the readable
// versions still need. Recording an update and verifying a read both cost
// O(units the op touches): nothing scales with blob size or version count
// beyond an amortized O(1) push per update.
#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace perfbench {

/// SplitMix64 finalizer: derives well-spread seeds from small integers.
uint64_t Mix(uint64_t x);

/// Fills `n` bytes of payload unit `unit` of the payload named by `seed`.
void FillUnit(uint64_t seed, uint64_t unit, char* dst, size_t n);

/// Builds the `len`-byte payload (len a multiple of `unit_bytes`) that an
/// update with payload seed `seed` writes.
std::string MakePayload(uint64_t seed, uint64_t len, uint64_t unit_bytes);

class ReferenceModel {
 public:
  /// `keep_versions`: how many versions behind the frontier stay readable
  /// (older history is pruned).
  ReferenceModel(uint64_t unit_bytes, uint64_t keep_versions);

  uint64_t unit_bytes() const { return unit_bytes_; }

  /// Registers an empty blob whose latest published version is `base`.
  void AddBlob(blobseer::BlobId id, blobseer::Version base);

  /// Records an acknowledged, published update producing version `v`.
  /// `offset` is ignored for appends (they land at the preceding
  /// snapshot's size). Offsets and lengths must be unit multiples and the
  /// version must not be recorded twice. Updates may arrive out of version
  /// order; they apply once every earlier version has been recorded.
  blobseer::Status RecordUpdate(blobseer::BlobId id, blobseer::Version v,
                                bool append, uint64_t offset, uint64_t len,
                                uint64_t payload_seed);

  /// Keeps snapshot `v` verifiable while a read of it is in flight, however
  /// far the frontier moves meanwhile. Every Pin needs a matching Unpin.
  void Pin(blobseer::BlobId id, blobseer::Version v);
  void Unpin(blobseer::BlobId id, blobseer::Version v);

  /// Highest version v of `id` such that every version <= v is recorded.
  blobseer::Version Frontier(blobseer::BlobId id) const;
  /// Oldest version a new read may target: `keep_versions` behind the
  /// frontier (never below the blob's base).
  blobseer::Version OldestReadable(blobseer::BlobId id) const;
  /// Size of snapshot `v` (must be readable).
  uint64_t SizeAt(blobseer::BlobId id, blobseer::Version v) const;

  /// Checks `bytes` against [offset, offset + bytes.size()) of snapshot
  /// `v`. Non-OK describes the first mismatch.
  blobseer::Status Verify(blobseer::BlobId id, blobseer::Version v,
                          uint64_t offset, blobseer::Slice bytes) const;

  /// Unit histories visited by RecordUpdate/Verify so far (the cost the
  /// model scales with).
  uint64_t units_touched() const { return units_touched_; }

 private:
  struct Entry {
    blobseer::Version version;
    uint64_t seed;
    uint64_t unit;  // unit index within the payload
  };
  struct Update {
    bool append;
    uint64_t offset;
    uint64_t len;
    uint64_t seed;
  };
  struct Blob {
    blobseer::Version base = 0;
    blobseer::Version frontier = 0;
    /// sizes[i]: snapshot size of version base + i.
    std::vector<uint64_t> sizes;
    std::vector<std::vector<Entry>> units;
    std::map<blobseer::Version, Update> pending;
    std::multiset<blobseer::Version> pins;
    /// Versions below this may have lost history to pruning.
    blobseer::Version verifiable_from = 0;
  };

  void Apply(Blob* b, const Update& u);
  const Blob* Find(blobseer::BlobId id) const;

  uint64_t unit_bytes_;
  uint64_t keep_;
  std::unordered_map<blobseer::BlobId, Blob> blobs_;
  mutable uint64_t units_touched_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
