#include "model.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"

namespace perfbench {

using blobseer::BlobId;
using blobseer::Slice;
using blobseer::Status;
using blobseer::StrFormat;
using blobseer::Version;

namespace {

unsigned long long U(uint64_t v) { return static_cast<unsigned long long>(v); }

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void FillUnit(uint64_t seed, uint64_t unit, char* dst, size_t n) {
  // xorshift64 stream keyed by (seed, unit): cheap enough that generating
  // expected bytes never dominates a verified read.
  uint64_t x = Mix(seed ^ Mix(unit + 1)) | 1;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(dst + i, &x, 8);
  }
  for (; i < n; i++) dst[i] = static_cast<char>(x >> (8 * (i % 8)));
}

std::string MakePayload(uint64_t seed, uint64_t len, uint64_t unit_bytes) {
  std::string out(len, '\0');
  for (uint64_t off = 0; off < len; off += unit_bytes)
    FillUnit(seed, off / unit_bytes, out.data() + off,
             std::min(unit_bytes, len - off));
  return out;
}

ReferenceModel::ReferenceModel(uint64_t unit_bytes, uint64_t keep_versions)
    : unit_bytes_(unit_bytes), keep_(keep_versions) {}

void ReferenceModel::AddBlob(BlobId id, Version base) {
  Blob& b = blobs_[id];
  b.base = base;
  b.frontier = base;
  b.verifiable_from = base;
  b.sizes.assign(1, 0);
}

const ReferenceModel::Blob* ReferenceModel::Find(BlobId id) const {
  auto it = blobs_.find(id);
  return it == blobs_.end() ? nullptr : &it->second;
}

Status ReferenceModel::RecordUpdate(BlobId id, Version v, bool append,
                                    uint64_t offset, uint64_t len,
                                    uint64_t payload_seed) {
  auto it = blobs_.find(id);
  if (it == blobs_.end())
    return Status::NotFound(StrFormat("model: unknown blob %llu", U(id)));
  Blob& b = it->second;
  if (len == 0 || len % unit_bytes_ != 0 ||
      (!append && offset % unit_bytes_ != 0))
    return Status::InvalidArgument("model: update not unit-aligned");
  if (v <= b.frontier || b.pending.count(v) != 0)
    return Status::AlreadyExists(
        StrFormat("model: blob %llu version %llu recorded twice", U(id),
                  U(v)));
  b.pending.emplace(v, Update{append, offset, len, payload_seed});
  for (auto p = b.pending.begin();
       p != b.pending.end() && p->first == b.frontier + 1;
       p = b.pending.erase(p)) {
    const Update& u = p->second;
    const uint64_t prev_size = b.sizes.back();
    if (!u.append && u.offset > prev_size)
      return Status::OutOfRange(
          StrFormat("model: blob %llu version %llu writes past the end",
                    U(id), U(p->first)));
    b.frontier++;
    Apply(&b, u);
  }
  return Status::OK();
}

void ReferenceModel::Apply(Blob* b, const Update& u) {
  const uint64_t prev_size = b->sizes.back();
  const uint64_t offset = u.append ? prev_size : u.offset;
  const uint64_t first = offset / unit_bytes_;
  const uint64_t n = u.len / unit_bytes_;
  if (b->units.size() < first + n) b->units.resize(first + n);
  // Entries older than the oldest readable version are only needed while
  // nothing newer than them is also old enough to be readable.
  Version horizon =
      b->frontier > b->base + keep_ ? b->frontier - keep_ : b->base;
  if (!b->pins.empty()) horizon = std::min(horizon, *b->pins.begin());
  b->verifiable_from = std::max(b->verifiable_from, horizon);
  for (uint64_t i = 0; i < n; i++) {
    std::vector<Entry>& h = b->units[first + i];
    h.push_back(Entry{b->frontier, u.seed, i});
    size_t drop = 0;
    while (drop + 1 < h.size() && h[drop + 1].version <= horizon) drop++;
    if (drop > 0) h.erase(h.begin(), h.begin() + drop);
  }
  units_touched_ += n;
  b->sizes.push_back(std::max(prev_size, offset + u.len));
}

void ReferenceModel::Pin(BlobId id, Version v) { blobs_[id].pins.insert(v); }

void ReferenceModel::Unpin(BlobId id, Version v) {
  auto& pins = blobs_[id].pins;
  auto it = pins.find(v);
  if (it != pins.end()) pins.erase(it);
}

Version ReferenceModel::Frontier(BlobId id) const {
  const Blob* b = Find(id);
  return b == nullptr ? blobseer::kNoVersion : b->frontier;
}

Version ReferenceModel::OldestReadable(BlobId id) const {
  const Blob* b = Find(id);
  if (b == nullptr) return blobseer::kNoVersion;
  return b->frontier > b->base + keep_ ? b->frontier - keep_ : b->base;
}

uint64_t ReferenceModel::SizeAt(BlobId id, Version v) const {
  const Blob* b = Find(id);
  if (b == nullptr || v < b->base || v > b->frontier) return 0;
  return b->sizes[v - b->base];
}

Status ReferenceModel::Verify(BlobId id, Version v, uint64_t offset,
                              Slice bytes) const {
  const Blob* b = Find(id);
  if (b == nullptr)
    return Status::NotFound(StrFormat("model: unknown blob %llu", U(id)));
  if (v < b->verifiable_from || v > b->frontier)
    return Status::OutOfRange(
        StrFormat("model: blob %llu version %llu is not readable", U(id),
                  U(v)));
  const uint64_t end = offset + bytes.size();
  if (end > b->sizes[v - b->base])
    return Status::Corruption(
        StrFormat("model: read [%llu, %llu) past snapshot size %llu",
                  U(offset), U(end), U(b->sizes[v - b->base])));
  std::string unit(unit_bytes_, '\0');
  for (uint64_t pos = offset; pos < end;) {
    const uint64_t u = pos / unit_bytes_;
    const uint64_t in_unit = pos % unit_bytes_;
    const uint64_t n = std::min(unit_bytes_ - in_unit, end - pos);
    const std::vector<Entry>& h = b->units[u];
    units_touched_++;
    const Entry* e = nullptr;
    for (auto it = h.rbegin(); it != h.rend(); ++it) {
      if (it->version <= v) {
        e = &*it;
        break;
      }
    }
    if (e == nullptr)
      return Status::Internal(
          StrFormat("model: no entry for unit %llu at version %llu", U(u),
                    U(v)));
    FillUnit(e->seed, e->unit, unit.data(), unit_bytes_);
    if (std::memcmp(unit.data() + in_unit, bytes.data() + (pos - offset),
                    n) != 0)
      return Status::Corruption(StrFormat(
          "blob %llu version %llu: bytes at [%llu, %llu) differ from "
          "payload %llu unit %llu (written at version %llu)",
          U(id), U(v), U(pos), U(pos + n), U(e->seed), U(e->unit),
          U(e->version)));
    pos += n;
  }
  return Status::OK();
}

}  // namespace perfbench
