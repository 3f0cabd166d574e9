// Wire messages for the data provider service.
#ifndef BLOBSEER_PROVIDER_MESSAGES_H_
#define BLOBSEER_PROVIDER_MESSAGES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/serde.h"

namespace blobseer::provider {

struct WriteRequest {
  PageId pid;
  std::string data;
  void EncodeTo(BinaryWriter* w) const {
    w->PutPageId(pid);
    w->PutString(data);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetPageId(&pid));
    return r->GetString(&data);
  }
};

struct WriteResponse {
  void EncodeTo(BinaryWriter*) const {}
  Status DecodeFrom(BinaryReader*) { return Status::OK(); }
};

/// One byte range of one page object.
struct ReadItem {
  PageId pid;
  uint64_t offset = 0;
  uint64_t len = 0;  // 0 = through end of object
};

/// Batched page read: every item is served independently, so one missing
/// page or bad range fails only its own item.
struct ReadRequest {
  std::vector<ReadItem> items;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU32(static_cast<uint32_t>(items.size()));
    for (const ReadItem& it : items) {
      w->PutPageId(it.pid);
      w->PutU64(it.offset);
      w->PutU64(it.len);
    }
  }
  Status DecodeFrom(BinaryReader* r) {
    uint32_t n;
    BS_RETURN_NOT_OK(r->GetU32(&n));
    // Each item is a fixed 32 bytes (pid, offset, len).
    if (static_cast<uint64_t>(n) * 32 > r->remaining())
      return Status::Corruption("read item count exceeds payload");
    items.resize(n);
    for (ReadItem& it : items) {
      BS_RETURN_NOT_OK(r->GetPageId(&it.pid));
      BS_RETURN_NOT_OK(r->GetU64(&it.offset));
      BS_RETURN_NOT_OK(r->GetU64(&it.len));
    }
    return Status::OK();
  }
};

/// One outcome per request item, in order: a status code, then the bytes
/// (code 0) or the error message.
struct ReadResponse {
  std::vector<Result<std::string>> items;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU32(static_cast<uint32_t>(items.size()));
    for (const Result<std::string>& it : items) {
      w->PutU8(static_cast<uint8_t>(it.status().code()));
      w->PutString(it.ok() ? *it : it.status().message());
    }
  }
  Status DecodeFrom(BinaryReader* r) {
    uint32_t n;
    BS_RETURN_NOT_OK(r->GetU32(&n));
    // Each item costs at least its code byte and 4-byte length prefix.
    if (static_cast<uint64_t>(n) * 5 > r->remaining())
      return Status::Corruption("read result count exceeds payload");
    items.clear();
    items.reserve(n);
    for (uint32_t i = 0; i < n; i++) {
      uint8_t code;
      std::string bytes;
      BS_RETURN_NOT_OK(r->GetU8(&code));
      BS_RETURN_NOT_OK(r->GetString(&bytes));
      if (code > static_cast<uint8_t>(StatusCode::kInternal))
        return Status::Corruption("read result status code");
      if (code == 0) {
        items.push_back(std::move(bytes));
      } else {
        items.push_back(
            Status::FromCode(static_cast<StatusCode>(code), std::move(bytes)));
      }
    }
    return Status::OK();
  }
};

struct DeleteRequest {
  PageId pid;
  void EncodeTo(BinaryWriter* w) const { w->PutPageId(pid); }
  Status DecodeFrom(BinaryReader* r) { return r->GetPageId(&pid); }
};

struct DeleteResponse {
  void EncodeTo(BinaryWriter*) const {}
  Status DecodeFrom(BinaryReader*) { return Status::OK(); }
};

struct StatsRequest {
  void EncodeTo(BinaryWriter*) const {}
  Status DecodeFrom(BinaryReader*) { return Status::OK(); }
};

/// Mirrors PageStoreStats field-for-field, including the log-structured
/// backend extension (segments/dead_bytes/syncs/compactions and the raw-I/O
/// counters are zero for the other engines).
struct StatsResponse {
  uint64_t pages = 0;
  uint64_t bytes = 0;
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t deletes = 0;
  uint64_t segments = 0;
  uint64_t dead_bytes = 0;
  uint64_t syncs = 0;
  uint64_t compactions = 0;
  uint64_t io_submissions = 0;
  uint64_t io_sqes = 0;
  uint64_t bytes_written = 0;
  uint64_t read_syscalls = 0;
  uint64_t recovery_us = 0;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU64(pages);
    w->PutU64(bytes);
    w->PutU64(writes);
    w->PutU64(reads);
    w->PutU64(deletes);
    w->PutU64(segments);
    w->PutU64(dead_bytes);
    w->PutU64(syncs);
    w->PutU64(compactions);
    w->PutU64(io_submissions);
    w->PutU64(io_sqes);
    w->PutU64(bytes_written);
    w->PutU64(read_syscalls);
    w->PutU64(recovery_us);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU64(&pages));
    BS_RETURN_NOT_OK(r->GetU64(&bytes));
    BS_RETURN_NOT_OK(r->GetU64(&writes));
    BS_RETURN_NOT_OK(r->GetU64(&reads));
    BS_RETURN_NOT_OK(r->GetU64(&deletes));
    BS_RETURN_NOT_OK(r->GetU64(&segments));
    BS_RETURN_NOT_OK(r->GetU64(&dead_bytes));
    BS_RETURN_NOT_OK(r->GetU64(&syncs));
    BS_RETURN_NOT_OK(r->GetU64(&compactions));
    BS_RETURN_NOT_OK(r->GetU64(&io_submissions));
    BS_RETURN_NOT_OK(r->GetU64(&io_sqes));
    BS_RETURN_NOT_OK(r->GetU64(&bytes_written));
    BS_RETURN_NOT_OK(r->GetU64(&read_syscalls));
    return r->GetU64(&recovery_us);
  }
};

}  // namespace blobseer::provider

#endif  // BLOBSEER_PROVIDER_MESSAGES_H_
