#include "locator/location.h"

#include "common/string_util.h"

namespace blobseer::locator {

std::string LocationKey(const PageId& pid) {
  BinaryWriter w;
  w.PutU8('L');  // namespace tag: page location entry
  w.PutPageId(pid);
  return std::move(w).TakeBuffer();
}

void LocationEntry::EncodeTo(BinaryWriter* w) const {
  w->PutU64(epoch);
  w->PutU32(static_cast<uint32_t>(providers.size()));
  for (ProviderId p : providers) w->PutU32(p);
  w->PutU32(refs);
  w->PutU64(hash_hi);
  w->PutU64(hash_lo);
}

Status LocationEntry::DecodeFrom(BinaryReader* r) {
  BS_RETURN_NOT_OK(r->GetU64(&epoch));
  uint32_t n = 0;
  BS_RETURN_NOT_OK(r->GetU32(&n));
  if (static_cast<uint64_t>(n) * 4 > r->remaining())
    return Status::Corruption("location replica count exceeds payload");
  providers.resize(n);
  for (auto& p : providers) BS_RETURN_NOT_OK(r->GetU32(&p));
  // Gated trailing decode: entries written before the lifecycle subsystem
  // end here and imply one reference and no content hash.
  refs = 1;
  hash_hi = 0;
  hash_lo = 0;
  if (r->remaining() == 0) return Status::OK();
  BS_RETURN_NOT_OK(r->GetU32(&refs));
  BS_RETURN_NOT_OK(r->GetU64(&hash_hi));
  return r->GetU64(&hash_lo);
}

std::string LocationEntry::ToString() const {
  std::string out = StrFormat(
      "loc{epoch=%llu refs=%u r=%zu [",
      static_cast<unsigned long long>(epoch), refs, providers.size());
  for (size_t i = 0; i < providers.size(); i++) {
    if (i > 0) out += ' ';
    out += StrFormat("%u", providers[i]);
  }
  out += "]}";
  return out;
}

namespace {

std::string EncodeEntry(const LocationEntry& entry) {
  BinaryWriter w;
  entry.EncodeTo(&w);
  return std::move(w).TakeBuffer();
}

Result<LocationEntry> DecodeEntry(const std::string& bytes) {
  BinaryReader r{Slice(bytes)};
  LocationEntry entry;
  BS_RETURN_NOT_OK(entry.DecodeFrom(&r));
  if (!entry.valid()) return Status::Corruption("invalid location entry");
  return entry;
}

}  // namespace

LocationIndex::LocationIndex(dht::DhtClient* dht, size_t cache_capacity)
    : dht_(dht), capacity_(cache_capacity) {}

bool LocationIndex::CacheLookup(const PageId& pid, LocationEntry* entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(pid);
  if (it == cache_.end()) {
    stats_.misses++;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *entry = it->second->second;
  stats_.hits++;
  return true;
}

void LocationIndex::CacheInsert(const PageId& pid,
                                const LocationEntry& entry) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(pid);
  if (it != cache_.end()) {
    // Keep the higher epoch: a stale resolve racing a fresh CAS result must
    // not roll the cache backwards.
    if (entry.epoch >= it->second->second.epoch) it->second->second = entry;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(pid, entry);
  cache_[pid] = lru_.begin();
  if (cache_.size() > capacity_) {
    cache_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

Result<LocationEntry> LocationIndex::Resolve(const PageId& pid) {
  LocationEntry entry;
  if (CacheLookup(pid, &entry)) return entry;
  std::string bytes;
  BS_RETURN_NOT_OK(dht_->Get(Slice(LocationKey(pid)), &bytes));
  Result<LocationEntry> decoded = DecodeEntry(bytes);
  if (decoded.ok()) CacheInsert(pid, *decoded);
  return decoded;
}

Future<LocationEntry> LocationIndex::ResolveAsync(const PageId& pid) {
  LocationEntry entry;
  if (CacheLookup(pid, &entry))
    return MakeReadyFuture<LocationEntry>(std::move(entry));
  return dht_->GetAsync(Slice(LocationKey(pid)))
      .Then([this, pid](Result<std::string> bytes) -> Result<LocationEntry> {
        if (!bytes.ok()) return bytes.status();
        Result<LocationEntry> decoded = DecodeEntry(*bytes);
        if (decoded.ok()) CacheInsert(pid, *decoded);
        return decoded;
      });
}

Future<std::vector<Result<LocationEntry>>> LocationIndex::ResolveManyAsync(
    const std::vector<PageId>& pids) {
  using Out = std::vector<Result<LocationEntry>>;
  auto out = std::make_shared<Out>();
  out->reserve(pids.size());
  auto misses = std::make_shared<std::vector<size_t>>();
  std::vector<std::string> keys;
  for (size_t i = 0; i < pids.size(); i++) {
    LocationEntry entry;
    if (CacheLookup(pids[i], &entry)) {
      out->push_back(std::move(entry));
      continue;
    }
    out->push_back(Status::NotFound("location entry"));
    misses->push_back(i);
    keys.push_back(LocationKey(pids[i]));
  }
  if (misses->empty()) return MakeReadyFuture<Out>(std::move(*out));
  return dht_->MultiGetAsync(std::move(keys))
      .Then([this, out, misses, pids](
                Result<std::vector<Result<std::string>>> bytes) -> Result<Out> {
        if (!bytes.ok()) return bytes.status();
        for (size_t j = 0; j < misses->size(); j++) {
          size_t i = (*misses)[j];
          const Result<std::string>& b = (*bytes)[j];
          (*out)[i] = b.ok() ? DecodeEntry(*b) : b.status();
          if ((*out)[i].ok()) CacheInsert(pids[i], *(*out)[i]);
        }
        return std::move(*out);
      });
}

Status LocationIndex::Publish(const PageId& pid,
                              std::vector<ProviderId> providers,
                              uint64_t hash_hi, uint64_t hash_lo) {
  LocationEntry entry{1, std::move(providers), 1, hash_hi, hash_lo};
  BS_RETURN_NOT_OK(dht_->Put(Slice(LocationKey(pid)), Slice(EncodeEntry(entry))));
  CacheInsert(pid, entry);
  return Status::OK();
}

Future<Unit> LocationIndex::PublishAsync(const PageId& pid,
                                         std::vector<ProviderId> providers,
                                         uint64_t hash_hi, uint64_t hash_lo) {
  auto entry = std::make_shared<LocationEntry>(
      LocationEntry{1, std::move(providers), 1, hash_hi, hash_lo});
  return dht_->PutAsync(Slice(LocationKey(pid)), Slice(EncodeEntry(*entry)))
      .Then([this, pid, entry](Result<Unit> r) -> Result<Unit> {
        if (r.ok()) CacheInsert(pid, *entry);
        return r;
      });
}

Result<LocationEntry> LocationIndex::Seed(
    const PageId& pid, const std::vector<ProviderId>& providers) {
  LocationEntry entry{1, providers};
  bool applied = false;
  std::string current;
  BS_RETURN_NOT_OK(dht_->Cas(Slice(LocationKey(pid)), Slice(),
                             Slice(EncodeEntry(entry)),
                             /*expect_absent=*/true, &applied, &current));
  if (!applied) {
    // Someone else seeded or relocated first; their entry is authoritative.
    Result<LocationEntry> stored = DecodeEntry(current);
    if (!stored.ok()) return stored;
    CacheInsert(pid, *stored);
    return stored;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.seeds++;
  }
  CacheInsert(pid, entry);
  return entry;
}

Future<LocationEntry> LocationIndex::SeedAsync(
    const PageId& pid, std::vector<ProviderId> providers) {
  auto entry = std::make_shared<LocationEntry>(
      LocationEntry{1, std::move(providers)});
  return dht_
      ->CasAsync(Slice(LocationKey(pid)), Slice(), Slice(EncodeEntry(*entry)),
                 /*expect_absent=*/true)
      .Then([this, pid,
             entry](Result<dht::CasResponse> r) -> Result<LocationEntry> {
        if (!r.ok()) return r.status();
        if (!r->applied) {
          Result<LocationEntry> stored = DecodeEntry(r->current);
          if (!stored.ok()) return stored;
          CacheInsert(pid, *stored);
          return stored;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          stats_.seeds++;
        }
        CacheInsert(pid, *entry);
        return std::move(*entry);
      });
}

Result<LocationEntry> LocationIndex::CompareAndSwap(
    const PageId& pid, const LocationEntry& expected,
    std::vector<ProviderId> next) {
  // Replica moves carry the refcount and content hash through unchanged.
  LocationEntry installed = expected;
  installed.providers = std::move(next);
  return CompareAndSwapEntry(pid, expected, std::move(installed));
}

Result<LocationEntry> LocationIndex::CompareAndSwapEntry(
    const PageId& pid, const LocationEntry& expected, LocationEntry next) {
  next.epoch = expected.epoch + 1;
  bool applied = false;
  std::string current;
  BS_RETURN_NOT_OK(dht_->Cas(Slice(LocationKey(pid)),
                             Slice(EncodeEntry(expected)),
                             Slice(EncodeEntry(next)),
                             /*expect_absent=*/false, &applied, &current));
  if (applied) {
    CacheInsert(pid, next);
    return next;
  }
  Invalidate(pid);
  if (current.empty()) return Status::NotFound("location entry deleted");
  Result<LocationEntry> stored = DecodeEntry(current);
  if (stored.ok()) CacheInsert(pid, *stored);
  return Status::Aborted("location entry changed: " +
                         (stored.ok() ? stored->ToString() : current));
}

Future<LocationEntry> LocationIndex::CompareAndSwapEntryAsync(
    const PageId& pid, const LocationEntry& expected, LocationEntry next) {
  next.epoch = expected.epoch + 1;
  auto installed = std::make_shared<LocationEntry>(std::move(next));
  return dht_
      ->CasAsync(Slice(LocationKey(pid)), Slice(EncodeEntry(expected)),
                 Slice(EncodeEntry(*installed)),
                 /*expect_absent=*/false)
      .Then([this, pid,
             installed](Result<dht::CasResponse> r) -> Result<LocationEntry> {
        if (!r.ok()) return r.status();
        if (r->applied) {
          CacheInsert(pid, *installed);
          return std::move(*installed);
        }
        Invalidate(pid);
        if (r->current.empty())
          return Status::NotFound("location entry deleted");
        Result<LocationEntry> stored = DecodeEntry(r->current);
        if (stored.ok()) CacheInsert(pid, *stored);
        return Status::Aborted("location entry changed: " +
                               (stored.ok() ? stored->ToString()
                                            : r->current));
      });
}

Result<LocationEntry> LocationIndex::AdjustRefs(const PageId& pid,
                                                int32_t delta,
                                                int max_retries) {
  for (int attempt = 0;; attempt++) {
    // Always a fresh DHT read: the CAS below must expect the authoritative
    // bytes, and a cached entry may be epochs behind.
    std::string bytes;
    Status got = dht_->Get(Slice(LocationKey(pid)), &bytes);
    if (!got.ok()) {
      Invalidate(pid);
      return got;
    }
    Result<LocationEntry> cur = DecodeEntry(bytes);
    if (!cur.ok()) return cur.status();
    if (cur->condemned())
      return Status::FailedPrecondition("location entry condemned");
    LocationEntry next = *cur;
    next.refs = delta < 0 && uint32_t(-delta) >= next.refs
                    ? 0
                    : next.refs + uint32_t(delta);
    Result<LocationEntry> swapped =
        CompareAndSwapEntry(pid, *cur, std::move(next));
    if (swapped.ok() || !swapped.status().IsAborted() ||
        attempt >= max_retries) {
      return swapped;
    }
  }
}

Future<LocationEntry> LocationIndex::AdjustRefsAsync(const PageId& pid,
                                                     int32_t delta,
                                                     int max_retries) {
  return dht_->GetAsync(Slice(LocationKey(pid)))
      .Then([this, pid, delta,
             max_retries](Result<std::string> bytes) -> Future<LocationEntry> {
        if (!bytes.ok()) {
          Invalidate(pid);
          return MakeReadyFuture<LocationEntry>(bytes.status());
        }
        Result<LocationEntry> cur = DecodeEntry(*bytes);
        if (!cur.ok()) return MakeReadyFuture<LocationEntry>(cur.status());
        if (cur->condemned()) {
          return MakeReadyFuture<LocationEntry>(
              Status::FailedPrecondition("location entry condemned"));
        }
        LocationEntry next = *cur;
        next.refs = delta < 0 && uint32_t(-delta) >= next.refs
                        ? 0
                        : next.refs + uint32_t(delta);
        return CompareAndSwapEntryAsync(pid, *cur, std::move(next))
            .Then([this, pid, delta, max_retries](
                      Result<LocationEntry> swapped) -> Future<LocationEntry> {
              if (swapped.ok() || !swapped.status().IsAborted() ||
                  max_retries == 0) {
                return MakeReadyFuture<LocationEntry>(std::move(swapped));
              }
              return AdjustRefsAsync(pid, delta, max_retries - 1);
            });
      });
}

Status LocationIndex::DeleteEntry(const PageId& pid) {
  Status s = dht_->Delete(Slice(LocationKey(pid)));
  Invalidate(pid);
  return s;
}

Future<Unit> LocationIndex::DeleteEntryAsync(const PageId& pid) {
  return dht_->DeleteAsync(Slice(LocationKey(pid)))
      .Then([this, pid](Result<Unit> r) -> Result<Unit> {
        Invalidate(pid);
        return r;
      });
}

void LocationIndex::Invalidate(const PageId& pid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(pid);
  if (it == cache_.end()) return;
  lru_.erase(it->second);
  cache_.erase(it);
  stats_.invalidations++;
}

void LocationIndex::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += cache_.size();
  cache_.clear();
  lru_.clear();
}

LocationIndexStats LocationIndex::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace blobseer::locator
