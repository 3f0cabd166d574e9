// Page-location indirection: maps stable PageIds to the replica set that
// currently holds the page. Metadata leaves (format v3) store only PageIds;
// the location entries live in the DHT under their own key namespace, so
// the failure detector can move replicas without rewriting any metadata
// tree node.
#ifndef BLOBSEER_LOCATOR_LOCATION_H_
#define BLOBSEER_LOCATOR_LOCATION_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/future.h"
#include "common/result.h"
#include "common/serde.h"
#include "common/types.h"
#include "dht/client.h"

namespace blobseer::locator {

/// DHT key for a page's location entry ('L' namespace tag, mirroring the
/// metadata node 'N' namespace).
std::string LocationKey(const PageId& pid);

/// Where a page's replicas currently live. `epoch` increments on every
/// relocation; it is the compare-and-swap token that serializes concurrent
/// rebuilds and lets caches detect staleness.
struct LocationEntry {
  uint64_t epoch = 0;
  std::vector<ProviderId> providers;
  /// Dedup reference count: the number of store events referencing this
  /// page (1 from the original publish, +1 per content-hash adoption).
  /// 0 means the GC sweeper condemned the entry — the page is being
  /// physically deleted and must not be adopted (docs/lifecycle.md).
  uint32_t refs = 1;
  /// Content hash the page was deduplicated under (0/0 = none); lets the
  /// sweeper clean the 'H' namespace mapping when the page dies.
  uint64_t hash_hi = 0;
  uint64_t hash_lo = 0;

  friend bool operator==(const LocationEntry&, const LocationEntry&) = default;

  bool valid() const { return epoch != 0 && !providers.empty(); }
  bool condemned() const { return refs == 0; }

  void EncodeTo(BinaryWriter* w) const;
  Status DecodeFrom(BinaryReader* r);
  std::string ToString() const;
};

struct LocationIndexStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  uint64_t seeds = 0;
};

/// Client view of the location index: resolve with a small LRU cache in
/// front of the DHT, publish entries for freshly written pages, seed entries
/// for pages whose replica set is still embedded in pre-v3 metadata, and
/// CAS entries when moving replicas. Thread-safe.
class LocationIndex {
 public:
  /// `dht` must outlive the index. `cache_capacity` of 0 disables caching.
  LocationIndex(dht::DhtClient* dht, size_t cache_capacity);

  /// Current replica set for `pid`, from cache or the DHT. NotFound when no
  /// entry exists (pre-v3 page not yet seeded, or deleted page).
  Result<LocationEntry> Resolve(const PageId& pid);
  Future<LocationEntry> ResolveAsync(const PageId& pid);
  /// Batched ResolveAsync: cache hits are served locally and every miss
  /// travels in one DhtClient::MultiGetAsync (one RPC per DHT node).
  /// Resolves to one result per pid, in order, each with ResolveAsync's
  /// contract.
  Future<std::vector<Result<LocationEntry>>> ResolveManyAsync(
      const std::vector<PageId>& pids);

  /// Installs the entry for a freshly written page at epoch 1 with refs=1.
  /// A plain put: PageIds are minted client-locally and never reused, so no
  /// other writer can race this key. `hash_hi`/`hash_lo` record the content
  /// hash the page is addressed by when dedup is on (0/0 = none).
  Status Publish(const PageId& pid, std::vector<ProviderId> providers,
                 uint64_t hash_hi = 0, uint64_t hash_lo = 0);
  Future<Unit> PublishAsync(const PageId& pid,
                            std::vector<ProviderId> providers,
                            uint64_t hash_hi = 0, uint64_t hash_lo = 0);

  /// Creates the entry for a pre-v3 page from the replica set embedded in
  /// its metadata leaf (create-if-absent CAS). If another reader or the
  /// rebuilder got there first, the already-stored entry wins and is
  /// returned — callers always end up with the authoritative one.
  Result<LocationEntry> Seed(const PageId& pid,
                             const std::vector<ProviderId>& providers);
  Future<LocationEntry> SeedAsync(const PageId& pid,
                                  std::vector<ProviderId> providers);

  /// Atomically replaces `expected` with `{expected.epoch + 1, next}`.
  /// Returns the installed entry on success; Aborted when the stored entry
  /// no longer matches (a concurrent relocation won — re-resolve and
  /// retry); NotFound when the entry was deleted underneath.
  Result<LocationEntry> CompareAndSwap(const PageId& pid,
                                       const LocationEntry& expected,
                                       std::vector<ProviderId> next);

  /// Full-entry CAS: installs `next` (with epoch forced to
  /// `expected.epoch + 1`) iff the stored bytes still equal `expected`.
  /// Same failure contract as CompareAndSwap. The GC sweeper condemns
  /// entries through this (refs -> 0) so any concurrent adoption — which
  /// must itself CAS a refs bump — fails one side of the race cleanly.
  Result<LocationEntry> CompareAndSwapEntry(const PageId& pid,
                                            const LocationEntry& expected,
                                            LocationEntry next);
  Future<LocationEntry> CompareAndSwapEntryAsync(const PageId& pid,
                                                 const LocationEntry& expected,
                                                 LocationEntry next);

  /// Atomically adds `delta` to the entry's dedup refcount (fresh DHT read,
  /// never the cache), retrying lost CAS races up to `max_retries` times.
  /// Returns the installed entry. FailedPrecondition when the entry is
  /// condemned (refs == 0): the caller must not adopt this page.
  Result<LocationEntry> AdjustRefs(const PageId& pid, int32_t delta,
                                   int max_retries = 4);
  Future<LocationEntry> AdjustRefsAsync(const PageId& pid, int32_t delta,
                                        int max_retries = 4);

  /// Deletes the entry outright (physical cleanup after a condemn; also the
  /// failed-write cleanup path). Plain delete, caller serializes.
  Status DeleteEntry(const PageId& pid);
  Future<Unit> DeleteEntryAsync(const PageId& pid);

  /// Drops one / every cached entry. Readers invalidate a page on replica
  /// failover so the next resolve re-fetches the (possibly moved) entry.
  void Invalidate(const PageId& pid);
  void InvalidateAll();

  LocationIndexStats GetStats() const;
  dht::DhtClient* dht() { return dht_; }

 private:
  bool CacheLookup(const PageId& pid, LocationEntry* entry);
  void CacheInsert(const PageId& pid, const LocationEntry& entry);

  dht::DhtClient* dht_;
  size_t capacity_;

  mutable std::mutex mu_;
  // LRU: most-recent at front.
  std::list<std::pair<PageId, LocationEntry>> lru_;
  std::unordered_map<PageId,
                     std::list<std::pair<PageId, LocationEntry>>::iterator>
      cache_;
  LocationIndexStats stats_;
};

}  // namespace blobseer::locator

#endif  // BLOBSEER_LOCATOR_LOCATION_H_
