// Client-side metadata engine: reads and writes segment-tree nodes in the
// DHT, walks trees for READ, and resolves border-node versions against
// published snapshots (paper section 4.2).
#ifndef BLOBSEER_META_META_CLIENT_H_
#define BLOBSEER_META_META_CLIENT_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/blob_descriptor.h"
#include "common/future.h"
#include "common/result.h"
#include "dht/client.h"
#include "meta/layout.h"
#include "meta/node.h"

namespace blobseer::meta {

struct MetaClientOptions {
  /// Tree nodes are immutable, so they are freely cacheable. The cache
  /// accelerates border descents and repeated reads; benchmarks can disable
  /// it to measure raw metadata traffic (Figure 2(a) runs cache-off).
  bool cache_enabled = true;
  size_t cache_capacity = 1 << 16;  // nodes
};

struct MetaCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t puts = 0;
};

/// A leaf reached by a tree walk: the page block it covers, the version
/// label that owns it, and its content.
struct LeafRef {
  Extent block;
  Version version = kNoVersion;
  MetaNode node;
};

class MetaClient {
 public:
  explicit MetaClient(dht::DhtClient* dht, MetaClientOptions options = {});

  /// Stores one node (and caches it: the writer is the likeliest next
  /// reader during subsequent border descents).
  Status PutNode(const NodeKey& key, const MetaNode& node);

  /// Fetches one node, through the cache.
  Result<MetaNode> GetNode(const NodeKey& key);

  /// Thread-safe per-operation node memo: a writer resolving several
  /// border blocks of one update descends overlapping root-to-block paths
  /// as concurrent continuation chains, so nodes fetched once are reused
  /// across the whole BUILD_META (the paper computes the border set in a
  /// single descent; this keeps that cost at O(depth) fetches even with
  /// the global cache disabled).
  struct SharedNodeMemo {
    std::mutex mu;
    std::unordered_map<std::string, MetaNode> map;
  };

  /// Async node and tree operations. Continuations resolve on the DHT
  /// transport's completion context; cache hits resolve immediately on the
  /// calling thread.
  Future<Unit> PutNodeAsync(const NodeKey& key, const MetaNode& node);
  Future<MetaNode> GetNodeAsync(const NodeKey& key);
  Future<MetaNode> GetNodeMemoizedAsync(const NodeKey& key,
                                        std::shared_ptr<SharedNodeMemo> memo);
  /// Batched GetNodeAsync: cache hits are served locally and every miss
  /// travels in one DhtClient::MultiGetAsync (one RPC per DHT node).
  /// Resolves to the nodes in key order, or to the first failed key's
  /// error.
  Future<std::vector<MetaNode>> GetNodesAsync(const std::vector<NodeKey>& keys);
  /// Writes a batch of nodes (paper Algorithm 4, final loop). All puts are
  /// issued at once; per-endpoint pipelining bounds the real parallelism.
  Future<Unit> WriteNodesAsync(
      std::vector<std::pair<NodeKey, MetaNode>> nodes);
  /// Paper Algorithm 3 (READ_META): collects every leaf of snapshot
  /// `version` whose page block intersects `range`. The tree is descended
  /// one level per wave, and each wave is one GetNodesAsync.
  Future<std::vector<LeafRef>> ReadMetaAsync(const BranchAncestry& ancestry,
                                             Version version,
                                             uint64_t blob_size,
                                             uint64_t psize,
                                             const Extent& range);
  /// Resolves the version label of `block` within published snapshot
  /// (`published`, `published_size`) by descending from its root, through
  /// the optional per-operation `memo`. Resolves to kNoVersion when the
  /// block lies beyond the published span or under a never-written hole.
  /// Fails with Internal when the block strictly contains the published
  /// root (such blocks must come from the version manager's partial
  /// border set).
  Future<Version> ResolveBlockVersionAsync(
      const BranchAncestry& ancestry, Version published,
      uint64_t published_size, uint64_t psize, const Extent& block,
      std::shared_ptr<SharedNodeMemo> memo);

  void InvalidateCache();
  MetaCacheStats GetCacheStats() const;
  void set_cache_enabled(bool enabled);

 private:
  void CacheInsert(const std::string& key, const MetaNode& node);
  bool CacheLookup(const std::string& key, MetaNode* node);

  dht::DhtClient* dht_;
  MetaClientOptions options_;

  mutable std::mutex cache_mu_;
  // LRU: most-recent at front.
  std::list<std::pair<std::string, MetaNode>> lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, MetaNode>>::iterator>
      cache_;
  MetaCacheStats cache_stats_;
};

}  // namespace blobseer::meta

#endif  // BLOBSEER_META_META_CLIENT_H_
