#include "meta/meta_client.h"

#include "common/logging.h"

namespace blobseer::meta {

namespace {

Status DecodeNode(const std::string& raw, MetaNode* node) {
  BinaryReader r{Slice(raw)};
  BS_RETURN_NOT_OK(node->DecodeFrom(&r));
  return r.ExpectEnd();
}

}  // namespace

MetaClient::MetaClient(dht::DhtClient* dht, MetaClientOptions options)
    : dht_(dht), options_(options) {}

void MetaClient::CacheInsert(const std::string& key, const MetaNode& node) {
  if (!options_.cache_enabled) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, node);
  cache_[key] = lru_.begin();
  cache_stats_.puts++;
  while (cache_.size() > options_.cache_capacity) {
    cache_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

bool MetaClient::CacheLookup(const std::string& key, MetaNode* node) {
  if (!options_.cache_enabled) return false;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    cache_stats_.misses++;
    return false;
  }
  cache_stats_.hits++;
  lru_.splice(lru_.begin(), lru_, it->second);
  *node = it->second->second;
  return true;
}

Status MetaClient::PutNode(const NodeKey& key, const MetaNode& node) {
  BinaryWriter w;
  node.EncodeTo(&w);
  std::string k = key.ToDhtKey();
  BS_RETURN_NOT_OK(dht_->Put(Slice(k), Slice(w.buffer())));
  CacheInsert(k, node);
  return Status::OK();
}

Result<MetaNode> MetaClient::GetNode(const NodeKey& key) {
  std::string k = key.ToDhtKey();
  MetaNode node;
  if (CacheLookup(k, &node)) return node;
  std::string raw;
  Status s = dht_->Get(Slice(k), &raw);
  if (!s.ok()) return s.WithContext("metadata node " + key.ToString());
  BS_RETURN_NOT_OK(DecodeNode(raw, &node));
  CacheInsert(k, node);
  return node;
}

Future<Unit> MetaClient::PutNodeAsync(const NodeKey& key,
                                      const MetaNode& node) {
  BinaryWriter w;
  node.EncodeTo(&w);
  std::string k = key.ToDhtKey();
  return dht_->PutAsync(Slice(k), Slice(w.buffer()))
      .Then([this, k, node](Result<Unit> r) -> Status {
        if (!r.ok()) return r.status();
        CacheInsert(k, node);
        return Status::OK();
      });
}

Future<MetaNode> MetaClient::GetNodeAsync(const NodeKey& key) {
  std::string k = key.ToDhtKey();
  MetaNode cached;
  if (CacheLookup(k, &cached))
    return MakeReadyFuture<MetaNode>(std::move(cached));
  return dht_->GetAsync(Slice(k)).Then(
      [this, k, key](Result<std::string> raw) -> Result<MetaNode> {
        if (!raw.ok())
          return raw.status().WithContext("metadata node " + key.ToString());
        MetaNode node;
        BS_RETURN_NOT_OK(DecodeNode(*raw, &node));
        CacheInsert(k, node);
        return node;
      });
}

Future<std::vector<MetaNode>> MetaClient::GetNodesAsync(
    const std::vector<NodeKey>& keys) {
  using Out = std::vector<MetaNode>;
  // Misses keep their key (error context) and DHT key (cache insert).
  struct Miss {
    size_t index;
    NodeKey key;
    std::string dht_key;
  };
  auto nodes = std::make_shared<Out>(keys.size());
  auto misses = std::make_shared<std::vector<Miss>>();
  std::vector<std::string> miss_keys;
  for (size_t i = 0; i < keys.size(); i++) {
    std::string k = keys[i].ToDhtKey();
    if (CacheLookup(k, &(*nodes)[i])) continue;
    miss_keys.push_back(k);
    misses->push_back(Miss{i, keys[i], std::move(k)});
  }
  if (misses->empty()) return MakeReadyFuture<Out>(std::move(*nodes));
  return dht_->MultiGetAsync(std::move(miss_keys))
      .Then([this, nodes, misses](
                Result<std::vector<Result<std::string>>> raws) -> Result<Out> {
        if (!raws.ok()) return raws.status();
        for (size_t j = 0; j < misses->size(); j++) {
          const Miss& m = (*misses)[j];
          const Result<std::string>& raw = (*raws)[j];
          if (!raw.ok())
            return raw.status().WithContext("metadata node " +
                                            m.key.ToString());
          MetaNode& node = (*nodes)[m.index];
          BS_RETURN_NOT_OK(DecodeNode(*raw, &node));
          CacheInsert(m.dht_key, node);
        }
        return std::move(*nodes);
      });
}

Future<MetaNode> MetaClient::GetNodeMemoizedAsync(
    const NodeKey& key, std::shared_ptr<SharedNodeMemo> memo) {
  if (!memo) return GetNodeAsync(key);
  std::string k = key.ToDhtKey();
  {
    std::lock_guard<std::mutex> lock(memo->mu);
    auto it = memo->map.find(k);
    if (it != memo->map.end())
      return MakeReadyFuture<MetaNode>(MetaNode(it->second));
  }
  return GetNodeAsync(key).Then(
      [memo, k](Result<MetaNode> node) -> Result<MetaNode> {
        if (node.ok()) {
          std::lock_guard<std::mutex> lock(memo->mu);
          memo->map.emplace(k, *node);
        }
        return node;
      });
}

Future<Unit> MetaClient::WriteNodesAsync(
    std::vector<std::pair<NodeKey, MetaNode>> nodes) {
  std::vector<Future<Unit>> puts;
  puts.reserve(nodes.size());
  for (const auto& [key, node] : nodes) {
    puts.push_back(PutNodeAsync(key, node));
  }
  return WhenAll(std::move(puts))
      .Then([](Result<std::vector<Result<Unit>>> all) -> Status {
        if (!all.ok()) return all.status();
        return FirstError(*all);
      });
}

Future<std::vector<LeafRef>> MetaClient::ReadMetaAsync(
    const BranchAncestry& ancestry, Version version, uint64_t blob_size,
    uint64_t psize, const Extent& range) {
  using Out = std::vector<LeafRef>;
  if (range.size == 0) return MakeReadyFuture<Out>(Out{});
  if (version == 0 || blob_size == 0)
    return MakeReadyFuture<Out>(Status::OutOfRange("read from empty snapshot"));
  if (range.end() > blob_size)
    return MakeReadyFuture<Out>(
        Status::OutOfRange("read beyond snapshot size"));

  // Level-wise descent: fetch the whole frontier in one batched wave, then
  // expand it, until only leaves remain. State is shared across waves.
  struct Frontier {
    Extent block;
    Version version;
  };
  struct WalkOp {
    MetaClient* mc;
    BranchAncestry ancestry;
    uint64_t psize;
    Extent range;
    std::vector<Frontier> frontier;
    Out leaves;
    Promise<Out> promise;

    void Step(const std::shared_ptr<WalkOp>& self) {
      if (frontier.empty()) {
        promise.Set(std::move(leaves));
        return;
      }
      std::vector<NodeKey> keys;
      keys.reserve(frontier.size());
      for (const Frontier& f : frontier) {
        keys.push_back(
            NodeKey{ancestry.Resolve(f.version), f.version, f.block});
      }
      mc->GetNodesAsync(keys).OnReady(
          nullptr, [self](Result<std::vector<MetaNode>> all) {
            if (!all.ok()) {
              self->promise.Set(all.status());
              return;
            }
            std::vector<Frontier> next;
            for (size_t i = 0; i < self->frontier.size(); i++) {
              const Frontier& f = self->frontier[i];
              const MetaNode& node = (*all)[i];
              if (IsLeafBlock(f.block, self->psize)) {
                if (!node.is_leaf()) {
                  self->promise.Set(Status::Corruption(
                      "inner node at leaf block " + f.block.ToString()));
                  return;
                }
                self->leaves.push_back(LeafRef{f.block, f.version, node});
                continue;
              }
              if (node.is_leaf()) {
                self->promise.Set(Status::Corruption(
                    "leaf node at inner block " + f.block.ToString()));
                return;
              }
              Extent left = LeftChildBlock(f.block);
              Extent right = RightChildBlock(f.block);
              if (left.Intersects(self->range)) {
                if (node.left_version == kNoVersion) {
                  self->promise.Set(Status::Corruption(
                      "hole in read range at " + left.ToString()));
                  return;
                }
                next.push_back(Frontier{left, node.left_version});
              }
              if (right.Intersects(self->range)) {
                if (node.right_version == kNoVersion) {
                  self->promise.Set(Status::Corruption(
                      "hole in read range at " + right.ToString()));
                  return;
                }
                next.push_back(Frontier{right, node.right_version});
              }
            }
            self->frontier = std::move(next);
            self->Step(self);
          });
    }
  };
  auto op = std::make_shared<WalkOp>();
  op->mc = this;
  op->ancestry = ancestry;
  op->psize = psize;
  op->range = range;
  op->frontier.push_back(
      Frontier{Extent{0, RootSizeBytes(blob_size, psize)}, version});
  auto f = op->promise.GetFuture();
  op->Step(op);
  return f;
}

Future<Version> MetaClient::ResolveBlockVersionAsync(
    const BranchAncestry& ancestry, Version published,
    uint64_t published_size, uint64_t psize, const Extent& block,
    std::shared_ptr<SharedNodeMemo> memo) {
  if (published == 0 || published_size == 0)
    return MakeReadyFuture<Version>(Version{kNoVersion});
  Extent root{0, RootSizeBytes(published_size, psize)};
  if (block == root) return MakeReadyFuture<Version>(Version{published});
  if (block.offset >= root.size)
    return MakeReadyFuture<Version>(Version{kNoVersion});
  if (block.size >= root.size)
    return MakeReadyFuture<Version>(Status::Internal(
        "border block contains published root; must be supplied by the "
        "version manager: " +
        block.ToString()));

  // Root-to-block descent, one async node fetch per level.
  struct DescentOp {
    MetaClient* mc;
    BranchAncestry ancestry;
    Extent block;
    Extent cur;
    Version cur_version;
    std::shared_ptr<SharedNodeMemo> memo;
    Promise<Version> promise;

    void Step(const std::shared_ptr<DescentOp>& self) {
      if (cur == block) {
        promise.Set(Version{cur_version});
        return;
      }
      NodeKey key{ancestry.Resolve(cur_version), cur_version, cur};
      mc->GetNodeMemoizedAsync(key, memo)
          .OnReady(nullptr, [self](Result<MetaNode> node) {
            if (!node.ok()) {
              self->promise.Set(node.status());
              return;
            }
            if (node->is_leaf()) {
              self->promise.Set(Status::Corruption(
                  "unexpected leaf during descent at " +
                  self->cur.ToString()));
              return;
            }
            Extent left = LeftChildBlock(self->cur);
            Version next_version;
            Extent next;
            if (left.Contains(self->block)) {
              next = left;
              next_version = node->left_version;
            } else {
              next = RightChildBlock(self->cur);
              next_version = node->right_version;
            }
            if (next_version == kNoVersion) {
              self->promise.Set(Version{kNoVersion});  // hole
              return;
            }
            self->cur = next;
            self->cur_version = next_version;
            self->Step(self);
          });
    }
  };
  auto op = std::make_shared<DescentOp>();
  op->mc = this;
  op->ancestry = ancestry;
  op->block = block;
  op->cur = root;
  op->cur_version = published;
  op->memo = std::move(memo);
  auto f = op->promise.GetFuture();
  op->Step(op);
  return f;
}

void MetaClient::InvalidateCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.clear();
  lru_.clear();
}

MetaCacheStats MetaClient::GetCacheStats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_stats_;
}

void MetaClient::set_cache_enabled(bool enabled) {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    options_.cache_enabled = enabled;
  }
  if (!enabled) InvalidateCache();
}

}  // namespace blobseer::meta
