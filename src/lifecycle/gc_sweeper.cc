#include "lifecycle/gc_sweeper.h"

#include <algorithm>
#include <utility>

#include "common/tree_layout.h"
#include "lifecycle/dedup.h"
#include "lifecycle/retention.h"
#include "provider/messages.h"
#include "rpc/call.h"

namespace blobseer::lifecycle {

namespace {

// Same reconnect-once-on-Unavailable idiom as the rebuilder: deletes are
// idempotent, and on binding transports a pooled channel can go stale when
// a provider restarts under the same address.
template <typename Req, typename Rsp>
Status CallProvider(rpc::ChannelPool* pool, const std::string& address,
                    rpc::Method method, const Req& req, Rsp* rsp) {
  auto ch = pool->Get(address);
  if (!ch.ok()) return ch.status();
  Status s = rpc::CallMethod(ch->get(), method, req, rsp);
  if (!s.IsUnavailable() || !pool->binding()) return s;
  pool->Invalidate(address);
  ch = pool->Get(address);
  if (!ch.ok()) return s;
  *rsp = Rsp{};
  return rpc::CallMethod(ch->get(), method, req, rsp);
}

// RAII over the pass-active flag so every RunOnePass exit path (including
// the strict-mark aborts) leaves Drained() true.
class PassGuard {
 public:
  explicit PassGuard(std::atomic<bool>* flag) : flag_(flag) {
    flag_->store(true, std::memory_order_release);
  }
  ~PassGuard() { flag_->store(false, std::memory_order_release); }

 private:
  std::atomic<bool>* flag_;
};

}  // namespace

struct GcSweeper::Loop {
  std::atomic<bool> stop{false};
  std::shared_ptr<WaitEvent> done;
};

GcSweeper::GcSweeper(locator::PageLocationTable* table, ProvidersFn providers,
                     rpc::Transport* transport, std::string vm_address,
                     std::vector<std::string> dht_nodes,
                     dht::DhtClientOptions dht_options, GcOptions options)
    : table_(table),
      providers_(std::move(providers)),
      options_(options),
      vm_(transport, std::move(vm_address), /*channels=*/1),
      dht_(transport, std::move(dht_nodes), dht_options),
      index_(&dht_, /*cache_capacity=*/0),
      meta_(&dht_, meta::MetaClientOptions{/*cache_enabled=*/false,
                                           /*cache_capacity=*/0}),
      providers_pool_(transport, /*channels_per_endpoint=*/1) {}

GcSweeper::~GcSweeper() { Stop(); }

Status GcSweeper::WalkVersion(const BranchAncestry& ancestry, Version version,
                              uint64_t size, uint64_t psize, bool tolerant,
                              std::set<std::string>* nodes,
                              std::unordered_set<PageId>* pids) {
  if (version == 0 || version == kNoVersion || size == 0) return Status::OK();
  struct Frame {
    Extent block;
    Version label;
  };
  std::vector<Frame> stack;
  stack.push_back({Extent{0, RootSizeBytes(size, psize)}, version});
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.label == kNoVersion) continue;  // never-written hole
    meta::NodeKey key{ancestry.Resolve(f.label), f.label, f.block};
    // The accumulator set doubles as the visited set: a node already
    // recorded had its whole subtree (and leaf chain) recorded too.
    if (!nodes->insert(key.ToDhtKey()).second) continue;
    Result<meta::MetaNode> node = meta_.GetNode(key);
    if (!node.ok()) {
      if (tolerant && node.status().IsNotFound()) continue;
      return node.status();
    }
    if (node->is_leaf()) {
      for (const meta::PageFragment& frag : node->fragments) {
        if (frag.pid.valid()) pids->insert(frag.pid);
      }
      // Leaf chains reach older leaves that plain descent from this root
      // never labels — both candidate and mark walks must follow them all
      // the way down, or chained pages leak (candidates) or get collected
      // while reachable (mark).
      if (f.label != node->prev_version)
        stack.push_back({f.block, node->prev_version});
    } else if (!IsLeafBlock(f.block, psize)) {
      stack.push_back({LeftChildBlock(f.block), node->left_version});
      stack.push_back({RightChildBlock(f.block), node->right_version});
    }
  }
  return Status::OK();
}

Status GcSweeper::SweepPage(
    const PageId& pid,
    const std::unordered_map<ProviderId, locator::ProviderView>& views) {
  Result<locator::LocationEntry> entry = index_.Resolve(pid);
  if (!entry.ok()) return entry.status();  // NotFound = already swept
  locator::LocationEntry condemned = *entry;
  if (!condemned.condemned()) {
    // Condemn: full-entry CAS to refs = 0. A racing dedup adoption bumps
    // refs through its own CAS, so exactly one side wins; Aborted here
    // means the page just became live again — leave it to the next pass,
    // whose mark walk will see the adopter's version.
    condemned.refs = 0;
    Result<locator::LocationEntry> cas =
        index_.CompareAndSwapEntry(pid, *entry, condemned);
    if (!cas.ok()) return cas.status();
    condemned = *cas;
  }
  // Physical deletes, best effort on reachable providers: a provider that
  // is down keeps its (condemned, unreadable) copy until its pagelog is
  // compacted away or it re-registers and the entry re-resolves NotFound.
  for (ProviderId m : condemned.providers) {
    auto it = views.find(m);
    if (it == views.end() || !it->second.up) continue;
    provider::DeleteRequest del{pid};
    provider::DeleteResponse drsp;
    (void)CallProvider(&providers_pool_, it->second.address,
                       rpc::Method::kProviderDelete, del, &drsp);
  }
  // Drop the 'H' mapping if it still points at this page (a losing
  // adopter may already have repaired it to a fresh PageId — leave that).
  if (condemned.hash_hi != 0 || condemned.hash_lo != 0) {
    std::string hkey = HashKey(condemned.hash_hi, condemned.hash_lo);
    std::string cur;
    if (dht_.Get(Slice(hkey), &cur).ok()) {
      Result<PageId> target = DecodeHashTarget(cur);
      if (target.ok() && *target == pid) {
        if (dht_.Delete(Slice(hkey)).ok()) {
          std::lock_guard<std::mutex> lock(mu_);
          stats_.hash_links_removed++;
        }
      }
    }
  }
  // The entry goes last: a crash before this point leaves a condemned
  // entry the next pass finds and finishes (every step above is
  // idempotent).
  (void)index_.DeleteEntry(pid);
  table_->Forget(pid);
  return Status::OK();
}

Status GcSweeper::RunOnePass(uint64_t now_us) {
  PassGuard active(&pass_active_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.passes++;
  }

  Result<std::vector<BlobId>> blob_ids = vm_.ListBlobs();
  if (!blob_ids.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.errors++;
    return blob_ids.status();
  }

  // Phase 1: retention. Expired versions are discarded through the same
  // vmanager call manual deletion uses; losing a race with a concurrent
  // pin (FailedPrecondition) just means the version survives this pass.
  struct BlobScan {
    BlobDescriptor desc;
    std::vector<vmanager::VersionInfo> versions;
  };
  std::vector<BlobScan> scans;
  bool have_candidates = false;
  for (BlobId id : *blob_ids) {
    Result<BlobDescriptor> desc = vm_.OpenBlob(id, nullptr, nullptr);
    if (!desc.ok()) {
      if (desc.status().IsNotFound()) continue;
      std::lock_guard<std::mutex> lock(mu_);
      stats_.errors++;
      return desc.status();
    }
    Result<std::vector<vmanager::VersionInfo>> versions = vm_.ListVersions(id);
    if (!versions.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.errors++;
      return versions.status();
    }
    if (options_.apply_retention) {
      Result<RetentionPolicy> policy = vm_.GetRetention(id);
      if (policy.ok() && policy->enabled()) {
        std::vector<VersionFacts> facts;
        facts.reserve(versions->size());
        for (const vmanager::VersionInfo& vi : *versions) {
          facts.push_back({vi.version, vi.assigned_at_us, vi.published,
                           vi.discarded, vi.pinned});
        }
        for (Version v : ExpiredVersions(*policy, facts, now_us)) {
          Status s = vm_.DiscardVersion(id, v);
          if (s.ok()) {
            for (vmanager::VersionInfo& vi : *versions) {
              if (vi.version == v) vi.discarded = true;
            }
            std::lock_guard<std::mutex> lock(mu_);
            stats_.versions_discarded++;
          }
          // FailedPrecondition (pinned since we listed) or NotFound: skip.
        }
      }
    }
    BlobScan scan{std::move(desc).ValueUnsafe(),
                  std::move(versions).ValueUnsafe()};
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const vmanager::VersionInfo& vi : scan.versions) {
        if (vi.discarded && !retired_.count({scan.desc.id, vi.version}))
          have_candidates = true;
      }
    }
    scans.push_back(std::move(scan));
  }
  if (!have_candidates) return Status::OK();

  // Phase 2: candidate walks over discarded, not-yet-retired versions.
  // Tolerant: earlier (possibly truncated) passes already deleted some of
  // this metadata. Non-NotFound failures abort — an unreachable DHT node
  // would silently shrink the candidate set and strand its pages forever.
  std::set<std::string> candidate_nodes;
  std::unordered_set<PageId> candidate_pids;
  std::vector<std::pair<BlobId, Version>> sweeping;
  for (const BlobScan& scan : scans) {
    BranchAncestry ancestry = scan.desc.Ancestry();
    for (const vmanager::VersionInfo& vi : scan.versions) {
      if (!vi.discarded) continue;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (retired_.count({scan.desc.id, vi.version})) continue;
      }
      Status s = WalkVersion(ancestry, vi.version, vi.size, scan.desc.psize,
                             /*tolerant=*/true, &candidate_nodes,
                             &candidate_pids);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.errors++;
        return s;
      }
      sweeping.push_back({scan.desc.id, vi.version});
    }
  }
  if (sweeping.empty()) return Status::OK();

  // Phase 3: mark. Every published, non-discarded version of every blob is
  // live — global, because dedup shares pages across blobs. Strict: a pass
  // must never sweep against a partial live set.
  std::set<std::string> live_nodes;
  std::unordered_set<PageId> live_pids;
  for (const BlobScan& scan : scans) {
    BranchAncestry ancestry = scan.desc.Ancestry();
    for (const vmanager::VersionInfo& vi : scan.versions) {
      if (!vi.published || vi.discarded) continue;
      Status s = WalkVersion(ancestry, vi.version, vi.size, scan.desc.psize,
                             /*tolerant=*/false, &live_nodes, &live_pids);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.errors++;
        return s;
      }
    }
  }

  for (const PageId& pid : live_pids) candidate_pids.erase(pid);
  for (const std::string& key : live_nodes) candidate_nodes.erase(key);

  // Phase 4: sweep pages, budgeted.
  std::unordered_map<ProviderId, locator::ProviderView> views;
  for (locator::ProviderView& v : providers_()) views.emplace(v.id, std::move(v));
  size_t budget = options_.max_sweep_per_pass;
  bool truncated = false;
  for (const PageId& pid : candidate_pids) {
    if (budget == 0) {
      truncated = true;
      break;
    }
    Status s = SweepPage(pid, views);
    std::lock_guard<std::mutex> lock(mu_);
    if (s.ok()) {
      stats_.pages_swept++;
      budget--;
    } else if (s.IsAborted()) {
      stats_.pages_deferred++;
    } else if (!s.IsNotFound()) {
      stats_.errors++;
    }
  }

  // Phase 5: retire tree nodes — only when the page sweep completed, since
  // deleting a version's root strands whatever pages were left unswept.
  if (truncated) return Status::OK();
  for (const std::string& key : candidate_nodes) {
    Status s = dht_.Delete(Slice(key));
    std::lock_guard<std::mutex> lock(mu_);
    if (s.ok() || s.IsNotFound()) {
      stats_.nodes_retired++;
    } else {
      stats_.errors++;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::pair<BlobId, Version>& bv : sweeping) {
      retired_.insert(bv);
      stats_.versions_retired++;
    }
  }
  return Status::OK();
}

void GcSweeper::Start(Executor* executor, Clock* clock) {
  if (options_.interval_us == 0 || loop_) return;
  auto loop = std::make_shared<Loop>();
  loop->done = executor->MakeWaitEvent();
  loop_ = loop;
  executor->Schedule([this, loop, clock] {
    while (!loop->stop.load(std::memory_order_acquire)) {
      clock->SleepForMicros(options_.interval_us);
      if (loop->stop.load(std::memory_order_acquire)) break;
      // Pass errors are counted in stats; the loop itself never aborts.
      (void)RunOnePass(clock->NowMicros());
    }
    loop->done->Signal();
  });
}

void GcSweeper::Stop() {
  if (!loop_) return;
  loop_->stop.store(true, std::memory_order_release);
  loop_->done->Await();
  loop_.reset();
}

GcStats GcSweeper::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace blobseer::lifecycle
