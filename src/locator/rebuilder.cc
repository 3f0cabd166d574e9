#include "locator/rebuilder.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "provider/messages.h"
#include "rpc/call.h"

namespace blobseer::locator {

namespace {

// Same reconnect-once-on-Unavailable idiom as the DHT client: page ops are
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

}  // namespace

struct Rebuilder::Loop {
  std::atomic<bool> stop{false};
  std::shared_ptr<WaitEvent> done;
};

Rebuilder::Rebuilder(PageLocationTable* table, ProvidersFn providers,
                     rpc::Transport* transport,
                     std::vector<std::string> dht_nodes,
                     dht::DhtClientOptions dht_options, RebuildOptions options)
    : table_(table),
      providers_(std::move(providers)),
      options_(options),
      dht_(transport, std::move(dht_nodes), dht_options),
      // No location cache: every CAS must start from the authoritative
      // entry, and the table already memoizes what this process learned.
      index_(&dht_, /*cache_capacity=*/0),
      providers_pool_(transport, /*channels_per_endpoint=*/1) {}

Rebuilder::~Rebuilder() { Stop(); }

Status Rebuilder::MovePage(
    const PageId& pid, LocationEntry* entry, ProviderId from, ProviderId to,
    const std::unordered_map<ProviderId, ProviderView>& views) {
  // Copy sources: surviving members first, the vacated provider itself as
  // a last resort (it is still up for drain and rebalance moves).
  std::vector<const ProviderView*> sources;
  for (ProviderId m : entry->providers) {
    if (m == from) continue;
    auto it = views.find(m);
    if (it != views.end() && it->second.up) sources.push_back(&it->second);
  }
  auto from_it = views.find(from);
  const bool from_up = from_it != views.end() && from_it->second.up;
  if (from_up) sources.push_back(&from_it->second);

  // A one-item batched read of the whole object.
  provider::ReadRequest read{{provider::ReadItem{pid, 0, 0}}};
  provider::ReadResponse page;
  Status rs = Status::Unavailable("no live replica to copy from");
  for (const ProviderView* src : sources) {
    page = provider::ReadResponse{};
    rs = CallProvider(&providers_pool_, src->address,
                      rpc::Method::kProviderRead, read, &page);
    if (rs.ok())
      rs = page.items.size() == 1
               ? page.items[0].status()
               : Status::Corruption("provider read: response item count");
    if (rs.ok()) break;
  }
  if (!rs.ok()) {
    // A NotFound here means the page object is missing on a live source,
    // not that the location entry vanished — keep the distinction for the
    // caller, which treats NotFound as "entry deleted".
    return rs.IsNotFound() ? Status::Unavailable(rs.message()) : rs;
  }

  auto to_it = views.find(to);
  if (to_it == views.end())
    return Status::Internal("rebuild target not in provider view");
  provider::WriteRequest write{pid, std::move(page.items[0]).ValueUnsafe()};
  provider::WriteResponse wrsp;
  BS_RETURN_NOT_OK(CallProvider(&providers_pool_, to_it->second.address,
                                rpc::Method::kProviderWrite, write, &wrsp));

  // Commit: the location entry flips to the new set in one CAS, so readers
  // either see the old set (and fail over off the bad member) or the new
  // one (where the copy already exists).
  std::vector<ProviderId> next = entry->providers;
  std::replace(next.begin(), next.end(), from, to);
  Result<LocationEntry> installed =
      index_.CompareAndSwap(pid, *entry, std::move(next));
  if (!installed.ok()) {
    if (installed.status().IsNotFound()) {
      // The GC sweeper deleted the entry between our read and the CAS: the
      // copy we just wrote is unreachable garbage — remove it so it cannot
      // leak on the target provider.
      provider::DeleteRequest del{pid};
      provider::DeleteResponse drsp;
      (void)CallProvider(&providers_pool_, to_it->second.address,
                         rpc::Method::kProviderDelete, del, &drsp);
    }
    return installed.status();
  }
  *entry = *installed;
  table_->Record(pid, *entry);

  if (from_up) {
    provider::DeleteRequest del{pid};
    provider::DeleteResponse drsp;
    (void)CallProvider(&providers_pool_, from_it->second.address,
                       rpc::Method::kProviderDelete, del, &drsp);
  }
  return Status::OK();
}

size_t Rebuilder::RunOnePass() {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.passes++;
  }
  std::unordered_map<ProviderId, ProviderView> views;
  std::unordered_map<ProviderId, size_t> load;  // alive move targets only
  for (ProviderView& v : providers_()) {
    if (v.alive) load[v.id] = 0;
    views.emplace(v.id, std::move(v));
  }
  auto pages = table_->Snapshot();
  for (const auto& [pid, entry] : pages) {
    for (ProviderId m : entry.providers) {
      auto it = load.find(m);
      if (it != load.end()) it->second++;
    }
  }

  auto pick_target =
      [&](const std::vector<ProviderId>& members) -> ProviderId {
    ProviderId best = kInvalidProvider;
    size_t best_load = std::numeric_limits<size_t>::max();
    for (const auto& [id, l] : load) {
      if (std::find(members.begin(), members.end(), id) != members.end())
        continue;
      // Tie-break by id for reproducible placement under virtual time.
      if (l < best_load || (l == best_load && id < best)) {
        best = id;
        best_load = l;
      }
    }
    return best;
  };

  size_t moves = 0;
  // Heal dead members and drain draining ones, page by page.
  for (auto& [pid, entry] : pages) {
    if (moves >= options_.max_moves_per_pass) break;
    if (entry.condemned()) continue;  // GC owns this page now
    bool rescan = true;
    while (rescan && moves < options_.max_moves_per_pass) {
      rescan = false;
      for (ProviderId m : entry.providers) {
        auto it = views.find(m);
        const bool bad = it == views.end() || !it->second.up;
        const bool drain = !bad && it->second.draining;
        if (!bad && !drain) continue;
        ProviderId target = pick_target(entry.providers);
        if (target == kInvalidProvider) {
          std::lock_guard<std::mutex> lock(stats_mu_);
          stats_.failed_moves++;
          continue;
        }
        Status s = MovePage(pid, &entry, m, target, views);
        if (s.ok()) {
          load[target]++;
          moves++;
          std::lock_guard<std::mutex> lock(stats_mu_);
          (drain ? stats_.pages_drained : stats_.pages_rebuilt)++;
          rescan = true;  // the member list changed; re-scan the entry
          break;
        }
        if (s.IsAborted()) {
          // A concurrent relocation won the CAS: learn the fresh entry and
          // re-scan it — the conflict may already have healed this member.
          {
            std::lock_guard<std::mutex> lock(stats_mu_);
            stats_.cas_conflicts++;
          }
          Result<LocationEntry> fresh = index_.Resolve(pid);
          if (fresh.ok()) {
            if (fresh->condemned()) {
              // The conflicting CAS was the GC sweeper condemning the page;
              // leave it to the sweeper's physical deletes.
              table_->Forget(pid);
              break;
            }
            entry = *fresh;
            table_->Record(pid, entry);
            rescan = true;
          }
          break;
        }
        if (s.IsNotFound()) {
          table_->Forget(pid);  // entry deleted under us (page GC'd)
          break;
        }
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.failed_moves++;
      }
    }
  }

  // Rebalance: push pages from the most- to the least-loaded provider
  // while the spread exceeds one page (how fresh joiners pick up load).
  while (options_.rebalance && moves < options_.max_moves_per_pass) {
    ProviderId hi = kInvalidProvider, lo = kInvalidProvider;
    size_t hi_load = 0, lo_load = std::numeric_limits<size_t>::max();
    for (const auto& [id, l] : load) {
      if (hi == kInvalidProvider || l > hi_load) hi = id, hi_load = l;
      if (lo == kInvalidProvider || l < lo_load) lo = id, lo_load = l;
    }
    if (hi == kInvalidProvider || lo == kInvalidProvider ||
        hi_load <= lo_load + 1) {
      break;
    }
    bool moved = false;
    for (auto& [pid, entry] : pages) {
      if (entry.condemned()) continue;
      const auto& p = entry.providers;
      if (std::find(p.begin(), p.end(), hi) == p.end()) continue;
      if (std::find(p.begin(), p.end(), lo) != p.end()) continue;
      Status s = MovePage(pid, &entry, hi, lo, views);
      if (s.ok()) {
        load[hi]--;
        load[lo]++;
        moves++;
        moved = true;
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.pages_rebalanced++;
        break;
      }
      if (s.IsAborted()) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.cas_conflicts++;
        continue;
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.failed_moves++;
    }
    if (!moved) break;
  }
  return moves;
}

void Rebuilder::Start(Executor* executor, Clock* clock) {
  if (options_.interval_us == 0 || loop_) return;
  auto loop = std::make_shared<Loop>();
  loop->done = executor->MakeWaitEvent();
  loop_ = loop;
  executor->Schedule([this, loop, clock] {
    while (!loop->stop.load(std::memory_order_acquire)) {
      clock->SleepForMicros(options_.interval_us);
      if (loop->stop.load(std::memory_order_acquire)) break;
      // Errors inside a pass are per-move and already counted; the loop
      // itself never aborts.
      (void)RunOnePass();
    }
    loop->done->Signal();
  });
}

void Rebuilder::Stop() {
  if (!loop_) return;
  loop_->stop.store(true, std::memory_order_release);
  loop_->done->Await();
  loop_.reset();
}

RebuildStats Rebuilder::GetStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace blobseer::locator
