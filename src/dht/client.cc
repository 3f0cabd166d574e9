#include "dht/client.h"

#include <map>

#include "common/logging.h"
#include "rpc/call.h"

namespace blobseer::dht {

namespace {

// Reconnect-once on Unavailable for binding transports (TCP, inproc): a
// pooled channel opened before an endpoint restart keeps failing even when
// the endpoint is serving again, so the pool entry is dropped and the call
// retried on a fresh connection. KV operations are idempotent, so the
// retry is safe; simnet resolves endpoints per call and opts out via
// binds_at_connect().
template <typename Req, typename Rsp>
Status CallNode(rpc::ChannelPool* pool, const std::string& address,
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

template <typename Req, typename Rsp>
Future<Rsp> CallNodeAsync(rpc::ChannelPool* pool, const std::string& address,
                          rpc::Method method, Req req) {
  auto ch = pool->Get(address);
  if (!ch.ok()) return MakeReadyFuture<Rsp>(ch.status());
  // The request is shared with the retry continuation, so the bytes are
  // serialized twice at most but never copied.
  auto shared = std::make_shared<Req>(std::move(req));
  return rpc::CallMethodAsync<Req, Rsp>(ch->get(), method, *shared)
      .Then([pool, address, method, shared](Result<Rsp> r) -> Future<Rsp> {
        if (r.ok() || !r.status().IsUnavailable() || !pool->binding())
          return MakeReadyFuture<Rsp>(std::move(r));
        pool->Invalidate(address);
        auto retry = pool->Get(address);
        if (!retry.ok()) return MakeReadyFuture<Rsp>(std::move(r));
        return rpc::CallMethodAsync<Req, Rsp>(retry->get(), method, *shared);
      });
}

}  // namespace

DhtClient::DhtClient(rpc::Transport* transport, std::vector<std::string> nodes,
                     DhtClientOptions options)
    : transport_(transport),
      nodes_(std::move(nodes)),
      options_(options),
      placement_(options.placement == "ring"
                     ? MakeRingPlacement(nodes_.size())
                     : MakeStaticPlacement(nodes_.size())),
      pool_(transport_, options.channels_per_endpoint) {
  BS_CHECK(!nodes_.empty()) << "DhtClient requires at least one node";
}

Status DhtClient::Put(Slice key, Slice value) {
  PutRequest req{key.ToString(), value.ToString()};
  Status first_error;
  size_t ok_count = 0;
  for (size_t node : placement_->ReplicaNodes(key, options_.replication)) {
    PutResponse rsp;
    Status s =
        CallNode(&pool_, nodes_[node], rpc::Method::kDhtPut, req, &rsp);
    if (s.ok()) {
      ok_count++;
    } else if (first_error.ok()) {
      first_error = s;
    }
  }
  // Write succeeds if at least one replica accepted it; readers fall back
  // across replicas in the same order.
  if (ok_count > 0) return Status::OK();
  return first_error.ok() ? Status::Unavailable("dht put") : first_error;
}

Status DhtClient::Get(Slice key, std::string* value) {
  GetRequest req{key.ToString()};
  Status last = Status::NotFound("dht key");
  for (size_t node : placement_->ReplicaNodes(key, options_.replication)) {
    GetResponse rsp;
    Status s =
        CallNode(&pool_, nodes_[node], rpc::Method::kDhtGet, req, &rsp);
    if (s.ok()) {
      *value = std::move(rsp.value);
      return Status::OK();
    }
    last = s;
  }
  return last;
}

Status DhtClient::Cas(Slice key, Slice expected, Slice value,
                      bool expect_absent, bool* applied,
                      std::string* current) {
  *applied = false;
  current->clear();
  std::vector<size_t> replicas =
      placement_->ReplicaNodes(key, options_.replication);
  if (replicas.empty()) return Status::Unavailable("dht cas: no nodes");
  CasRequest req{key.ToString(), expected.ToString(), value.ToString(),
                 expect_absent};
  CasResponse rsp;
  // The first placement replica is the linearization point: the conditional
  // write runs only there, under that node's shard lock.
  BS_RETURN_NOT_OK(
      CallNode(&pool_, nodes_[replicas[0]], rpc::Method::kDhtCas, req, &rsp));
  *applied = rsp.applied;
  *current = std::move(rsp.current);
  if (!rsp.applied) return Status::OK();
  // Best-effort fan-out of the accepted value to the tail replicas; the
  // authoritative first copy is already durable and readers try it first.
  PutRequest put{req.key, req.value};
  for (size_t i = 1; i < replicas.size(); i++) {
    PutResponse pr;
    (void)CallNode(&pool_, nodes_[replicas[i]], rpc::Method::kDhtPut, put,
                   &pr);
  }
  return Status::OK();
}

Future<CasResponse> DhtClient::CasAsync(Slice key, Slice expected,
                                        Slice value, bool expect_absent) {
  std::vector<size_t> replicas =
      placement_->ReplicaNodes(key, options_.replication);
  if (replicas.empty())
    return MakeReadyFuture<CasResponse>(Status::Unavailable("dht cas"));
  CasRequest req{key.ToString(), expected.ToString(), value.ToString(),
                 expect_absent};
  Future<CasResponse> f = CallNodeAsync<CasRequest, CasResponse>(
      &pool_, nodes_[replicas[0]], rpc::Method::kDhtCas, req);
  if (replicas.size() == 1) return f;
  // Propagate an applied CAS to the tail replicas before resolving, so a
  // caller observing success never races its own propagation.
  return f.Then([this, key = req.key, value = req.value,
                 replicas](Result<CasResponse> r) -> Future<CasResponse> {
    if (!r.ok() || !r->applied)
      return MakeReadyFuture<CasResponse>(std::move(r));
    auto rsp = std::make_shared<CasResponse>(std::move(r).ValueUnsafe());
    PutRequest put{key, value};
    std::vector<Future<PutResponse>> tail;
    for (size_t i = 1; i < replicas.size(); i++) {
      tail.push_back(CallNodeAsync<PutRequest, PutResponse>(
          &pool_, nodes_[replicas[i]], rpc::Method::kDhtPut, put));
    }
    return WhenAll(std::move(tail))
        .Then([rsp](Result<std::vector<Result<PutResponse>>>)
                  -> Result<CasResponse> { return std::move(*rsp); });
  });
}

Future<Unit> DhtClient::PutAsync(Slice key, Slice value) {
  auto req = PutRequest{key.ToString(), value.ToString()};
  std::vector<Future<PutResponse>> calls;
  for (size_t node : placement_->ReplicaNodes(key, options_.replication)) {
    calls.push_back(CallNodeAsync<PutRequest, PutResponse>(
        &pool_, nodes_[node], rpc::Method::kDhtPut, req));
  }
  if (calls.empty()) return MakeReadyFuture(Status::Unavailable("dht put"));
  return WhenAll(std::move(calls))
      .Then([](Result<std::vector<Result<PutResponse>>> all) -> Status {
        if (!all.ok()) return all.status();
        Status first;
        for (const auto& r : *all) {
          if (r.ok()) return Status::OK();
          if (first.ok()) first = r.status();
        }
        return first.ok() ? Status::Unavailable("dht put") : first;
      });
}

Future<std::string> DhtClient::GetAsync(Slice key) {
  GetRequest req{key.ToString()};
  auto try_replica = [this](const GetRequest& r,
                            size_t node) -> Future<std::string> {
    return CallNodeAsync<GetRequest, GetResponse>(
               &pool_, nodes_[node], rpc::Method::kDhtGet, r)
        .Then([](Result<GetResponse> rsp) -> Result<std::string> {
          if (!rsp.ok()) return rsp.status();
          return std::move(rsp->value);
        });
  };
  // Fallback chain in placement order: each later replica is consulted only
  // after the previous attempt resolved with an error.
  std::vector<size_t> replicas =
      placement_->ReplicaNodes(key, options_.replication);
  if (replicas.empty())
    return MakeReadyFuture<std::string>(Status::NotFound("dht key"));
  Future<std::string> f = try_replica(req, replicas[0]);
  for (size_t i = 1; i < replicas.size(); i++) {
    f = f.Then([try_replica, req, node = replicas[i]](
                   Result<std::string> r) -> Future<std::string> {
      if (r.ok()) return MakeReadyFuture<std::string>(std::move(r));
      return try_replica(req, node);
    });
  }
  return f;
}

// One MultiGetAsync call: every round sends each still-unresolved key to
// its `round`-th placement replica, one kDhtMultiGet per node, and hands
// the keys that missed to the next round.
struct DhtClient::MultiGetOp {
  DhtClient* c = nullptr;
  std::vector<std::string> keys;
  std::vector<std::vector<size_t>> replicas;  // placement order, per key
  std::vector<Result<std::string>> out;
  Promise<std::vector<Result<std::string>>> promise;

  void Round(const std::shared_ptr<MultiGetOp>& self, size_t round,
             std::vector<size_t> pending) {
    std::map<size_t, std::vector<size_t>> by_node;
    for (size_t k : pending) {
      if (round < replicas[k].size()) by_node[replicas[k][round]].push_back(k);
    }
    if (by_node.empty()) {
      promise.Set(std::move(out));
      return;
    }
    std::vector<Future<MultiGetResponse>> calls;
    auto groups = std::make_shared<std::vector<std::vector<size_t>>>();
    calls.reserve(by_node.size());
    groups->reserve(by_node.size());
    for (auto& [node, group] : by_node) {
      MultiGetRequest req;
      req.keys.reserve(group.size());
      for (size_t k : group) req.keys.push_back(keys[k]);
      calls.push_back(CallNodeAsync<MultiGetRequest, MultiGetResponse>(
          &c->pool_, c->nodes_[node], rpc::Method::kDhtMultiGet,
          std::move(req)));
      groups->push_back(std::move(group));
    }
    WhenAll(std::move(calls))
        .OnReady(nullptr, [self, round, groups](
                              Result<std::vector<Result<MultiGetResponse>>>
                                  all) {
          std::vector<size_t> next;
          for (size_t g = 0; g < groups->size(); g++) {
            const std::vector<size_t>& group = (*groups)[g];
            Status s = all.ok() ? (*all)[g].status() : all.status();
            MultiGetResponse* rsp = s.ok() ? &*(*all)[g] : nullptr;
            if (s.ok()) {
              size_t found = 0;
              for (uint8_t f : rsp->found) found += f != 0;
              if (rsp->found.size() != group.size() ||
                  rsp->values.size() != found)
                s = Status::Corruption("dht multiget: response counts");
            }
            size_t v = 0;
            for (size_t i = 0; i < group.size(); i++) {
              size_t k = group[i];
              if (s.ok() && rsp->found[i]) {
                self->out[k] = std::move(rsp->values[v++]);
                continue;
              }
              self->out[k] = s.ok() ? Status::NotFound("dht key") : s;
              next.push_back(k);
            }
          }
          // Fallback depth is bounded by the replication factor, so the
          // inline recursion stays shallow.
          self->Round(self, round + 1, std::move(next));
        });
  }
};

Future<std::vector<Result<std::string>>> DhtClient::MultiGetAsync(
    std::vector<std::string> keys) {
  auto op = std::make_shared<MultiGetOp>();
  op->c = this;
  op->replicas.reserve(keys.size());
  op->out.reserve(keys.size());
  std::vector<size_t> pending(keys.size());
  for (size_t k = 0; k < keys.size(); k++) {
    op->replicas.push_back(
        placement_->ReplicaNodes(Slice(keys[k]), options_.replication));
    op->out.push_back(Status::NotFound("dht key"));
    pending[k] = k;
  }
  op->keys = std::move(keys);
  auto f = op->promise.GetFuture();
  op->Round(op, 0, std::move(pending));
  return f;
}

Status DhtClient::Delete(Slice key) {
  DeleteRequest req{key.ToString()};
  Status first_error;
  for (size_t node : placement_->ReplicaNodes(key, options_.replication)) {
    DeleteResponse rsp;
    Status s =
        CallNode(&pool_, nodes_[node], rpc::Method::kDhtDelete, req, &rsp);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

Future<Unit> DhtClient::DeleteAsync(Slice key) {
  DeleteRequest req{key.ToString()};
  std::vector<Future<DeleteResponse>> calls;
  for (size_t node : placement_->ReplicaNodes(key, options_.replication)) {
    calls.push_back(CallNodeAsync<DeleteRequest, DeleteResponse>(
        &pool_, nodes_[node], rpc::Method::kDhtDelete, req));
  }
  if (calls.empty()) return MakeReadyFuture(Status::OK());
  return WhenAll(std::move(calls))
      .Then([](Result<std::vector<Result<DeleteResponse>>> all) -> Status {
        if (!all.ok()) return all.status();
        for (const auto& r : *all) {
          if (!r.ok()) return r.status();
        }
        return Status::OK();
      });
}

Status DhtClient::TotalStats(uint64_t* keys, uint64_t* bytes) {
  *keys = 0;
  *bytes = 0;
  for (const auto& addr : nodes_) {
    StatsRequest req;
    StatsResponse rsp;
    BS_RETURN_NOT_OK(
        CallNode(&pool_, addr, rpc::Method::kDhtStats, req, &rsp));
    *keys += rsp.keys;
    *bytes += rsp.bytes;
  }
  return Status::OK();
}

}  // namespace blobseer::dht
