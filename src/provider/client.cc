#include "provider/client.h"

#include <memory>

#include "provider/messages.h"
#include "rpc/call.h"

namespace blobseer::provider {

namespace {

// Reconnect-once on Unavailable for binding transports: a channel pooled
// before a provider restart keeps failing even once the provider serves
// again, turning every read into a failover. Page operations are idempotent
// (pages are immutable and deletes tolerate repeats), so retrying on a
// fresh connection is safe. Simnet opts out via binds_at_connect() — its
// failure model must not gain hidden retries.
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

template <typename Req, typename Rsp>
Future<Rsp> CallProviderAsync(rpc::ChannelPool* pool,
                              const std::string& address, rpc::Method method,
                              Req req) {
  auto ch = pool->Get(address);
  if (!ch.ok()) return MakeReadyFuture<Rsp>(ch.status());
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

ProviderClient::ProviderClient(rpc::Transport* transport,
                               size_t channels_per_endpoint)
    : pool_(transport, channels_per_endpoint) {}

Status ProviderClient::WritePage(const std::string& address, const PageId& pid,
                                 Slice data) {
  WriteRequest req;
  req.pid = pid;
  req.data = data.ToString();
  WriteResponse rsp;
  return CallProvider(&pool_, address, rpc::Method::kProviderWrite, req, &rsp);
}

Status ProviderClient::ReadPage(const std::string& address, const PageId& pid,
                                uint64_t offset, uint64_t len,
                                std::string* out) {
  ReadRequest req{{ReadItem{pid, offset, len}}};
  ReadResponse rsp;
  BS_RETURN_NOT_OK(
      CallProvider(&pool_, address, rpc::Method::kProviderRead, req, &rsp));
  if (rsp.items.size() != 1)
    return Status::Corruption("provider read: response item count");
  BS_RETURN_NOT_OK(rsp.items[0].status());
  *out = std::move(rsp.items[0]).ValueUnsafe();
  return Status::OK();
}

Status ProviderClient::DeletePage(const std::string& address,
                                  const PageId& pid) {
  DeleteRequest req{pid};
  DeleteResponse rsp;
  return CallProvider(&pool_, address, rpc::Method::kProviderDelete, req,
                      &rsp);
}

Status ProviderClient::Stats(const std::string& address, uint64_t* pages,
                             uint64_t* bytes) {
  auto st = FetchStats(address);
  if (!st.ok()) return st.status();
  *pages = st->pages;
  *bytes = st->bytes;
  return Status::OK();
}

Result<PageStoreStats> ProviderClient::FetchStats(const std::string& address) {
  StatsRequest req;
  StatsResponse rsp;
  BS_RETURN_NOT_OK(
      CallProvider(&pool_, address, rpc::Method::kProviderStats, req, &rsp));
  PageStoreStats st;
  st.pages = rsp.pages;
  st.bytes = rsp.bytes;
  st.writes = rsp.writes;
  st.reads = rsp.reads;
  st.deletes = rsp.deletes;
  st.segments = rsp.segments;
  st.dead_bytes = rsp.dead_bytes;
  st.syncs = rsp.syncs;
  st.compactions = rsp.compactions;
  st.io_submissions = rsp.io_submissions;
  st.io_sqes = rsp.io_sqes;
  st.bytes_written = rsp.bytes_written;
  st.read_syscalls = rsp.read_syscalls;
  st.recovery_us = rsp.recovery_us;
  return st;
}

Future<Unit> ProviderClient::WritePageAsync(const std::string& address,
                                            const PageId& pid, Slice data) {
  WriteRequest req;
  req.pid = pid;
  req.data = data.ToString();
  return CallProviderAsync<WriteRequest, WriteResponse>(
             &pool_, address, rpc::Method::kProviderWrite, std::move(req))
      .Then([](Result<WriteResponse> rsp) { return rsp.status(); });
}

Future<std::string> ProviderClient::ReadPageAsync(const std::string& address,
                                                  const PageId& pid,
                                                  uint64_t offset,
                                                  uint64_t len) {
  return ReadPagesAsync(address, {ReadItem{pid, offset, len}})
      .Then([](Result<std::vector<Result<std::string>>> rsp)
                -> Result<std::string> {
        if (!rsp.ok()) return rsp.status();
        return std::move((*rsp)[0]);
      });
}

Future<std::vector<Result<std::string>>> ProviderClient::ReadPagesAsync(
    const std::string& address, std::vector<ReadItem> items) {
  const size_t n = items.size();
  return CallProviderAsync<ReadRequest, ReadResponse>(
             &pool_, address, rpc::Method::kProviderRead,
             ReadRequest{std::move(items)})
      .Then([n](Result<ReadResponse> rsp)
                -> Result<std::vector<Result<std::string>>> {
        if (!rsp.ok()) return rsp.status();
        if (rsp->items.size() != n)
          return Status::Corruption("provider read: response item count");
        return std::move(rsp->items);
      });
}

Future<Unit> ProviderClient::DeletePageAsync(const std::string& address,
                                             const PageId& pid) {
  return CallProviderAsync<DeleteRequest, DeleteResponse>(
             &pool_, address, rpc::Method::kProviderDelete, DeleteRequest{pid})
      .Then([](Result<DeleteResponse> rsp) { return rsp.status(); });
}

}  // namespace blobseer::provider
