#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

namespace perfbench {

using blobseer::Result;
using blobseer::Slice;
using blobseer::Status;
using blobseer::rpc::Method;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::Record(const Span& s) {
  Shard& shard =
      shards_[std::hash<std::thread::id>{}(std::this_thread::get_id()) %
              kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.spans.push_back(s);
}

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.spans.begin(), shard.spans.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

char DhtNamespace(Method method, Slice payload) {
  // Keyed DHT requests start with the key as a length-prefixed string
  // (u32 length, then the key whose first byte is the namespace tag);
  // MultiGet starts with a u32 key count before the first key.
  size_t at;
  switch (method) {
    case Method::kDhtPut:
    case Method::kDhtGet:
    case Method::kDhtDelete:
    case Method::kDhtCas:
      at = 0;
      break;
    case Method::kDhtMultiGet:
      at = 4;
      break;
    default:
      return 0;
  }
  uint32_t key_len;
  if (payload.size() < at + 4 + 1) return 0;
  std::memcpy(&key_len, payload.data() + at, 4);
  if (key_len == 0) return 0;
  return payload.data()[at + 4];
}

namespace {

Span RpcSpan(Method method, Slice request, int64_t start_ns) {
  Span s;
  s.kind = SpanKind::kRpc;
  s.code = static_cast<uint32_t>(method);
  s.ns = DhtNamespace(method, request);
  s.start_ns = start_ns;
  s.bytes_out = request.size();
  return s;
}

}  // namespace

Status TracingChannel::Call(Method method, Slice request,
                            std::string* response) {
  Span s = RpcSpan(method, request, NowNs());
  Status st = inner_->Call(method, request, response);
  s.end_ns = NowNs();
  s.ok = st.ok();
  s.bytes_in = st.ok() ? response->size() : 0;
  recorder_->Record(s);
  return st;
}

void TracingChannel::CallAsync(Method method, Slice request,
                               blobseer::rpc::CallCallback done) {
  Span s = RpcSpan(method, request, NowNs());
  inner_->CallAsync(method, request,
                    [s, rec = recorder_, done = std::move(done)](
                        Status st, std::string response) mutable {
                      s.end_ns = NowNs();
                      s.ok = st.ok();
                      s.bytes_in = response.size();
                      rec->Record(s);
                      done(std::move(st), std::move(response));
                    });
}

Result<std::string> TracingTransport::Serve(
    const std::string& address,
    std::shared_ptr<blobseer::rpc::ServiceHandler> handler) {
  return inner_->Serve(address, std::move(handler));
}

Status TracingTransport::StopServing(const std::string& address) {
  return inner_->StopServing(address);
}

Result<std::shared_ptr<blobseer::rpc::Channel>> TracingTransport::Connect(
    const std::string& address) {
  auto ch = inner_->Connect(address);
  if (!ch.ok()) return ch.status();
  return std::shared_ptr<blobseer::rpc::Channel>(
      std::make_shared<TracingChannel>(std::move(ch).ValueUnsafe(),
                                       recorder_));
}

Status TracingExecutor::ParallelFor(
    size_t n, size_t max_parallel,
    const std::function<Status(size_t)>& fn) {
  const int64_t entered = NowNs();
  return inner_->ParallelFor(
      n, max_parallel, [this, entered, &fn](size_t i) {
        Span s;
        s.kind = SpanKind::kTask;
        s.code = 1;
        s.start_ns = entered;
        s.run_ns = NowNs();
        Status st = fn(i);
        s.end_ns = NowNs();
        s.ok = st.ok();
        recorder_->Record(s);
        return st;
      });
}

void TracingExecutor::Schedule(std::function<void()> fn) {
  const int64_t scheduled = NowNs();
  inner_->Schedule([scheduled, rec = recorder_, fn = std::move(fn)] {
    Span s;
    s.kind = SpanKind::kTask;
    s.start_ns = scheduled;
    s.run_ns = NowNs();
    fn();
    s.end_ns = NowNs();
    rec->Record(s);
  });
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                int64_t origin_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "kind\tcode\tns\tok\top_id\tstart_us\trun_us\tend_us\t"
               "bytes_out\tbytes_in\n");
  static const char* kKinds[] = {"op", "rpc", "task"};
  for (const Span& s : spans) {
    const double run_us =
        s.kind == SpanKind::kTask ? (s.run_ns - origin_ns) / 1e3 : 0.0;
    std::fprintf(f, "%s\t%u\t%c\t%d\t%llu\t%.3f\t%.3f\t%.3f\t%llu\t%llu\n",
                 kKinds[static_cast<int>(s.kind)], s.code,
                 s.ns != 0 ? s.ns : '-', s.ok ? 1 : 0,
                 static_cast<unsigned long long>(s.id),
                 (s.start_ns - origin_ns) / 1e3, run_us,
                 (s.end_ns - origin_ns) / 1e3,
                 static_cast<unsigned long long>(s.bytes_out),
                 static_cast<unsigned long long>(s.bytes_in));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
