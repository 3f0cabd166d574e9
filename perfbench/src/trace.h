// Outside-in tracing for the end-to-end benchmark: decorators that sit
// between the benchmark and the BlobSeer client on its public seams (the
// rpc::Transport/Channel it connects through and the Executor it schedules
// continuations on) and record one span per call into an in-memory
// recorder. Nothing inside the layers is instrumented; every per-layer
// number the benchmark reports is derived from these spans plus the
// layers' own stats surfaces.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/executor.h"
#include "rpc/transport.h"

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

enum class SpanKind : uint8_t {
  kOp = 0,    ///< one benchmark operation (bench -> client)
  kRpc = 1,   ///< one channel call (client -> transport)
  kTask = 2,  ///< one executor task (Schedule'd or a ParallelFor body)
};

struct Span {
  SpanKind kind = SpanKind::kOp;
  /// kRpc: the rpc::Method value. kOp: the benchmark's op type.
  /// kTask: 0 for Schedule, 1 for a ParallelFor body.
  uint32_t code = 0;
  /// DHT key namespace of a kRpc span ('N' tree node, 'L' location entry,
  /// 'H' content hash) or 0 for non-DHT methods.
  char ns = 0;
  bool ok = true;
  /// Op id (kOp only; RPC spans carry no parent, see README.md).
  uint64_t id = 0;
  /// kRpc/kOp: issue and completion. kTask: Schedule/ParallelFor entry and
  /// task end; `run_ns` is when the task body started running.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t run_ns = 0;
  uint64_t bytes_out = 0;  ///< request payload bytes (kRpc) / user bytes
                           ///< written (kOp)
  uint64_t bytes_in = 0;   ///< response payload bytes (kRpc) / user bytes
                           ///< read (kOp)
};

/// Thread-safe span sink. Records are sharded by thread to keep the
/// recording cost off the transport's hot completion path.
class SpanRecorder {
 public:
  void Record(const Span& s);
  /// Every span recorded so far, sorted by start time.
  std::vector<Span> Collect() const;

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::vector<Span> spans;
  };
  std::array<Shard, kShards> shards_;
};

/// DHT key namespace of a DHT request payload: the tag byte leading the
/// first key ('N', 'L', 'H'), or 0 when `method` is not a keyed DHT method
/// or the payload is too short to hold a key.
char DhtNamespace(blobseer::rpc::Method method, blobseer::Slice payload);

/// Channel decorator: forwards every call unchanged and records a kRpc
/// span (method, DHT namespace, request/response payload bytes, status).
class TracingChannel : public blobseer::rpc::Channel {
 public:
  TracingChannel(std::shared_ptr<blobseer::rpc::Channel> inner,
                 SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  blobseer::Status Call(blobseer::rpc::Method method, blobseer::Slice request,
                        std::string* response) override;
  void CallAsync(blobseer::rpc::Method method, blobseer::Slice request,
                 blobseer::rpc::CallCallback done) override;

 private:
  std::shared_ptr<blobseer::rpc::Channel> inner_;
  SpanRecorder* recorder_;
};

/// Transport decorator handed to the client: every channel it opens is a
/// TracingChannel over the wrapped transport's channel.
class TracingTransport : public blobseer::rpc::Transport {
 public:
  TracingTransport(blobseer::rpc::Transport* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  blobseer::Result<std::string> Serve(
      const std::string& address,
      std::shared_ptr<blobseer::rpc::ServiceHandler> handler) override;
  blobseer::Status StopServing(const std::string& address) override;
  blobseer::Result<std::shared_ptr<blobseer::rpc::Channel>> Connect(
      const std::string& address) override;
  bool binds_at_connect() const override { return inner_->binds_at_connect(); }

 private:
  blobseer::rpc::Transport* inner_;
  SpanRecorder* recorder_;
};

/// Executor decorator handed to the client: records a kTask span per
/// Schedule'd task and per ParallelFor body (queue wait and run time).
class TracingExecutor : public blobseer::Executor {
 public:
  TracingExecutor(blobseer::Executor* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  blobseer::Status ParallelFor(
      size_t n, size_t max_parallel,
      const std::function<blobseer::Status(size_t)>& fn) override;
  void Schedule(std::function<void()> fn) override;
  std::unique_ptr<blobseer::WaitEvent> MakeWaitEvent() override {
    return inner_->MakeWaitEvent();
  }

 private:
  blobseer::Executor* inner_;
  SpanRecorder* recorder_;
};

/// Writes `spans` as tab-separated text (header line first; format in
/// README.md). Times are relative to `origin_ns`.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                int64_t origin_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
