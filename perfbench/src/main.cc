// perfbench: the repository's end-to-end benchmark binary (see README.md).
//
//   perfbench --workload <append_shared|read_cold|mixed_versioned>
//             --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir> [--trace-out <file>]
//
// One process starts an EmbeddedCluster over TCP loopback (4 data
// providers, 4 DHT providers, r = 2 all-replica writes, "log:" page stores
// on the psync backend in a fresh directory), constructs its own BlobClient
// and drives one closed loop with a fixed in-flight window from a single
// issuing thread. Every read is verified byte for byte against a reference
// model; every update is chained to SYNC so it completes once published.
//
// --trace 0 reports the end-to-end metrics of an untraced run, made of
// rounds that each set up a fresh cluster. --trace 1 runs the workload
// untraced and then traced (transport + executor decorators, see trace.h)
// and reports per-layer metrics derived from the spans and the layers'
// stats surfaces, plus the tracing overhead. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the lines before it are human-readable.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "client/blob_client.h"
#include "common/future.h"
#include "common/string_util.h"
#include "core/cluster.h"
#include "dht/messages.h"
#include "model.h"
#include "rpc/call.h"
#include "trace.h"

namespace perfbench {
namespace {

using blobseer::BlobId;
using blobseer::Future;
using blobseer::Result;
using blobseer::Slice;
using blobseer::Status;
using blobseer::Unit;
using blobseer::Version;
using blobseer::client::BlobClient;
using blobseer::client::ClientOptions;
using blobseer::rpc::Method;

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * kKiB;

enum OpType : uint32_t { kRead = 0, kAppend = 1, kWrite = 2 };

// ---------------------------------------------------------------------------
// Workload definitions. The window is the fixed number of ops in flight.

enum class Kind { kAppendShared, kReadCold, kMixedVersioned };

struct WorkloadConfig {
  Kind kind;
  const char* name;
  uint64_t page_size;
  size_t window;
  /// Rounds of an untraced run. Each round sets up a fresh cluster and
  /// measures its share of --seconds; setup_s is the median set-up time
  /// and the per-second figures pool every round's seconds.
  size_t rounds;
};

constexpr WorkloadConfig kWorkloads[] = {
    {Kind::kAppendShared, "append_shared", 64 * kKiB, 8, 5},
    {Kind::kReadCold, "read_cold", 4 * kKiB, 8, 3},
    {Kind::kMixedVersioned, "mixed_versioned", 4 * kKiB, 8, 5},
};

// append_shared: 1 MiB appends to one blob.
constexpr uint64_t kAppendBytes = 1 * kMiB;
// read_cold: a 256 MiB snapshot of 4 KiB pages, preloaded in 4 MiB appends,
// read in uniform random page-aligned 64 KiB ranges.
constexpr uint64_t kColdBlobBytes = 256 * kMiB;
constexpr uint64_t kColdPreloadBytes = 4 * kMiB;
constexpr uint64_t kColdReadBytes = 64 * kKiB;
// mixed_versioned: zipfian tenants, each preloaded with 16 pages; 70 %
// reads of a version up to 3 behind the latest, 15 % appends, 15 %
// in-place overwrites, each 1-4 pages.
constexpr size_t kTenants = 16;
constexpr uint64_t kTenantPreloadPages = 16;
constexpr double kZipfS = 0.99;
constexpr uint64_t kVersionsBehind = 3;

// ---------------------------------------------------------------------------
// Small helpers.

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  if (rank > 0) rank--;
  return v[std::min(rank, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};

CpuTimes ProcessCpu() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return {ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6,
          ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6};
}

/// Current resident set size.
double RssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6
                : 0;
}

size_t Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Flags. Every flag takes a value; unknown flags and missing values abort.

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  int trace = -1;
  std::string data_dir;
  std::string trace_out;
};

uint64_t ParseUint(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
    Die("--" + flag + " needs a non-negative integer, got '" + v + "'");
  if (v.size() > 18) Die("--" + flag + " is out of range");
  return std::stoull(v);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  std::map<std::string, bool> seen;
  for (int i = 1; i < argc; i += 2) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Die("unexpected argument '" + arg + "'");
    std::string name = arg.substr(2);
    if (i + 1 >= argc) Die("flag " + arg + " needs a value");
    std::string v = argv[i + 1];
    if (seen[name]) Die("flag " + arg + " given twice");
    seen[name] = true;
    if (name == "workload") {
      f.workload = v;
    } else if (name == "seed") {
      f.seed = ParseUint(name, v);
    } else if (name == "seconds") {
      f.seconds = ParseUint(name, v);
    } else if (name == "trace") {
      if (v != "0" && v != "1") Die("--trace must be 0 or 1");
      f.trace = v == "1" ? 1 : 0;
    } else if (name == "data-dir") {
      f.data_dir = v;
    } else if (name == "trace-out") {
      f.trace_out = v;
    } else {
      Die("unknown flag " + arg);
    }
  }
  for (const char* req : {"workload", "seed", "seconds", "trace", "data-dir"})
    if (!seen[req]) Die(std::string("missing required flag --") + req);
  if (f.seconds == 0 || f.seconds > 120) Die("--seconds must be in [1, 120]");
  if (f.trace == 1 && f.trace_out.empty())
    Die("--trace 1 needs --trace-out <file>");
  return f;
}

const WorkloadConfig& FindWorkload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return w;
  Die("unknown workload '" + name +
      "' (append_shared, read_cold, mixed_versioned)");
}

// Refuses to produce numbers from a debug or instrumented build.
void CheckBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release") Die("refusing to measure a " + type + " build");
#ifndef NDEBUG
  Die("refusing to measure a build with assertions enabled");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Die("refusing to measure a sanitizer build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  Die("refusing to measure a sanitizer build");
#endif
#endif
}

std::string Kernel() {
  struct utsname u;
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

// ---------------------------------------------------------------------------
// Cluster lifetime: one EmbeddedCluster over TCP in a fresh directory that is
// removed when the cluster is gone.

class BenchCluster {
 public:
  static std::unique_ptr<BenchCluster> Start(const std::string& dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    if (ec) Die("cannot create " + dir + ": " + ec.message());
    blobseer::core::ClusterOptions o;
    o.num_providers = 4;
    o.num_meta = 4;
    o.transport = "tcp";
    o.page_store = "log:" + dir;
    o.replication = 2;
    o.write_quorum = 0;  // all replicas ack
    // Explicit, so BLOBSEER_IO_BACKEND in the environment cannot move it.
    o.io_backend = "psync";
    auto c = blobseer::core::EmbeddedCluster::Start(o);
    if (!c.ok()) Die("cluster start failed: " + c.status().ToString());
    auto out = std::unique_ptr<BenchCluster>(new BenchCluster());
    out->dir_ = dir;
    out->cluster_ = std::move(c).ValueUnsafe();
    return out;
  }
  BenchCluster(const BenchCluster&) = delete;
  BenchCluster& operator=(const BenchCluster&) = delete;
  ~BenchCluster() {
    cluster_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  blobseer::core::EmbeddedCluster& c() { return *cluster_; }

 private:
  BenchCluster() = default;
  std::string dir_;
  std::unique_ptr<blobseer::core::EmbeddedCluster> cluster_;
};

// The measured client: one pipelined connection per endpoint, r = 2, an
// executor the benchmark owns (so it can be decorated).
std::unique_ptr<BlobClient> MakeClient(blobseer::core::EmbeddedCluster& c,
                                       blobseer::rpc::Transport* transport,
                                       blobseer::Executor* executor) {
  ClientOptions o;
  o.io_threads = Nproc();
  o.replication = 2;
  o.write_quorum = 0;
  o.channels_per_endpoint = 1;
  o.dht.channels_per_endpoint = 1;
  return std::make_unique<BlobClient>(transport, c.vmanager_address(),
                                      c.pmanager_address(), c.dht_addresses(),
                                      o, nullptr, executor);
}

// ---------------------------------------------------------------------------
// Ops and the closed loop.

struct Op {
  uint64_t id = 0;
  OpType type = kRead;
  BlobId blob = 0;
  /// Reads: the snapshot to read, or kNoVersion to read `behind` versions
  /// behind what GET_RECENT returns, but never below `min_version`.
  Version version = 0;
  uint64_t behind = 0;
  Version min_version = 0;
  uint64_t offset = 0;  // reads, overwrites
  uint64_t len = 0;
  uint64_t payload_seed = 0;  // updates
};

struct Done {
  Op op;
  Status status;
  Version version = 0;  // the version read or published
  std::string data;     // reads: bytes returned
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Completion queue between the client's completion threads and the single
/// issuing thread, which does all model work.
class CompletionQueue {
 public:
  void Push(Done d) {
    std::lock_guard<std::mutex> lock(mu_);
    q_.push_back(std::move(d));
    cv_.notify_one();
  }
  /// Waits until something completed or `until_ns` passed.
  std::deque<Done> Take(int64_t until_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    while (q_.empty()) {
      const int64_t now = NowNs();
      if (now >= until_ns) break;
      cv_.wait_for(lock, std::chrono::nanoseconds(until_ns - now));
    }
    std::deque<Done> out;
    out.swap(q_);
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Done> q_;
};

/// Starts `op` on `client`; its completion lands in `q`. Updates are
/// chained to SYNC so they complete once their version is published.
void Issue(BlobClient* client, const Op& op, uint64_t unit_bytes,
           CompletionQueue* q) {
  const int64_t start = NowNs();
  if (op.type == kRead) {
    auto read = std::make_shared<Version>(op.version);
    Future<std::string> f;
    if (op.version != blobseer::kNoVersion) {
      f = client->ReadAsync(op.blob, op.version, op.offset, op.len);
    } else {
      f = client->GetRecentAsync(op.blob).Then(
          [client, op, read](Result<blobseer::RecentVersion> r)
              -> Future<std::string> {
            if (!r.ok())
              return blobseer::MakeReadyFuture<std::string>(r.status());
            *read = std::max(r->version - std::min(op.behind, r->version),
                             op.min_version);
            return client->ReadAsync(op.blob, *read, op.offset, op.len);
          });
    }
    f.OnReady(nullptr, [op, start, q, read](Result<std::string> r) {
      Done d{op, r.status(), *read, {}, start, NowNs()};
      if (r.ok()) d.data = std::move(r).ValueUnsafe();
      q->Push(std::move(d));
    });
    return;
  }
  auto payload = std::make_shared<std::string>(
      MakePayload(op.payload_seed, op.len, unit_bytes));
  Future<Version> f = op.type == kAppend
                          ? client->AppendAsync(op.blob, Slice(*payload))
                          : client->WriteAsync(op.blob, Slice(*payload),
                                               op.offset);
  const BlobId blob = op.blob;
  f.Then([client, blob](Result<Version> r) -> Future<Version> {
     if (!r.ok()) return blobseer::MakeReadyFuture<Version>(r.status());
     const Version v = *r;
     return client->SyncAsync(blob, v).Then(
         [v](Result<Unit> s) -> Result<Version> {
           if (!s.ok()) return s.status();
           return v;
         });
   }).OnReady(nullptr, [op, start, q, payload](Result<Version> r) {
    Done d{op, r.status(), r.ok() ? *r : 0, {}, start, NowNs()};
    q->Push(std::move(d));
  });
}

// ---------------------------------------------------------------------------
// Workload state: blobs, reference model, op generator.

class Workload {
 public:
  Workload(const WorkloadConfig& cfg, uint64_t seed)
      : cfg_(cfg),
        seed_(seed),
        model_(cfg.page_size, kVersionsBehind),
        rng_(Mix(seed)) {
    double sum = 0;
    for (size_t i = 0; i < kTenants; i++) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      zipf_cdf_.push_back(sum);
    }
    for (double& c : zipf_cdf_) c /= sum;
  }

  const WorkloadConfig& config() const { return cfg_; }
  uint64_t user_bytes_written() const { return bytes_written_; }

  /// Creates the workload's blobs and preloads them through `client`.
  Status Setup(BlobClient* client) {
    const size_t nblobs = cfg_.kind == Kind::kMixedVersioned ? kTenants : 1;
    for (size_t i = 0; i < nblobs; i++) {
      auto id = client->Create(cfg_.page_size);
      if (!id.ok()) return id.status();
      auto recent = client->GetRecent(*id);
      if (!recent.ok()) return recent.status();
      model_.AddBlob(*id, recent->version);
      blobs_.push_back(*id);
    }
    if (cfg_.kind == Kind::kReadCold)
      return Preload(client, blobs_, kColdBlobBytes / kColdPreloadBytes,
                     kColdPreloadBytes);
    if (cfg_.kind == Kind::kMixedVersioned)
      return Preload(client, blobs_, 1, kTenantPreloadPages * cfg_.page_size);
    return Status::OK();
  }

  Op Next() {
    Op op;
    op.id = next_id_++;
    const uint64_t ps = cfg_.page_size;
    if (cfg_.kind == Kind::kAppendShared) {
      op.type = kAppend;
      op.blob = blobs_[0];
      op.len = kAppendBytes;
    } else if (cfg_.kind == Kind::kReadCold) {
      op.type = kRead;
      op.blob = blobs_[0];
      op.version = model_.Frontier(op.blob);
      const uint64_t pages = kColdBlobBytes / ps;
      const uint64_t n = kColdReadBytes / ps;
      op.offset = Uniform(pages - n + 1) * ps;
      op.len = kColdReadBytes;
    } else {
      op.blob = blobs_[Zipf()];
      const double r = Uniform01();
      const uint64_t n = 1 + Uniform(4);
      const Version f = model_.Frontier(op.blob);
      if (r < 0.70) {
        // Up to kVersionsBehind behind the latest version GET_RECENT
        // reports. That is at least the model's frontier, so the version
        // read is at least min_version, whose size bounds the range (sizes
        // never shrink) and which stays pinned until the read is verified.
        op.type = kRead;
        op.version = blobseer::kNoVersion;
        op.behind = Uniform(kVersionsBehind + 1);
        op.min_version = std::max(model_.OldestReadable(op.blob),
                                  first_base_.at(op.blob) + 1);
        const uint64_t pages = model_.SizeAt(op.blob, op.min_version) / ps;
        const uint64_t k = std::min(n, pages);
        op.offset = Uniform(pages - k + 1) * ps;
        op.len = k * ps;
      } else if (r < 0.85) {
        op.type = kAppend;
        op.len = n * ps;
      } else {
        op.type = kWrite;
        // Sizes never shrink, so an offset inside the model's latest size
        // is inside whatever snapshot precedes the overwrite.
        const uint64_t pages = model_.SizeAt(op.blob, f) / ps;
        op.offset = Uniform(pages) * ps;
        op.len = n * ps;
      }
    }
    if (op.type != kRead) op.payload_seed = Mix(seed_ ^ Mix(op.id));
    return op;
  }

  /// Model bookkeeping for an op about to be issued.
  void Issued(const Op& op) {
    if (op.type == kRead) model_.Pin(op.blob, PinnedVersion(op));
  }

  /// Verifies / records a completed op. Failed ops and wrong bytes count
  /// in failures(). A read of a version the model has not caught up with
  /// yet (its update's completion is still queued) is verified as soon as
  /// the model gets there.
  void Completed(Done d) {
    if (!d.status.ok()) {
      if (d.op.type == kRead) model_.Unpin(d.op.blob, PinnedVersion(d.op));
      Fail(d.op, d.status);
      return;
    }
    if (d.op.type == kRead) {
      if (d.version > model_.Frontier(d.op.blob)) {
        deferred_[d.op.blob].push_back(std::move(d));
        return;
      }
      VerifyRead(d);
      return;
    }
    bytes_written_ += d.op.len;
    Status st =
        model_.RecordUpdate(d.op.blob, d.version, d.op.type == kAppend,
                            d.op.offset, d.op.len, d.op.payload_seed);
    if (!st.ok()) Fail(d.op, st);
    auto it = deferred_.find(d.op.blob);
    if (it == deferred_.end()) return;
    const Version f = model_.Frontier(d.op.blob);
    std::vector<Done>& parked = it->second;
    for (size_t i = 0; i < parked.size();) {
      if (parked[i].version <= f) {
        VerifyRead(parked[i]);
        parked[i] = std::move(parked.back());
        parked.pop_back();
      } else {
        i++;
      }
    }
  }

  /// Reads still waiting for the model; each one is a failure once every
  /// update has completed.
  void FailUnverified() {
    for (auto& [blob, parked] : deferred_)
      for (const Done& d : parked)
        Fail(d.op, Status::Corruption("read a version no update produced"));
    deferred_.clear();
  }

  uint64_t failures() const { return failures_; }

  /// Checks the latest snapshot of every blob against the model, outside
  /// any timed window: the system's latest version and size match the
  /// model's (no lost or duplicated update), and, on workloads that write,
  /// every byte read back is the payload of the update the model says owns
  /// it, so each acked append sits exactly once at its version's offset.
  /// read_cold writes nothing after its preload and verifies every read.
  Status FinalCheck(BlobClient* client) {
    for (BlobId id : blobs_) {
      auto recent = client->GetRecent(id);
      if (!recent.ok()) return recent.status();
      const Version f = model_.Frontier(id);
      const uint64_t size = model_.SizeAt(id, f);
      if (recent->version != f || recent->size != size)
        return Status::Corruption(blobseer::StrFormat(
            "blob %llu: system at version %llu size %llu, model at %llu "
            "size %llu",
            static_cast<unsigned long long>(id),
            static_cast<unsigned long long>(recent->version),
            static_cast<unsigned long long>(recent->size),
            static_cast<unsigned long long>(f),
            static_cast<unsigned long long>(size)));
      if (cfg_.kind == Kind::kReadCold) continue;
      constexpr uint64_t kChunk = 4 * kMiB;
      constexpr size_t kWindow = 4;
      std::deque<std::pair<uint64_t, Future<std::string>>> inflight;
      uint64_t next = 0;
      while (next < size || !inflight.empty()) {
        while (next < size && inflight.size() < kWindow) {
          const uint64_t len = std::min(kChunk, size - next);
          inflight.emplace_back(next, client->ReadAsync(id, f, next, len));
          next += len;
        }
        auto [off, fut] = std::move(inflight.front());
        inflight.pop_front();
        auto data = fut.Wait();
        if (!data.ok()) return data.status();
        BS_RETURN_NOT_OK(model_.Verify(id, f, off, Slice(*data)));
      }
    }
    return Status::OK();
  }

 private:
  static Version PinnedVersion(const Op& op) {
    return op.version != blobseer::kNoVersion ? op.version : op.min_version;
  }

  void VerifyRead(const Done& d) {
    Status st = d.data.size() == d.op.len
                    ? model_.Verify(d.op.blob, d.version, d.op.offset,
                                    Slice(d.data))
                    : Status::Corruption("short read");
    model_.Unpin(d.op.blob, PinnedVersion(d.op));
    if (!st.ok()) Fail(d.op, st);
  }

  void Fail(const Op& op, const Status& st) {
    if (failures_++ < 5)
      std::fprintf(stderr, "perfbench: op %llu failed: %s\n",
                   static_cast<unsigned long long>(op.id),
                   st.ToString().c_str());
  }

  /// `count` appends of `len` bytes to each blob, windowed, each synced.
  Status Preload(BlobClient* client, const std::vector<BlobId>& blobs,
                 uint64_t count, uint64_t len) {
    CompletionQueue q;
    size_t inflight = 0;
    std::vector<Op> todo;
    for (uint64_t i = 0; i < count; i++) {
      for (BlobId id : blobs) {
        Op op;
        op.id = next_id_++;
        op.type = kAppend;
        op.blob = id;
        op.len = len;
        op.payload_seed = Mix(seed_ ^ Mix(op.id));
        todo.push_back(op);
      }
    }
    for (BlobId id : blobs) first_base_[id] = model_.Frontier(id);
    size_t issued = 0;
    while (issued < todo.size() || inflight > 0) {
      while (issued < todo.size() && inflight < 8) {
        Issue(client, todo[issued++], cfg_.page_size, &q);
        inflight++;
      }
      for (Done& d : q.Take(NowNs() + 1'000'000'000)) {
        inflight--;
        Completed(std::move(d));
      }
    }
    return failures_ == 0 ? Status::OK()
                          : Status::Corruption("preload failed");
  }

  uint64_t Uniform(uint64_t n) {
    return n <= 1 ? 0 : std::uniform_int_distribution<uint64_t>(0, n - 1)(rng_);
  }
  double Uniform01() {
    return std::uniform_real_distribution<double>(0, 1)(rng_);
  }
  size_t Zipf() {
    const double u = Uniform01();
    return std::min<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
            zipf_cdf_.begin(),
        kTenants - 1);
  }

  WorkloadConfig cfg_;
  uint64_t seed_;
  ReferenceModel model_;
  std::mt19937_64 rng_;
  std::vector<double> zipf_cdf_;
  std::vector<BlobId> blobs_;
  std::map<BlobId, Version> first_base_;
  std::map<BlobId, std::vector<Done>> deferred_;
  uint64_t failures_ = 0;
  uint64_t next_id_ = 1;
  uint64_t bytes_written_ = 0;
};

// ---------------------------------------------------------------------------
// One measured window of the closed loop.

struct WindowResult {
  int64_t start_ns = 0;
  int64_t deadline_ns = 0;
  int64_t drained_ns = 0;
  CpuTimes cpu_start, cpu_deadline, cpu_drained;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed ops plus wrong-byte reads
  // Ops completed by the deadline (the end-to-end numbers).
  uint64_t window_ops = 0;
  std::vector<double> read_us, update_us;
  /// Per whole second of the window: ops completed, their bytes and
  /// latencies, process CPU seconds used, resident set size at its end.
  struct Second {
    uint64_t ops = 0;
    uint64_t bytes = 0;
    std::vector<double> us;
    double cpu_s = 0;
    double rss_mb = 0;
  };
  std::vector<Second> per_second;
  // Every op of the window including the drain (the per-layer numbers).
  uint64_t reads = 0, updates = 0;
  uint64_t bytes_read = 0, bytes_written = 0;
};

WindowResult RunWindow(Workload* w, BlobClient* client, uint64_t seconds,
                       SpanRecorder* recorder) {
  CompletionQueue q;
  WindowResult r;
  const size_t window = w->config().window;
  size_t inflight = 0;
  const uint64_t failures_before = w->failures();
  r.cpu_start = ProcessCpu();
  r.start_ns = NowNs();
  r.deadline_ns = r.start_ns + static_cast<int64_t>(seconds) * 1'000'000'000;
  r.per_second.resize(seconds);
  size_t tick = 0;  // seconds of the window already sampled
  CpuTimes cpu_tick = r.cpu_start;
  bool issuing = true;
  while (issuing || inflight > 0) {
    const int64_t now = NowNs();
    while (tick < seconds &&
           now >= r.start_ns + static_cast<int64_t>(tick + 1) * 1'000'000'000) {
      const CpuTimes cpu = ProcessCpu();
      r.per_second[tick].cpu_s =
          (cpu.user_s - cpu_tick.user_s) + (cpu.sys_s - cpu_tick.sys_s);
      r.per_second[tick].rss_mb = RssMb();
      cpu_tick = cpu;
      tick++;
    }
    if (issuing && now >= r.deadline_ns) {
      issuing = false;
      r.cpu_deadline = cpu_tick;
    }
    while (issuing && inflight < window) {
      Op op = w->Next();
      w->Issued(op);
      Issue(client, op, w->config().page_size, &q);
      inflight++;
      r.attempted++;
    }
    if (inflight == 0) break;
    const int64_t until =
        issuing ? r.start_ns + static_cast<int64_t>(tick + 1) * 1'000'000'000
                : NowNs() + 1'000'000'000;
    for (Done& d : q.Take(until)) {
      inflight--;
      const bool ok = d.status.ok();
      const bool read = d.op.type == kRead;
      (read ? r.reads : r.updates)++;
      (read ? r.bytes_read : r.bytes_written) += d.op.len;
      if (d.end_ns <= r.deadline_ns && ok) {
        r.window_ops++;
        const size_t sec = std::min<size_t>(
            (d.end_ns - r.start_ns) / 1'000'000'000, seconds - 1);
        r.per_second[sec].ops++;
        r.per_second[sec].bytes += d.op.len;
        r.per_second[sec].us.push_back((d.end_ns - d.start_ns) / 1e3);
        (read ? r.read_us : r.update_us)
            .push_back((d.end_ns - d.start_ns) / 1e3);
      }
      if (recorder != nullptr) {
        Span s;
        s.kind = SpanKind::kOp;
        s.code = d.op.type;
        s.ok = ok;
        s.id = d.op.id;
        s.start_ns = d.start_ns;
        s.end_ns = d.end_ns;
        (read ? s.bytes_in : s.bytes_out) = d.op.len;
        recorder->Record(s);
      }
      w->Completed(std::move(d));
    }
  }
  w->FailUnverified();
  r.failed = w->failures() - failures_before;
  r.drained_ns = NowNs();
  r.cpu_drained = ProcessCpu();
  return r;
}

/// Median over the window's whole seconds of `f(second)`: the end-to-end
/// rates, tail latency and CPU cost are per-second figures, so a stall of a
/// second or two (a slow fdatasync burst on a shared disk) moves them less
/// than it would move whole-window figures. Rates count every second;
/// per-op figures (`busy_only`) skip seconds that completed no op, which
/// have no latency sample and no op to charge CPU to. A stalled op still
/// shows: its latency lands in the second it completes.
template <typename F>
double MedianPerSecond(const WindowResult& w, F f, bool busy_only = false) {
  std::vector<double> v;
  for (const auto& s : w.per_second)
    if (!busy_only || s.ops > 0) v.push_back(f(s));
  return Median(v);
}

double PerSecondOps(const WindowResult::Second& s) {
  return static_cast<double>(s.ops);
}

// ---------------------------------------------------------------------------
// Layer stats through the services' own Stats RPCs.

struct LayerStats {
  blobseer::vmanager::VmStats vm;
  blobseer::provider::PageStoreStats pages;  // summed over providers
  uint64_t dht_bytes = 0;                    // summed over DHT nodes
};

LayerStats FetchLayerStats(blobseer::core::EmbeddedCluster& c) {
  LayerStats s;
  auto* t = c.transport();
  blobseer::vmanager::VersionManagerClient vm(t, c.vmanager_address());
  auto vs = vm.GetStats();
  if (!vs.ok()) Die("vmanager stats: " + vs.status().ToString());
  s.vm = *vs;
  blobseer::provider::ProviderClient prov(t, 1);
  for (const auto& addr : c.provider_addresses()) {
    auto st = prov.FetchStats(addr);
    if (!st.ok()) Die("provider stats: " + st.status().ToString());
    s.pages.reads += st->reads;
    s.pages.syncs += st->syncs;
    s.pages.io_submissions += st->io_submissions;
    s.pages.bytes_written += st->bytes_written;
    s.pages.read_syscalls += st->read_syscalls;
  }
  for (const auto& addr : c.dht_addresses()) {
    auto ch = t->Connect(addr);
    if (!ch.ok()) Die("dht connect: " + ch.status().ToString());
    blobseer::dht::StatsResponse rsp;
    Status st = blobseer::rpc::CallMethod(
        ch->get(), Method::kDhtStats, blobseer::dht::StatsRequest{}, &rsp);
    if (!st.ok()) Die("dht stats: " + st.ToString());
    s.dht_bytes += rsp.bytes;
  }
  return s;
}

/// Bytes held by the providers' page stores plus the DHT.
uint64_t StoredBytes(blobseer::core::EmbeddedCluster& c) {
  uint64_t pages = 0, page_bytes = 0, keys = 0, meta_bytes = 0;
  Status st = c.TotalProviderUsage(&pages, &page_bytes);
  if (st.ok()) st = c.TotalMetadataUsage(&keys, &meta_bytes);
  if (!st.ok()) Die("storage usage: " + st.ToString());
  return page_bytes + meta_bytes;
}

// ---------------------------------------------------------------------------
// rpc.echo_rtt_us: serial no-op round trips on the cluster's transport.

class NoopHandler : public blobseer::rpc::ServiceHandler {
 public:
  Status Handle(Method, Slice, std::string* response) override {
    response->clear();
    return Status::OK();
  }
};

double EchoRttUs(blobseer::rpc::Transport* t) {
  auto addr = t->Serve("127.0.0.1:0", std::make_shared<NoopHandler>());
  if (!addr.ok()) Die("echo serve: " + addr.status().ToString());
  auto ch = t->Connect(*addr);
  if (!ch.ok()) Die("echo connect: " + ch.status().ToString());
  std::vector<double> us;
  std::string rsp;
  for (int i = 0; i < 2200; i++) {
    const int64_t t0 = NowNs();
    Status st = (*ch)->Call(Method::kVmStats, Slice(), &rsp);
    if (!st.ok()) Die("echo call: " + st.ToString());
    if (i >= 200) us.push_back((NowNs() - t0) / 1e3);
  }
  ch->reset();
  (void)t->StopServing(*addr);
  return Median(us);
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the traced window's spans and stats deltas.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> LayerMetrics(const std::vector<Span>& spans,
                                 const WindowResult& w, const LayerStats& a,
                                 const LayerStats& b,
                                 const blobseer::meta::MetaCacheStats& meta,
                                 const blobseer::locator::LocationIndexStats&
                                     loc,
                                 const blobseer::client::ClientStats& cs,
                                 size_t pool_threads, double echo_rtt_us) {
  const double ops = static_cast<double>(w.reads + w.updates);
  const double reads = static_cast<double>(w.reads);
  const double updates = static_cast<double>(w.updates);
  const double user_bytes = static_cast<double>(w.bytes_read + w.bytes_written);
  const double span_s = (w.drained_ns - w.start_ns) / 1e9;

  std::map<Method, std::vector<double>> rpc_us;
  std::map<std::pair<Method, char>, uint64_t> rpc_count;
  uint64_t rpcs = 0, rpc_errors = 0, wire_bytes = 0, provider_read_bytes = 0;
  uint64_t tasks = 0;
  double task_busy_s = 0;
  std::vector<double> task_wait_us, node_get_us;
  // Sweep events for client.rpc_free_share: +1/-1 for ops and rpcs.
  std::vector<std::pair<int64_t, int>> events;  // (time, kind delta code)
  for (const Span& s : spans) {
    switch (s.kind) {
      case SpanKind::kRpc: {
        const Method m = static_cast<Method>(s.code);
        rpcs++;
        if (!s.ok) rpc_errors++;
        wire_bytes += s.bytes_out + s.bytes_in;
        rpc_us[m].push_back((s.end_ns - s.start_ns) / 1e3);
        rpc_count[{m, s.ns}]++;
        if (m == Method::kProviderRead) provider_read_bytes += s.bytes_in;
        if (m == Method::kDhtGet && s.ns == 'N')
          node_get_us.push_back((s.end_ns - s.start_ns) / 1e3);
        events.emplace_back(s.start_ns, 2);
        events.emplace_back(s.end_ns, -2);
        break;
      }
      case SpanKind::kOp:
        events.emplace_back(s.start_ns, 1);
        events.emplace_back(s.end_ns, -1);
        break;
      case SpanKind::kTask:
        tasks++;
        task_busy_s += (s.end_ns - s.run_ns) / 1e9;
        task_wait_us.push_back((s.run_ns - s.start_ns) / 1e3);
        break;
    }
  }
  // Ends sort before starts at equal timestamps.
  std::sort(events.begin(), events.end());
  int64_t ops_open = 0, rpcs_open = 0, last = 0;
  double busy_ns = 0, rpc_free_ns = 0;
  for (const auto& [t, code] : events) {
    if (ops_open > 0) {
      busy_ns += t - last;
      if (rpcs_open == 0) rpc_free_ns += t - last;
    }
    last = t;
    if (code == 1 || code == -1)
      ops_open += code;
    else
      rpcs_open += code / 2;
  }

  auto count = [&](Method m, char ns = 0) -> double {
    auto it = rpc_count.find({m, ns});
    return it == rpc_count.end() ? 0 : static_cast<double>(it->second);
  };
  auto p50 = [&](Method m) { return Percentile(rpc_us[m], 0.50); };
  auto p99 = [&](Method m) { return Percentile(rpc_us[m], 0.99); };

  const double cpu_user = w.cpu_drained.user_s - w.cpu_start.user_s;
  const double cpu_sys = w.cpu_drained.sys_s - w.cpu_start.sys_s;
  const double written_mb = w.bytes_written / 1e6;

  return {
      {"rpc.echo_rtt_us", echo_rtt_us, "us"},
      {"rpc.calls_per_op", Ratio(rpcs, ops), "count"},
      {"rpc.sys_cpu_share", Ratio(cpu_sys, cpu_user + cpu_sys), "ratio"},
      {"rpc.wire_bytes_per_user_byte", Ratio(wire_bytes, user_bytes),
       "ratio"},
      {"rpc.errors", static_cast<double>(rpc_errors), "count"},
      {"client.rpc_free_share", Ratio(rpc_free_ns, busy_ns), "ratio"},
      {"client.executor_tasks_per_op", Ratio(tasks, ops), "count"},
      {"client.executor_wait_p50_us", Percentile(task_wait_us, 0.5), "us"},
      {"client.executor_busy_share",
       Ratio(task_busy_s, span_s * pool_threads), "ratio"},
      {"vmanager.assign_p50_us", p50(Method::kVmAssignVersion), "us"},
      {"vmanager.notify_p50_us", p50(Method::kVmNotifySuccess), "us"},
      {"vmanager.await_p50_us", p50(Method::kVmAwaitPublished), "us"},
      {"vmanager.await_p99_us", p99(Method::kVmAwaitPublished), "us"},
      {"vmanager.get_recent_p50_us", p50(Method::kVmGetRecent), "us"},
      {"vmanager.aborted", static_cast<double>(b.vm.aborted - a.vm.aborted),
       "count"},
      {"pmanager.allocate_p50_us", p50(Method::kPmAllocate), "us"},
      {"pmanager.allocate_per_update",
       Ratio(count(Method::kPmAllocate), updates), "count"},
      {"pmanager.report_locations_per_update",
       Ratio(count(Method::kPmReportLocations), updates), "count"},
      {"provider.write_p50_us", p50(Method::kProviderWrite), "us"},
      {"provider.writes_per_update",
       Ratio(count(Method::kProviderWrite), updates), "count"},
      {"provider.read_p50_us", p50(Method::kProviderRead), "us"},
      {"provider.reads_per_read", Ratio(count(Method::kProviderRead), reads),
       "count"},
      {"provider.read_bytes_per_user_byte",
       Ratio(provider_read_bytes, w.bytes_read), "ratio"},
      {"pagelog.syncs_per_update",
       Ratio(b.pages.syncs - a.pages.syncs, updates), "count"},
      {"pagelog.bytes_written_per_user_byte",
       Ratio(b.pages.bytes_written - a.pages.bytes_written, w.bytes_written),
       "ratio"},
      {"pagelog.io_submissions_per_mb",
       Ratio(b.pages.io_submissions - a.pages.io_submissions, written_mb),
       "count/MB"},
      {"pagelog.read_syscalls_per_page_read",
       Ratio(b.pages.read_syscalls - a.pages.read_syscalls,
             b.pages.reads - a.pages.reads),
       "count"},
      {"dht.node_gets_per_read", Ratio(count(Method::kDhtGet, 'N'), reads),
       "count"},
      {"dht.node_get_p50_us", Percentile(node_get_us, 0.5), "us"},
      {"dht.node_gets_per_update",
       Ratio(count(Method::kDhtGet, 'N'), updates), "count"},
      {"dht.node_puts_per_update",
       Ratio(count(Method::kDhtPut, 'N'), updates), "count"},
      {"dht.put_p50_us", p50(Method::kDhtPut), "us"},
      {"dht.location_cas_per_update",
       Ratio(count(Method::kDhtCas, 'L'), updates), "count"},
      {"dht.location_gets_per_read",
       Ratio(count(Method::kDhtGet, 'L'), reads), "count"},
      {"dht.server_bytes", static_cast<double>(b.dht_bytes), "B"},
      {"meta.cache_hit_ratio", Ratio(meta.hits, meta.hits + meta.misses),
       "ratio"},
      {"meta.nodes_written_per_update",
       Ratio(cs.meta_nodes_written, updates), "count"},
      {"locator.hit_ratio", Ratio(loc.hits, loc.hits + loc.misses), "ratio"},
      {"locator.refreshes", static_cast<double>(cs.location_refreshes),
       "count"},
  };
}

// ---------------------------------------------------------------------------
// Output.

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintMetricLine(const char* group, const std::string& name, double v,
                     const std::string& unit, const std::string& note = "") {
  std::printf("%-10s %-38s %14s %-8s %s\n", group, name.c_str(),
              Num(v).c_str(), unit.c_str(), note.c_str());
}

struct SetupResult {
  std::unique_ptr<BenchCluster> cluster;
  std::unique_ptr<Workload> workload;
  double seconds = 0;
};

/// Cluster start plus preload, timed. The preload runs through a separate
/// default-configured client, so the measured client starts cold.
SetupResult SetUp(const WorkloadConfig& cfg, uint64_t seed,
                  const std::string& dir) {
  SetupResult s;
  const int64_t t0 = NowNs();
  s.cluster = BenchCluster::Start(dir);
  s.workload = std::make_unique<Workload>(cfg, seed);
  {
    ClientOptions o;
    o.replication = 2;
    auto loader = s.cluster->c().NewClient(o);
    if (!loader.ok()) Die("preload client: " + loader.status().ToString());
    Status st = s.workload->Setup(loader->get());
    if (!st.ok()) Die("set-up failed: " + st.ToString());
  }
  s.seconds = (NowNs() - t0) / 1e9;
  return s;
}

/// Appends `b`'s window figures to `a`'s (rounds of an untraced run).
void Merge(WindowResult* a, const WindowResult& b) {
  a->attempted += b.attempted;
  a->failed += b.failed;
  a->window_ops += b.window_ops;
  a->read_us.insert(a->read_us.end(), b.read_us.begin(), b.read_us.end());
  a->update_us.insert(a->update_us.end(), b.update_us.begin(),
                      b.update_us.end());
  a->per_second.insert(a->per_second.end(), b.per_second.begin(),
                       b.per_second.end());
}

/// Reads everything back outside the timed window through a fresh untraced
/// client (`Workload::FinalCheck`); returns the failures to add: 0 or 1.
uint64_t FinalCheckFailures(Workload* w, blobseer::core::EmbeddedCluster& c,
                            blobseer::Executor* pool) {
  auto checker = MakeClient(c, c.transport(), pool);
  const Status st = w->FinalCheck(checker.get());
  if (st.ok()) return 0;
  std::fprintf(stderr, "perfbench: final check failed: %s\n",
               st.ToString().c_str());
  return 1;
}

/// The end-to-end run: `cfg.rounds` rounds of set-up, measured window and
/// final read-back, each on a fresh cluster with its own inputs derived
/// from the seed.
int RunUntraced(const Flags& flags, const WorkloadConfig& cfg,
                blobseer::Executor* pool) {
  const size_t rounds = std::min<size_t>(cfg.rounds, flags.seconds);
  std::vector<double> setup_s, stored_ratio, peak_rss;
  WindowResult w;
  double window_s = 0, cpu_s = 0;
  for (size_t r = 0; r < rounds; r++) {
    const uint64_t secs =
        flags.seconds / rounds + (r < flags.seconds % rounds ? 1 : 0);
    SetupResult run = SetUp(cfg, Mix(flags.seed) + r,
                            flags.data_dir + "/round-" + std::to_string(r));
    setup_s.push_back(run.seconds);
    auto& cluster = run.cluster->c();
    WindowResult rw;
    {
      auto client = MakeClient(cluster, cluster.transport(), pool);
      rw = RunWindow(run.workload.get(), client.get(), secs, nullptr);
    }
    rw.failed += FinalCheckFailures(run.workload.get(), cluster, pool);
    stored_ratio.push_back(Ratio(static_cast<double>(StoredBytes(cluster)),
                                 run.workload->user_bytes_written()));
    double peak = 0;
    for (const auto& s : rw.per_second) peak = std::max(peak, s.rss_mb);
    peak_rss.push_back(peak);
    window_s += (rw.deadline_ns - rw.start_ns) / 1e9;
    cpu_s += (rw.cpu_deadline.user_s - rw.cpu_start.user_s) +
             (rw.cpu_deadline.sys_s - rw.cpu_start.sys_s);
    Merge(&w, rw);
  }
  const uint64_t failed = w.failed;

  std::vector<double> all_us = w.read_us;
  all_us.insert(all_us.end(), w.update_us.begin(), w.update_us.end());
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", MedianPerSecond(w, PerSecondOps), "1/s"},
      {"mb_per_s",
       MedianPerSecond(w, [](const auto& s) { return s.bytes / 1e6; }),
       "MB/s"},
      {"op_p50_us", Percentile(all_us, 0.50), "us"},
      {"op_p99_us",
       MedianPerSecond(
           w, [](const auto& s) { return Percentile(s.us, 0.99); }, true),
       "us"},
      {"cpu_us_per_op",
       MedianPerSecond(
           w, [](const auto& s) { return Ratio(s.cpu_s * 1e6, s.ops); }, true),
       "us"},
      {"peak_rss_mb", Median(peak_rss), "MB"},
      {"stored_bytes_per_user_byte", Median(stored_ratio), "ratio"},
  };
  const std::string n_all = "n=" + std::to_string(all_us.size());
  for (const Metric& m : e2e)
    PrintMetricLine("end_to_end", m.name, m.value, m.unit,
                    m.name.rfind("op_p", 0) == 0 ? n_all : "");
  // The read/update split and the failure ratio: printed, not part of the
  // JSON (a metric there must exist and be non-zero on every workload).
  if (!w.read_us.empty()) {
    const std::string n = "n=" + std::to_string(w.read_us.size());
    PrintMetricLine("end_to_end", "read_p50_us", Percentile(w.read_us, 0.5),
                    "us", n);
    PrintMetricLine("end_to_end", "read_p99_us", Percentile(w.read_us, 0.99),
                    "us", n);
  }
  if (!w.update_us.empty()) {
    const std::string n = "n=" + std::to_string(w.update_us.size());
    PrintMetricLine("end_to_end", "update_p50_us",
                    Percentile(w.update_us, 0.5), "us", n);
    PrintMetricLine("end_to_end", "update_p99_us",
                    Percentile(w.update_us, 0.99), "us", n);
  }
  PrintMetricLine("end_to_end", "fail_ratio", Ratio(failed, w.attempted),
                  "ratio", "attempted=" + std::to_string(w.attempted));
  // Whole-window forms of the per-second medians above.
  std::string each_second;
  for (const auto& s : w.per_second)
    each_second += (each_second.empty() ? "" : " ") + std::to_string(s.ops);
  PrintMetricLine("window", "ops_per_s_mean", w.window_ops / window_s, "1/s",
                  each_second);
  PrintMetricLine("window", "op_p99_us_whole", Percentile(all_us, 0.99), "us",
                  n_all);
  PrintMetricLine("window", "cpu_us_per_op_whole",
                  Ratio(cpu_s * 1e6, w.window_ops), "us");
  std::string each;
  for (double s : setup_s) each += (each.empty() ? "" : " ") + Num(s);
  PrintMetricLine("setup", "setup_s_each", Median(setup_s), "s", each);
  std::fflush(stdout);
  PrintResult(failed == 0, w.attempted, failed, e2e);
  return failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const WorkloadConfig& cfg = FindWorkload(flags.workload);
  CheckBuild();
  const size_t nproc = Nproc();
  std::printf(
      "env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %llu, "
      "\"trace\": %d, \"nproc\": %zu, \"build_type\": \"%s\", "
      "\"kernel\": \"%s\", \"io_backend\": \"psync\", \"transport\": "
      "\"tcp\", \"providers\": 4, \"dht_nodes\": 4, \"replication\": 2, "
      "\"window\": %zu}\n",
      cfg.name, static_cast<unsigned long long>(flags.seed),
      static_cast<unsigned long long>(flags.seconds), flags.trace, nproc,
      PERFBENCH_BUILD_TYPE, Kernel().c_str(), cfg.window);
  std::fflush(stdout);

  blobseer::ThreadPoolExecutor pool(nproc);
  if (flags.trace == 0) return RunUntraced(flags, cfg, &pool);

  // Traced run: the workload untraced for --seconds, then with the same
  // inputs on a second fresh cluster through a client built on the
  // decorators, so the two windows start from the same state.
  WindowResult w;
  {
    SetupResult base = SetUp(cfg, flags.seed, flags.data_dir + "/untraced");
    auto client = MakeClient(base.cluster->c(), base.cluster->c().transport(),
                             &pool);
    w = RunWindow(base.workload.get(), client.get(), flags.seconds, nullptr);
    client.reset();
    w.failed += FinalCheckFailures(base.workload.get(), base.cluster->c(),
                                   &pool);
  }
  const double ops_per_s = MedianPerSecond(w, PerSecondOps);
  SetupResult run = SetUp(cfg, flags.seed, flags.data_dir + "/traced");
  auto& cluster = run.cluster->c();
  Workload& wl = *run.workload;
  const double echo_us = EchoRttUs(cluster.transport());
  SpanRecorder recorder;
  TracingTransport ttransport(cluster.transport(), &recorder);
  TracingExecutor texec(&pool, &recorder);
  const LayerStats before = FetchLayerStats(cluster);
  WindowResult tw;
  blobseer::meta::MetaCacheStats meta;
  blobseer::locator::LocationIndexStats loc;
  blobseer::client::ClientStats cs;
  {
    auto client = MakeClient(cluster, &ttransport, &texec);
    tw = RunWindow(&wl, client.get(), flags.seconds, &recorder);
    meta = client->meta().GetCacheStats();
    loc = client->locator().GetStats();
    cs = client->GetStats();
  }
  const LayerStats after = FetchLayerStats(cluster);
  const std::vector<Span> spans = recorder.Collect();
  tw.failed += FinalCheckFailures(&wl, cluster, &pool);
  const double traced_ops_per_s = MedianPerSecond(tw, PerSecondOps);
  std::vector<Metric> layer = LayerMetrics(spans, tw, before, after, meta,
                                           loc, cs, nproc, echo_us);
  layer.push_back({"trace.untraced_ops_per_s", ops_per_s, "1/s"});
  layer.push_back({"trace.traced_ops_per_s", traced_ops_per_s, "1/s"});
  layer.push_back({"trace.overhead_share",
                   ops_per_s > 0 ? 1 - traced_ops_per_s / ops_per_s : 0,
                   "ratio"});
  layer.push_back({"trace.spans", static_cast<double>(spans.size()),
                   "count"});
  for (const Metric& m : layer)
    PrintMetricLine("per_layer", m.name, m.value, m.unit);
  if (!WriteTrace(flags.trace_out, spans, tw.start_ns))
    Die("cannot write trace file " + flags.trace_out);
  std::printf("trace file %s (%zu spans)\n", flags.trace_out.c_str(),
              spans.size());
  std::fflush(stdout);
  const uint64_t failed = w.failed + tw.failed;
  run = SetupResult{};
  PrintResult(failed == 0, w.attempted + tw.attempted, failed, layer);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
