// The benchmark's tracing decorators must be transparent (status and
// payload pass through unchanged) and must count calls, bytes and DHT
// namespaces exactly.
#include "trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/serde.h"
#include "dht/client.h"
#include "dht/service.h"
#include "lifecycle/dedup.h"
#include "locator/location.h"
#include "meta/node.h"
#include "rpc/inproc.h"

namespace perfbench {
namespace {

using blobseer::Slice;
using blobseer::Status;
using blobseer::rpc::Method;

/// Echoes the request reversed, or fails with a fixed status when the
/// request is "fail".
class EchoHandler : public blobseer::rpc::ServiceHandler {
 public:
  Status Handle(Method, Slice payload, std::string* response) override {
    std::string in = payload.ToString();
    if (in == "fail") return Status::Aborted("told to fail");
    response->assign(in.rbegin(), in.rend());
    return Status::OK();
  }
};

std::vector<Span> RpcSpans(const SpanRecorder& r) {
  std::vector<Span> out;
  for (const Span& s : r.Collect())
    if (s.kind == SpanKind::kRpc) out.push_back(s);
  return out;
}

TEST(TracingTransport, PassesStatusAndPayloadThroughUnchanged) {
  blobseer::rpc::InProcNetwork net;
  ASSERT_TRUE(net.Serve("inproc://echo", std::make_shared<EchoHandler>()).ok());
  SpanRecorder rec;
  TracingTransport t(&net, &rec);
  EXPECT_EQ(t.binds_at_connect(), net.binds_at_connect());
  auto ch = t.Connect("inproc://echo");
  ASSERT_TRUE(ch.ok());

  std::string rsp;
  ASSERT_TRUE((*ch)->Call(Method::kVmStats, Slice("abcdef"), &rsp).ok());
  EXPECT_EQ(rsp, "fedcba");

  Status st = (*ch)->Call(Method::kVmStats, Slice("fail"), &rsp);
  EXPECT_EQ(st.code(), blobseer::StatusCode::kAborted);
  EXPECT_EQ(st.message(), "told to fail");

  Status async_st;
  std::string async_rsp;
  (*ch)->CallAsync(Method::kProviderRead, Slice("xyz"),
                   [&](Status s, std::string r) {
                     async_st = s;
                     async_rsp = std::move(r);
                   });
  EXPECT_TRUE(async_st.ok());
  EXPECT_EQ(async_rsp, "zyx");

  auto spans = RpcSpans(rec);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].code, static_cast<uint32_t>(Method::kVmStats));
  EXPECT_TRUE(spans[0].ok);
  EXPECT_EQ(spans[0].bytes_out, 6u);
  EXPECT_EQ(spans[0].bytes_in, 6u);
  EXPECT_FALSE(spans[1].ok);
  EXPECT_EQ(spans[1].bytes_out, 4u);
  EXPECT_EQ(spans[1].bytes_in, 0u);
  EXPECT_EQ(spans[2].code, static_cast<uint32_t>(Method::kProviderRead));
  EXPECT_EQ(spans[2].bytes_in, 3u);
  for (const Span& s : spans) {
    EXPECT_EQ(s.ns, 0);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
}

TEST(TracingTransport, ConnectFailurePassesThrough) {
  blobseer::rpc::InProcNetwork net;
  SpanRecorder rec;
  TracingTransport t(&net, &rec);
  auto direct = net.Connect("inproc://nobody");
  auto traced = t.Connect("inproc://nobody");
  ASSERT_EQ(traced.ok(), direct.ok());
  if (!traced.ok()) {
    EXPECT_EQ(traced.status().code(), direct.status().code());
    EXPECT_EQ(traced.status().message(), direct.status().message());
  } else {
    // A lazily binding transport fails the call instead, untouched.
    std::string rsp;
    EXPECT_FALSE((*traced)->Call(Method::kVmStats, Slice("x"), &rsp).ok());
    ASSERT_EQ(RpcSpans(rec).size(), 1u);
    EXPECT_FALSE(RpcSpans(rec)[0].ok);
  }
}

TEST(TracingTransport, ClassifiesDhtNamespacesThroughARealDhtClient) {
  blobseer::rpc::InProcNetwork net;
  ASSERT_TRUE(
      net.Serve("inproc://dht", std::make_shared<blobseer::dht::DhtService>())
          .ok());
  SpanRecorder rec;
  TracingTransport t(&net, &rec);
  blobseer::dht::DhtClient dht(&t, {"inproc://dht"});

  blobseer::meta::NodeKey nk;
  nk.origin = 7;
  nk.version = 3;
  const std::string node_key = nk.ToDhtKey();
  const std::string loc_key = blobseer::locator::LocationKey({1, 2});
  const std::string hash_key = blobseer::lifecycle::HashKey(5, 6);

  ASSERT_TRUE(dht.Put(Slice(node_key), Slice("node-bytes")).ok());
  ASSERT_TRUE(dht.Put(Slice(loc_key), Slice("loc")).ok());
  std::string v;
  ASSERT_TRUE(dht.Get(Slice(node_key), &v).ok());
  EXPECT_EQ(v, "node-bytes");
  ASSERT_TRUE(dht.Get(Slice(loc_key), &v).ok());
  EXPECT_EQ(v, "loc");
  bool applied = false;
  std::string current;
  ASSERT_TRUE(dht.Cas(Slice(hash_key), Slice(), Slice("h"), true, &applied,
                      &current)
                  .ok());
  EXPECT_TRUE(applied);
  EXPECT_FALSE(dht.Get(Slice("missing"), &v).ok());

  std::map<std::pair<uint32_t, char>, int> seen;
  for (const Span& s : RpcSpans(rec)) seen[{s.code, s.ns}]++;
  auto n = [&](Method m, char ns) {
    return seen[{static_cast<uint32_t>(m), ns}];
  };
  EXPECT_EQ(n(Method::kDhtPut, 'N'), 1);
  EXPECT_EQ(n(Method::kDhtPut, 'L'), 1);
  EXPECT_EQ(n(Method::kDhtGet, 'N'), 1);
  EXPECT_EQ(n(Method::kDhtGet, 'L'), 1);
  EXPECT_EQ(n(Method::kDhtCas, 'H'), 1);
  EXPECT_GE(n(Method::kDhtGet, 'm'), 1);  // "missing" starts with 'm'
}

TEST(DhtNamespace, ReadsTheTagOfTheFirstKey) {
  blobseer::BinaryWriter w;
  w.PutString("Lrest");
  EXPECT_EQ(DhtNamespace(Method::kDhtGet, Slice(w.buffer())), 'L');
  EXPECT_EQ(DhtNamespace(Method::kDhtDelete, Slice(w.buffer())), 'L');
  EXPECT_EQ(DhtNamespace(Method::kProviderRead, Slice(w.buffer())), 0);

  blobseer::BinaryWriter mg;
  mg.PutU32(2);
  mg.PutString("Nkey");
  mg.PutString("Lkey");
  EXPECT_EQ(DhtNamespace(Method::kDhtMultiGet, Slice(mg.buffer())), 'N');

  EXPECT_EQ(DhtNamespace(Method::kDhtGet, Slice("")), 0);
  blobseer::BinaryWriter empty;
  empty.PutString("");
  EXPECT_EQ(DhtNamespace(Method::kDhtGet, Slice(empty.buffer())), 0);
}

TEST(TracingExecutor, CountsTasksAndPassesResultsThrough) {
  blobseer::ThreadPoolExecutor pool(2);
  SpanRecorder rec;
  TracingExecutor ex(&pool, &rec);

  std::atomic<int> ran{0};
  Status st = ex.ParallelFor(5, 0, [&](size_t i) {
    ran++;
    return i == 3 ? Status::IOError("task 3") : Status::OK();
  });
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(st.code(), blobseer::StatusCode::kIOError);

  auto done = ex.MakeWaitEvent();
  std::atomic<int> scheduled{0};
  for (int i = 0; i < 4; i++) {
    ex.Schedule([&] {
      if (++scheduled == 4) done->Signal();
    });
  }
  done->Await();
  // The span is recorded after the task body returns; wait for all of them.
  for (int i = 0; i < 1000 && rec.Collect().size() < 9; i++)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  int bodies = 0, tasks = 0, failed = 0;
  for (const Span& s : rec.Collect()) {
    ASSERT_EQ(s.kind, SpanKind::kTask);
    EXPECT_LE(s.start_ns, s.run_ns);
    EXPECT_LE(s.run_ns, s.end_ns);
    (s.code == 1 ? bodies : tasks)++;
    if (!s.ok) failed++;
  }
  EXPECT_EQ(bodies, 5);
  EXPECT_EQ(tasks, 4);
  EXPECT_EQ(failed, 1);
}

TEST(WriteTrace, WritesHeaderAndOneLinePerSpan) {
  std::vector<Span> spans(3);
  spans[1].kind = SpanKind::kRpc;
  spans[1].ns = 'N';
  const std::string path =
      ::testing::TempDir() + "/perfbench_trace_test.tsv";
  ASSERT_TRUE(WriteTrace(path, spans, 0));
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  int lines = 0;
  char buf[512];
  std::string second;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    if (lines == 2) second = buf;
    lines++;
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(lines, 4);
  EXPECT_EQ(second.rfind("rpc\t0\tN\t1\t", 0), 0u) << second;
}

}  // namespace
}  // namespace perfbench
