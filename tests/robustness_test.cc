// Robustness: decoder fuzzing (malformed bytes must fail cleanly, never
// crash), protocol misuse, and a mixed read/write/branch stress run with
// full reference checking.
#include <gtest/gtest.h>

#include <thread>

#include "common/random.h"
#include "core/cluster.h"
#include "dht/messages.h"
#include "meta/node.h"
#include "pmanager/messages.h"
#include "provider/messages.h"
#include "reference_blob.h"
#include "rpc/call.h"
#include "vmanager/messages.h"

namespace blobseer {
namespace {

using testing::ReferenceBlob;
using testing::TestPayload;

// --- Decoder fuzzing --------------------------------------------------------

template <typename Msg>
void FuzzDecode(uint64_t seed, int iters) {
  Rng rng(seed);
  for (int i = 0; i < iters; i++) {
    size_t len = rng.Uniform(200);
    std::string junk(len, '\0');
    for (auto& c : junk) c = static_cast<char>(rng.Next());
    Msg msg;
    BinaryReader r{Slice(junk)};
    // Must return (any status); must not crash or hang.
    (void)msg.DecodeFrom(&r);
  }
}

TEST(FuzzDecodeTest, MetaNodeSurvivesGarbage) {
  FuzzDecode<meta::MetaNode>(1, 3000);
}
TEST(FuzzDecodeTest, VmTicketSurvivesGarbage) {
  FuzzDecode<vmanager::AssignTicket>(2, 3000);
}
TEST(FuzzDecodeTest, DirectoryResponseSurvivesGarbage) {
  FuzzDecode<pmanager::DirectoryResponse>(3, 3000);
}
TEST(FuzzDecodeTest, MultiGetResponseSurvivesGarbage) {
  FuzzDecode<dht::MultiGetResponse>(4, 3000);
}
TEST(FuzzDecodeTest, ProviderReadRequestSurvivesGarbage) {
  FuzzDecode<provider::ReadRequest>(5, 3000);
}
TEST(FuzzDecodeTest, ProviderReadResponseSurvivesGarbage) {
  FuzzDecode<provider::ReadResponse>(8, 3000);
}
TEST(FuzzDecodeTest, ProviderReadCountsAreBoundedByPayload) {
  // A huge item count over a short payload is rejected before anything is
  // allocated for it.
  BinaryWriter w;
  w.PutU32(0xFFFFFFFFu);
  w.PutU64(0);
  provider::ReadRequest req;
  BinaryReader rq{Slice(w.buffer())};
  EXPECT_TRUE(req.DecodeFrom(&rq).IsCorruption());
  provider::ReadResponse rsp;
  BinaryReader rr{Slice(w.buffer())};
  EXPECT_TRUE(rsp.DecodeFrom(&rr).IsCorruption());
  // An unknown per-item status code is corruption too.
  BinaryWriter bad;
  bad.PutU32(1);
  bad.PutU8(200);
  bad.PutString("msg");
  BinaryReader rb{Slice(bad.buffer())};
  EXPECT_TRUE(rsp.DecodeFrom(&rb).IsCorruption());
}
TEST(FuzzDecodeTest, BlobDescriptorSurvivesGarbage) {
  FuzzDecode<BlobDescriptor>(6, 3000);
}

// Truncation at every byte offset of a valid encoding must fail cleanly or
// succeed (when the prefix happens to decode), never crash.
TEST(FuzzDecodeTest, TruncationSweepOnMetaNode) {
  meta::MetaNode leaf = meta::MetaNode::Leaf(
      {meta::PageFragment{PageId{1, 2}, {3}, 4, 5, 6},
       meta::PageFragment{PageId{7, 8}, {9}, 10, 11, 12}},
      42, 3);
  BinaryWriter w;
  leaf.EncodeTo(&w);
  for (size_t cut = 0; cut < w.buffer().size(); cut++) {
    meta::MetaNode decoded;
    BinaryReader r{Slice(w.buffer().data(), cut)};
    Status s = decoded.DecodeFrom(&r);
    EXPECT_FALSE(s.ok()) << "decoded from truncated prefix " << cut;
  }
}

// --- Service-level misuse ----------------------------------------------------

TEST(MisuseTest, ServicesRejectGarbagePayloads) {
  core::ClusterOptions opts;
  opts.num_providers = 1;
  opts.num_meta = 1;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  Rng rng(17);
  std::vector<rpc::Method> methods = {
      rpc::Method::kDhtPut,          rpc::Method::kDhtGet,
      rpc::Method::kProviderWrite,   rpc::Method::kProviderRead,
      rpc::Method::kPmRegister,      rpc::Method::kPmAllocate,
      rpc::Method::kVmCreateBlob,    rpc::Method::kVmAssignVersion,
      rpc::Method::kVmBranch,        rpc::Method::kVmGetSize,
  };
  std::vector<std::string> addrs = {
      (*cluster)->dht_addresses()[0], (*cluster)->dht_addresses()[0],
      (*cluster)->provider_addresses()[0], (*cluster)->provider_addresses()[0],
      (*cluster)->pmanager_address(), (*cluster)->pmanager_address(),
      (*cluster)->vmanager_address(), (*cluster)->vmanager_address(),
      (*cluster)->vmanager_address(), (*cluster)->vmanager_address(),
  };
  for (size_t m = 0; m < methods.size(); m++) {
    auto ch = (*cluster)->transport()->Connect(addrs[m]);
    ASSERT_TRUE(ch.ok());
    for (int i = 0; i < 50; i++) {
      std::string junk(rng.Uniform(64), '\0');
      for (auto& c : junk) c = static_cast<char>(rng.Next());
      std::string out;
      // Any status is fine; the service must stay alive.
      (void)(*ch)->Call(methods[m], Slice(junk), &out);
    }
  }
  // Cluster still functional after the abuse.
  auto client = (*cluster)->NewClient();
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  client::Blob blob(client->get(), *id);
  auto v = blob.AppendSync(TestPayload(1, 100));
  ASSERT_TRUE(v.ok());
  std::string outb;
  ASSERT_TRUE(blob.Read(*v, 0, 100, &outb).ok());
  EXPECT_EQ(outb, TestPayload(1, 100));
}

TEST(MisuseTest, WrongMethodBlockForService) {
  core::ClusterOptions opts;
  opts.num_providers = 1;
  opts.num_meta = 1;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto ch = (*cluster)->transport()->Connect((*cluster)->vmanager_address());
  ASSERT_TRUE(ch.ok());
  std::string out;
  Status s = (*ch)->Call(rpc::Method::kDhtPut, Slice(""), &out);
  EXPECT_TRUE(s.IsNotSupported());
}

// --- Mixed stress with reference checking ------------------------------------

TEST(StressTest, MixedWorkloadKeepsEverySnapshotConsistent) {
  core::ClusterOptions opts;
  opts.num_providers = 5;
  opts.num_meta = 5;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto owner = (*cluster)->NewClient();
  ASSERT_TRUE(owner.ok());
  auto id = (*owner)->Create(128);
  ASSERT_TRUE(id.ok());
  client::Blob blob(owner->get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(0, 2000)).ok());

  constexpr int kThreads = 6;
  constexpr int kOpsEach = 15;
  std::mutex mu;
  // version -> (is_append, offset, data); appends record offset at publish.
  std::map<Version, std::tuple<bool, uint64_t, std::string>> ops;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      auto client = (*cluster)->NewClient();
      ASSERT_TRUE(client.ok());
      Rng rng(t * 31 + 7);
      for (int i = 0; i < kOpsEach; i++) {
        std::string data = TestPayload(t * 1000 + i, 1 + rng.Uniform(700));
        if (rng.OneIn(2)) {
          auto v = (*client)->Append(*id, Slice(data));
          ASSERT_TRUE(v.ok()) << v.status().ToString();
          std::lock_guard<std::mutex> lock(mu);
          ops[*v] = {true, 0, data};
        } else {
          uint64_t off = rng.Uniform(1500);
          auto v = (*client)->Write(*id, Slice(data), off);
          ASSERT_TRUE(v.ok()) << v.status().ToString();
          std::lock_guard<std::mutex> lock(mu);
          ops[*v] = {false, off, data};
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(ops.size(), size_t{kThreads * kOpsEach});
  ASSERT_TRUE((*owner)->Sync(*id, ops.rbegin()->first).ok());

  ReferenceBlob ref;
  ref.ApplyAppend(TestPayload(0, 2000));
  for (auto& [v, op] : ops) {
    auto& [is_append, off, data] = op;
    Version got = is_append ? ref.ApplyAppend(data) : ref.ApplyWrite(data, off);
    ASSERT_EQ(got, v);
  }
  for (Version v = 1; v <= ref.latest(); v += 3) {
    std::string out;
    ASSERT_TRUE((*owner)->Read(*id, v, 0, ref.Size(v), &out).ok()) << v;
    ASSERT_EQ(out, ref.Contents(v)) << "snapshot " << v;
  }
  std::string out;
  Version last = ref.latest();
  ASSERT_TRUE((*owner)->Read(*id, last, 0, ref.Size(last), &out).ok());
  ASSERT_EQ(out, ref.Contents(last));
}

}  // namespace
}  // namespace blobseer
