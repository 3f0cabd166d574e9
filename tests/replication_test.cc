// Replicated data pages end to end: replica-set allocation strategies, the
// v2 leaf wire format, fan-out writes, failover reads with read repair, and
// kill-a-provider scenarios on both the TCP and simnet transports (the
// availability-under-churn behaviour of paper sections 3.1/4.3; volatility
// itself was future work there).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <set>

#include "core/cluster.h"
#include "core/sim_cluster.h"
#include "meta/node.h"
#include "pagelog/log_page_store.h"
#include "pmanager/client.h"
#include "pmanager/service.h"
#include "pmanager/strategy.h"
#include "provider/service.h"
#include "reference_blob.h"
#include "rpc/inproc.h"

namespace blobseer {
namespace {

using client::Blob;
using client::BlobClient;
using meta::MetaNode;
using meta::NodeKey;
using meta::PageFragment;
using pmanager::MakeStrategy;
using pmanager::ProviderRecord;
using pmanager::ReplicaSet;
using testing::ReferenceBlob;
using testing::TestPayload;

std::vector<ProviderRecord> MakeRecords(size_t n) {
  std::vector<ProviderRecord> recs;
  for (size_t i = 0; i < n; i++) {
    ProviderRecord r;
    r.id = static_cast<ProviderId>(i);
    r.address = "p" + std::to_string(i);
    recs.push_back(r);
  }
  return recs;
}

// --- Allocation strategies -------------------------------------------------

TEST(ReplicaStrategyTest, AllStrategiesReturnDistinctReplicaSets) {
  for (auto name : {"round_robin", "random", "least_loaded", "power_of_two"}) {
    auto recs = MakeRecords(8);
    auto strat = MakeStrategy(name);
    auto sets = strat->Allocate(&recs, 100, 3);
    ASSERT_EQ(sets.size(), 100u) << name;
    for (const ReplicaSet& set : sets) {
      ASSERT_EQ(set.size(), 3u) << name;
      std::set<ProviderId> distinct(set.begin(), set.end());
      EXPECT_EQ(distinct.size(), 3u) << name;
    }
  }
}

TEST(ReplicaStrategyTest, ReplicaChargesKeepBalance) {
  // 6 providers, 300 pages at r=2: round robin spreads 600 replica charges
  // perfectly evenly; the load-aware schemes stay within 2x of the mean.
  auto rr = MakeRecords(6);
  MakeStrategy("round_robin")->Allocate(&rr, 300, 2);
  for (const auto& r : rr) EXPECT_EQ(r.allocated_pages, 100u);

  for (auto name : {"random", "least_loaded", "power_of_two"}) {
    auto recs = MakeRecords(6);
    MakeStrategy(name)->Allocate(&recs, 300, 2);
    uint64_t total = 0;
    for (const auto& r : recs) {
      EXPECT_GT(r.allocated_pages, 50u) << name;
      EXPECT_LT(r.allocated_pages, 200u) << name;
      total += r.allocated_pages;
    }
    EXPECT_EQ(total, 600u) << name;
  }
}

TEST(ReplicaStrategyTest, RoundRobinSpreadsConsecutivePrimaries) {
  auto recs = MakeRecords(4);
  auto sets = MakeStrategy("round_robin")->Allocate(&recs, 4, 2);
  ASSERT_EQ(sets.size(), 4u);
  // Primaries cycle the registration order; each secondary is the next
  // provider in the cycle (chained declustering).
  for (size_t k = 0; k < 4; k++) {
    EXPECT_EQ(sets[k][0], k % 4);
    EXPECT_EQ(sets[k][1], (k + 1) % 4);
  }
}

TEST(ReplicaStrategyTest, ShortSetsWhenFewerProvidersThanReplicas) {
  auto recs = MakeRecords(2);
  auto sets = MakeStrategy("round_robin")->Allocate(&recs, 3, 5);
  ASSERT_EQ(sets.size(), 3u);
  for (const auto& set : sets) EXPECT_EQ(set.size(), 2u);
}

TEST(ReplicaStrategyTest, DeadProvidersExcludedFromAllReplicas) {
  for (auto name : {"round_robin", "random", "least_loaded", "power_of_two"}) {
    auto recs = MakeRecords(5);
    recs[2].liveness = pmanager::Liveness::kDead;
    auto sets = MakeStrategy(name)->Allocate(&recs, 50, 2);
    for (const auto& set : sets) {
      for (ProviderId p : set) EXPECT_NE(p, 2u) << name;
    }
  }
}

TEST(ReplicaStrategyTest, SingleReplicaSetsForUnreplicatedCallers) {
  // The flat r=1 wrapper is gone: unreplicated callers allocate sets of one.
  auto recs = MakeRecords(5);
  auto strat = MakeStrategy("round_robin");
  auto got = strat->Allocate(&recs, 50, 1);
  ASSERT_EQ(got.size(), 50u);
  for (const auto& set : got) ASSERT_EQ(set.size(), 1u);
  for (const auto& r : recs) EXPECT_EQ(r.allocated_pages, 10u);
}

// --- Wire formats ----------------------------------------------------------

TEST(ReplicatedNodeSerdeTest, LeafRoundTripV3StoresOnlyPageIds) {
  MetaNode n = MetaNode::Leaf(
      {PageFragment{PageId{10, 20}, {}, 100, 28, 4},
       PageFragment{PageId{11, 21}, {}, 0, 100, 0}},
      7, 3);
  BinaryWriter w;
  n.EncodeTo(&w);
  MetaNode decoded;
  BinaryReader r{Slice(w.buffer())};
  ASSERT_TRUE(decoded.DecodeFrom(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_TRUE(decoded.is_leaf());
  ASSERT_EQ(decoded.fragments.size(), 2u);
  EXPECT_EQ(decoded.fragments[0], n.fragments[0]);
  EXPECT_EQ(decoded.fragments[1], n.fragments[1]);
}

TEST(ReplicatedNodeSerdeTest, V3EncodeDropsLegacyProviders) {
  // A fragment decoded from v2 (legacy_providers populated) re-encodes as
  // pure v3: the embedded set is never written back.
  MetaNode n =
      MetaNode::Leaf({PageFragment{PageId{10, 20}, {3, 5}, 0, 64, 0}}, 7, 1);
  BinaryWriter w;
  n.EncodeTo(&w);
  MetaNode decoded;
  BinaryReader r{Slice(w.buffer())};
  ASSERT_TRUE(decoded.DecodeFrom(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_EQ(decoded.fragments.size(), 1u);
  EXPECT_TRUE(decoded.fragments[0].legacy_providers.empty());
  EXPECT_EQ(decoded.fragments[0].pid, n.fragments[0].pid);
  EXPECT_EQ(decoded.fragments[0].len, 64u);
}

TEST(ReplicatedNodeSerdeTest, LegacyV2LeafStillDecodes) {
  // Format v2: tagged, replica set embedded per fragment. Hand-encoded to
  // pin the byte layout; decodes into legacy_providers.
  BinaryWriter w;
  w.PutU8(meta::kNodeFormatV2);
  w.PutU8(1);       // type = leaf
  w.PutU64(7);      // prev_version
  w.PutU32(3);      // chain_len
  w.PutU32(1);      // fragment count
  w.PutPageId(PageId{10, 20});
  w.PutU8(3);       // replica count
  w.PutU32(3);
  w.PutU32(5);
  w.PutU32(9);
  w.PutU32(100);    // page_off
  w.PutU32(28);     // len
  w.PutU32(4);      // data_off
  MetaNode decoded;
  BinaryReader r{Slice(w.buffer())};
  ASSERT_TRUE(decoded.DecodeFrom(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_TRUE(decoded.is_leaf());
  ASSERT_EQ(decoded.fragments.size(), 1u);
  EXPECT_EQ(decoded.fragments[0].legacy_providers,
            (std::vector<ProviderId>{3, 5, 9}));
  EXPECT_EQ(decoded.fragments[0].page_off, 100u);
  EXPECT_EQ(decoded.fragments[0].len, 28u);
}

TEST(ReplicatedNodeSerdeTest, LegacyV1LeafStillDecodes) {
  // Format v1 (pre-replication): no version marker, single provider id per
  // fragment. Hand-encoded to pin the byte layout.
  BinaryWriter w;
  w.PutU8(1);       // type = leaf (doubles as the v1 format signature)
  w.PutU64(7);      // prev_version
  w.PutU32(3);      // chain_len
  w.PutU32(1);      // fragment count
  w.PutPageId(PageId{10, 20});
  w.PutU32(6);      // the single provider
  w.PutU32(100);    // page_off
  w.PutU32(28);     // len
  w.PutU32(4);      // data_off
  MetaNode decoded;
  BinaryReader r{Slice(w.buffer())};
  ASSERT_TRUE(decoded.DecodeFrom(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_TRUE(decoded.is_leaf());
  EXPECT_EQ(decoded.prev_version, 7u);
  EXPECT_EQ(decoded.chain_len, 3u);
  ASSERT_EQ(decoded.fragments.size(), 1u);
  EXPECT_EQ(decoded.fragments[0].legacy_providers,
            (std::vector<ProviderId>{6}));
  EXPECT_EQ(decoded.fragments[0].page_off, 100u);
}

TEST(ReplicatedNodeSerdeTest, LegacyV1InnerStillDecodes) {
  BinaryWriter w;
  w.PutU8(0);  // type = inner, v1
  w.PutU64(5);
  w.PutU64(kNoVersion);
  MetaNode decoded;
  BinaryReader r{Slice(w.buffer())};
  ASSERT_TRUE(decoded.DecodeFrom(&r).ok());
  EXPECT_FALSE(decoded.is_leaf());
  EXPECT_EQ(decoded.left_version, 5u);
}

TEST(ReplicatedNodeSerdeTest, CorruptFormatAndReplicaCountRejected) {
  {
    BinaryWriter w;
    w.PutU8(9);  // neither a v1 type nor the v2 marker
    MetaNode n;
    BinaryReader r{Slice(w.buffer())};
    EXPECT_TRUE(n.DecodeFrom(&r).IsCorruption());
  }
  {
    // v2 leaf whose fragment claims an empty replica set.
    BinaryWriter w;
    w.PutU8(meta::kNodeFormatV2);
    w.PutU8(1);
    w.PutU64(kNoVersion);
    w.PutU32(1);
    w.PutU32(1);  // fragment count
    w.PutPageId(PageId{1, 1});
    w.PutU8(0);  // zero replicas: corrupt
    w.PutU32(0);
    w.PutU32(8);
    w.PutU32(0);
    MetaNode n;
    BinaryReader r{Slice(w.buffer())};
    EXPECT_TRUE(n.DecodeFrom(&r).IsCorruption());
  }
}

// --- Provider manager RPC --------------------------------------------------

class PmReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    svc_ = std::make_shared<pmanager::ProviderManagerService>();
    ASSERT_TRUE(net_.Serve("inproc://pm", svc_).ok());
    client_ =
        std::make_unique<pmanager::ProviderManagerClient>(&net_, "inproc://pm");
    for (int i = 0; i < 3; i++) {
      ASSERT_TRUE(
          client_->Register("inproc://prov-" + std::to_string(i), 0).ok());
    }
  }

  rpc::InProcNetwork net_;
  std::shared_ptr<pmanager::ProviderManagerService> svc_;
  std::unique_ptr<pmanager::ProviderManagerClient> client_;
};

TEST_F(PmReplicationTest, AllocateReplicatedReturnsDistinctSets) {
  auto sets = client_->AllocateReplicated(4, 2);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->size(), 4u);
  for (const auto& set : *sets) {
    ASSERT_EQ(set.size(), 2u);
    EXPECT_NE(set[0], set[1]);
  }
}

TEST_F(PmReplicationTest, ReplicationBeyondLiveProvidersUnavailable) {
  EXPECT_TRUE(client_->AllocateReplicated(2, 5).status().IsUnavailable());
  EXPECT_TRUE(
      client_->AllocateReplicated(2, 0).status().IsInvalidArgument());
  // The leaf wire format stores the replica count as one byte.
  EXPECT_TRUE(
      client_->AllocateReplicated(2, 256).status().IsInvalidArgument());
}

TEST_F(PmReplicationTest, FailedAllocationLeavesNoPhantomLoad) {
  // An allocation that cannot meet the replication factor must not charge
  // allocated_pages (it would skew load-aware strategies and, with
  // capacity limits, wedge providers that store nothing).
  ASSERT_TRUE(client_->AllocateReplicated(8, 4).status().IsUnavailable());
  for (const ProviderRecord& r : svc_->Records()) {
    EXPECT_EQ(r.allocated_pages, 0u);
  }
  auto ok = client_->AllocateReplicated(3, 2);
  ASSERT_TRUE(ok.ok());
  uint64_t total = 0;
  for (const ProviderRecord& r : svc_->Records()) total += r.allocated_pages;
  EXPECT_EQ(total, 6u);
}

// --- End to end: embedded cluster (inproc + TCP) ---------------------------

/// Appends `versions` multi-page payloads and returns the reference model.
ReferenceBlob FillBlob(Blob* blob, size_t versions, size_t bytes_per_append) {
  ReferenceBlob ref;
  for (size_t i = 0; i < versions; i++) {
    std::string payload = TestPayload(static_cast<int>(i), bytes_per_append);
    EXPECT_TRUE(blob->AppendSync(payload).ok());
    ref.ApplyAppend(payload);
  }
  return ref;
}

void ExpectAllVersionsReadable(Blob* blob, const ReferenceBlob& ref,
                               size_t versions) {
  for (Version v = 1; v <= versions; v++) {
    std::string out;
    ASSERT_TRUE(blob->Read(v, 0, ref.Size(v), &out).ok()) << "v" << v;
    ASSERT_EQ(out, ref.Contents(v)) << "v" << v;
  }
}

TEST(ReplicationClusterTest, KillAnyProviderTcpReadsStillSucceed) {
  core::ClusterOptions opts;
  opts.num_providers = 4;
  opts.num_meta = 2;
  opts.replication = 2;
  opts.transport = "tcp";
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->NewClient();
  ASSERT_TRUE(client.ok());

  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client->get(), *id);
  ReferenceBlob ref = FillBlob(&blob, 3, 64 * 6);

  // Mid-workload churn: kill a provider, then every read must still be
  // served by the surviving replica of each page.
  ASSERT_TRUE((*cluster)->StopProvider(1).ok());
  ExpectAllVersionsReadable(&blob, ref, 3);
  EXPECT_GT((*client)->GetStats().failover_reads, 0u);
}

TEST(ReplicationClusterTest, KillAnyProviderInprocReadsStillSucceed) {
  // Same scenario over the in-process transport, killing each provider in
  // turn on a fresh cluster (any single failure must be absorbed).
  for (size_t victim = 0; victim < 3; victim++) {
    core::ClusterOptions opts;
    opts.num_providers = 3;
    opts.num_meta = 2;
    opts.replication = 2;
    auto cluster = core::EmbeddedCluster::Start(opts);
    ASSERT_TRUE(cluster.ok());
    auto client = (*cluster)->NewClient();
    ASSERT_TRUE(client.ok());
    auto id = (*client)->Create(64);
    ASSERT_TRUE(id.ok());
    Blob blob(client->get(), *id);
    ReferenceBlob ref = FillBlob(&blob, 2, 64 * 5);
    ASSERT_TRUE((*cluster)->StopProvider(victim).ok());
    ExpectAllVersionsReadable(&blob, ref, 2);
  }
}

TEST(ReplicationClusterTest, ReadRepairRestoresLostReplica) {
  core::ClusterOptions opts;
  opts.num_providers = 3;
  opts.num_meta = 2;
  opts.replication = 2;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->NewClient();
  ASSERT_TRUE(client.ok());

  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client->get(), *id);
  std::string payload = TestPayload(1, 64);
  ASSERT_TRUE(blob.AppendSync(payload).ok());

  // White-box: the leaf for page block [0, 64) names the page object; its
  // replica set lives in the location index.
  auto leaf = (*client)->meta().GetNode(NodeKey{*id, 1, Extent{0, 64}});
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(leaf->is_leaf());
  ASSERT_EQ(leaf->fragments.size(), 1u);
  const PageFragment& frag = leaf->fragments[0];
  EXPECT_TRUE(frag.legacy_providers.empty());
  auto entry = (*client)->locator().Resolve(frag.pid);
  ASSERT_TRUE(entry.ok());
  ASSERT_EQ(entry->providers.size(), 2u);
  ProviderId lost = entry->providers[0];

  // Simulate a disk loss on the primary: the endpoint stays up but the
  // page object is gone.
  ASSERT_TRUE((*cluster)->provider(lost).store().Delete(frag.pid).ok());

  std::string out;
  ASSERT_TRUE(blob.Read(1, 0, 64, &out).ok());
  EXPECT_EQ(out, payload);
  EXPECT_GT((*client)->GetStats().failover_reads, 0u);

  // Read repair runs detached; poll until the primary holds the object
  // again (r restored).
  std::string repaired;
  Stopwatch deadline;
  while (deadline.ElapsedSeconds() < 10.0) {
    repaired.clear();
    if ((*cluster)->provider(lost).store().Read(frag.pid, 0, 0, &repaired).ok())
      break;
    RealClock::Default()->SleepForMicros(2000);
  }
  EXPECT_EQ(repaired, payload);
  EXPECT_GT((*client)->GetStats().read_repairs, 0u);

  // The repaired replica serves reads again without failover: break the
  // *other* replica and re-read.
  ASSERT_TRUE(
      (*cluster)->provider(entry->providers[1]).store().Delete(frag.pid).ok());
  out.clear();
  ASSERT_TRUE(blob.Read(1, 0, 64, &out).ok());
  EXPECT_EQ(out, payload);
}

TEST(ReplicationClusterTest, FailedReplicatedWriteDeletesAllIncarnations) {
  // 2 providers at r=3 cannot satisfy the write quorum: the update must
  // fail cleanly and leave no page objects behind on any provider.
  core::ClusterOptions opts;
  opts.num_providers = 2;
  opts.num_meta = 2;
  opts.replication = 3;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->NewClient();
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  std::string payload = TestPayload(0, 256);
  auto v = (*client)->Write(*id, Slice(payload), 0);
  ASSERT_TRUE(v.status().IsUnavailable()) << v.status().ToString();
  uint64_t pages = 0, bytes = 0;
  ASSERT_TRUE((*cluster)->TotalProviderUsage(&pages, &bytes).ok());
  EXPECT_EQ(pages, 0u);
  EXPECT_EQ(bytes, 0u);
}

/// Forwards to another transport and counts the requests sent, per method.
class CountingTransport : public rpc::Transport {
 public:
  explicit CountingTransport(rpc::Transport* inner) : inner_(inner) {}

  Result<std::string> Serve(
      const std::string& address,
      std::shared_ptr<rpc::ServiceHandler> handler) override {
    return inner_->Serve(address, std::move(handler));
  }
  Status StopServing(const std::string& address) override {
    return inner_->StopServing(address);
  }
  Result<std::shared_ptr<rpc::Channel>> Connect(
      const std::string& address) override {
    auto ch = inner_->Connect(address);
    if (!ch.ok()) return ch.status();
    return std::shared_ptr<rpc::Channel>(
        std::make_shared<CountedChannel>(this, std::move(*ch)));
  }

  int calls(rpc::Method method) {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_[method];
  }

 private:
  class CountedChannel : public rpc::Channel {
   public:
    CountedChannel(CountingTransport* t, std::shared_ptr<rpc::Channel> inner)
        : t_(t), inner_(std::move(inner)) {}
    Status Call(rpc::Method method, Slice request,
                std::string* response) override {
      t_->Count(method);
      return inner_->Call(method, request, response);
    }
    void CallAsync(rpc::Method method, Slice request,
                   rpc::CallCallback done) override {
      t_->Count(method);
      inner_->CallAsync(method, request, std::move(done));
    }

   private:
    CountingTransport* t_;
    std::shared_ptr<rpc::Channel> inner_;
  };

  void Count(rpc::Method method) {
    std::lock_guard<std::mutex> lock(mu_);
    calls_[method]++;
  }

  rpc::Transport* inner_;
  std::mutex mu_;
  std::map<rpc::Method, int> calls_;
};

TEST(ReplicationClusterTest, BatchedReadFailsOverOnlyTheMissingPiece) {
  core::ClusterOptions opts;
  opts.num_providers = 3;
  opts.num_meta = 2;
  opts.replication = 2;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  CountingTransport counting((*cluster)->transport());
  client::ClientOptions copts;
  copts.replication = 2;
  BlobClient client(&counting, (*cluster)->vmanager_address(),
                    (*cluster)->pmanager_address(),
                    (*cluster)->dht_addresses(), copts);

  auto id = client.Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(&client, *id);
  std::string payload = TestPayload(1, 6 * 64);
  ASSERT_TRUE(blob.AppendSync(payload).ok());

  // Every page's primary replica; page 2 then loses its object on the
  // primary only (the endpoint stays up).
  std::set<ProviderId> primaries;
  PageId lost_pid;
  ProviderId lost = kInvalidProvider;
  for (uint64_t p = 0; p < 6; p++) {
    auto leaf = client.meta().GetNode(NodeKey{*id, 1, Extent{p * 64, 64}});
    ASSERT_TRUE(leaf.ok());
    ASSERT_EQ(leaf->fragments.size(), 1u);
    auto entry = client.locator().Resolve(leaf->fragments[0].pid);
    ASSERT_TRUE(entry.ok());
    ASSERT_EQ(entry->providers.size(), 2u);
    primaries.insert(entry->providers[0]);
    if (p == 2) {
      lost_pid = leaf->fragments[0].pid;
      lost = entry->providers[0];
    }
  }
  ASSERT_LT(primaries.size(), 6u);
  ASSERT_TRUE((*cluster)->provider(lost).store().Delete(lost_pid).ok());

  const int reads_before = counting.calls(rpc::Method::kProviderRead);
  std::string out;
  ASSERT_TRUE(blob.Read(1, 0, 6 * 64, &out).ok());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(client.GetStats().failover_reads, 1u);

  // Read repair runs detached; wait until it re-stored the object.
  Stopwatch deadline;
  while (client.GetStats().read_repairs == 0 &&
         deadline.ElapsedSeconds() < 10.0) {
    RealClock::Default()->SleepForMicros(2000);
  }
  ASSERT_EQ(client.GetStats().read_repairs, 1u);
  std::string repaired;
  ASSERT_TRUE(
      (*cluster)->provider(lost).store().Read(lost_pid, 0, 0, &repaired).ok());
  EXPECT_EQ(repaired, payload.substr(2 * 64, 64));

  // One batched read per primary served the other five pieces; the lost
  // piece cost one failover read and the repair one whole-object read.
  EXPECT_EQ(counting.calls(rpc::Method::kProviderRead) - reads_before,
            static_cast<int>(primaries.size()) + 2);
}

TEST(ReplicationClusterTest, BatchedReadsSplitAtByteCapAndWindow) {
  // 4 KiB pages on two providers: a whole-blob read asks each provider for
  // 32 pages, so its batches split at the byte cap; with a 3-page
  // in-flight window they split at 3 items instead.
  core::ClusterOptions opts;
  opts.num_providers = 2;
  opts.num_meta = 2;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  constexpr uint64_t kPage = 4096;
  constexpr size_t kPages = 64;
  static_assert(BlobClient::kMaxReadBatchBytes / kPage < kPages / 2);
  std::string payload = TestPayload(3, kPages * kPage);
  BlobId id = kInvalidBlobId;
  std::map<ProviderId, size_t> pages_on;
  {
    auto writer = (*cluster)->NewClient();
    ASSERT_TRUE(writer.ok());
    auto created = (*writer)->Create(kPage);
    ASSERT_TRUE(created.ok());
    id = *created;
    Blob blob(writer->get(), id);
    ASSERT_TRUE(blob.AppendSync(payload).ok());
    for (uint64_t p = 0; p < kPages; p++) {
      auto leaf =
          (*writer)->meta().GetNode(NodeKey{id, 1, Extent{p * kPage, kPage}});
      ASSERT_TRUE(leaf.ok());
      auto entry = (*writer)->locator().Resolve(leaf->fragments[0].pid);
      ASSERT_TRUE(entry.ok());
      pages_on[entry->providers[0]]++;
    }
  }
  ASSERT_EQ(pages_on.size(), 2u);

  for (size_t window : {size_t{0}, size_t{3}}) {
    CountingTransport counting((*cluster)->transport());
    client::ClientOptions copts;
    copts.max_inflight_pages = window;
    BlobClient client(&counting, (*cluster)->vmanager_address(),
                      (*cluster)->pmanager_address(),
                      (*cluster)->dht_addresses(), copts);
    std::string out;
    ASSERT_TRUE(client.Read(id, 1, 0, payload.size(), &out).ok());
    EXPECT_TRUE(out == payload) << "window " << window;
    const size_t per_batch =
        window == 0 ? BlobClient::kMaxReadBatchBytes / kPage : window;
    int expected = 0;
    for (const auto& [provider, n] : pages_on)
      expected += static_cast<int>((n + per_batch - 1) / per_batch);
    EXPECT_EQ(counting.calls(rpc::Method::kProviderRead), expected)
        << "window " << window;
    EXPECT_EQ(client.GetStats().failover_reads, 0u);
  }
}

TEST(ReplicationClusterTest, InflightWindowBoundsReplicatedWrites) {
  core::ClusterOptions opts;
  opts.num_providers = 4;
  opts.num_meta = 2;
  opts.replication = 2;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  client::ClientOptions copts;
  copts.max_inflight_pages = 2;  // 24-page update squeezed through 2 slots
  auto client = (*cluster)->NewClient(copts);
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client->get(), *id);
  ReferenceBlob ref = FillBlob(&blob, 2, 64 * 24);
  ExpectAllVersionsReadable(&blob, ref, 2);
  EXPECT_EQ((*client)->GetStats().pages_stored, 48u);
}

TEST(ReplicationClusterTest, WindowedWriteFailsCleanlyWhenReplicaDies) {
  // Write quorum = all: with a dead provider still in the allocation
  // rotation, a windowed multi-page update must fail cleanly (the refill
  // stops after the first error) and leave earlier versions readable.
  core::ClusterOptions opts;
  opts.num_providers = 4;
  opts.num_meta = 2;
  opts.replication = 2;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  client::ClientOptions copts;
  copts.max_inflight_pages = 2;
  auto client = (*cluster)->NewClient(copts);
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client->get(), *id);
  std::string base = TestPayload(0, 64 * 4);
  ASSERT_TRUE(blob.AppendSync(base).ok());

  ASSERT_TRUE((*cluster)->StopProvider(0).ok());
  // 16 pages across 4 providers at r=2: some replica set names provider 0.
  EXPECT_FALSE(blob.Append(TestPayload(1, 64 * 16)).ok());
  std::string out;
  ASSERT_TRUE(blob.Read(1, 0, base.size(), &out).ok());
  EXPECT_EQ(out, base);
}

TEST(ReplicationClusterTest, AbortRepairAndCompactionRunReplicated) {
  // The zero-fill abort repair and the chain-compaction path both store
  // pages through the replicated pipeline; exercise them at r=2.
  core::ClusterOptions opts;
  opts.num_providers = 3;
  opts.num_meta = 2;
  opts.replication = 2;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  client::ClientOptions copts;
  copts.max_chain = 2;  // force page compaction quickly
  auto client = (*cluster)->NewClient(copts);
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client->get(), *id);

  ReferenceBlob ref;
  std::string base = TestPayload(0, 256);
  ASSERT_TRUE(blob.AppendSync(base).ok());
  ref.ApplyAppend(base);
  // Crashed writer (v2) with a healthy successor (v3): the abort cannot
  // retract, so it replays v2 as a zero-filled update through the
  // replicated write pipeline.
  ASSERT_TRUE((*client)->vmanager().AssignVersion(*id, false, 64, 128).ok());
  std::string tail = TestPayload(9, 64);
  ASSERT_TRUE((*client)->Append(*id, Slice(tail)).ok());
  ASSERT_TRUE((*client)->Abort(*id, 2).ok());
  ASSERT_TRUE((*client)->Sync(*id, 3).ok());
  ref.ApplyZeroFill(64, 128);
  ref.ApplyAppend(tail);
  EXPECT_GT((*client)->GetStats().repairs, 0u);
  // Unaligned writes grow the fragment chain past max_chain -> compaction.
  for (int i = 0; i < 4; i++) {
    std::string piece = TestPayload(static_cast<uint64_t>(i) + 1, 7);
    auto v = blob.WriteSync(piece, 3 + static_cast<uint64_t>(i) * 11);
    ASSERT_TRUE(v.ok());
    ref.ApplyWrite(piece, 3 + static_cast<uint64_t>(i) * 11);
  }
  EXPECT_GT((*client)->GetStats().compactions, 0u);
  Version last = 3 + 4;
  std::string out;
  ASSERT_TRUE(blob.Read(last, 0, ref.Size(last), &out).ok());
  EXPECT_EQ(out, ref.Contents(last));
}

// --- End to end: simulated Grid'5000 cluster -------------------------------

TEST(ReplicationSimTest, KillProviderUnderSimnetReadsStillSucceed) {
  simnet::SimScheduler sched;
  bool checked = false;
  sched.Run([&] {
    core::SimClusterOptions opts;
    opts.num_provider_nodes = 4;
    opts.page_store = "memory";  // serve real bytes, not the null store
    opts.replication = 2;
    core::SimCluster cluster(&sched, opts);
    auto client = cluster.NewClient();
    auto id = client->Create(4096);
    ASSERT_TRUE(id.ok());
    Blob blob(client.get(), *id);
    ReferenceBlob ref;
    for (int i = 0; i < 3; i++) {
      std::string payload = TestPayload(i, 4096 * 3);
      ASSERT_TRUE(blob.AppendSync(payload).ok());
      ref.ApplyAppend(payload);
    }
    ASSERT_TRUE(cluster.StopProvider(2).ok());
    for (Version v = 1; v <= 3; v++) {
      std::string out;
      ASSERT_TRUE(blob.Read(v, 0, ref.Size(v), &out).ok()) << "v" << v;
      ASSERT_EQ(out, ref.Contents(v)) << "v" << v;
    }
    EXPECT_GT(client->GetStats().failover_reads, 0u);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

// --- Background compaction scheduler ---------------------------------------

TEST(CompactionSchedulerTest, PeriodicCompactReclaimsDeletedPages) {
  std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bs_compact_sched_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  pagelog::LogPageStoreOptions lopts;
  lopts.segment_target_bytes = 4096;  // seal segments fast
  provider::ProviderService svc(pagelog::MakeLogPageStore(dir, lopts));

  std::string payload(1024, 'x');
  for (uint64_t i = 0; i < 16; i++) {
    ASSERT_TRUE(svc.store().Put(PageId{1, i}, Slice(payload)).ok());
  }
  for (uint64_t i = 0; i < 14; i++) {
    ASSERT_TRUE(svc.store().Delete(PageId{1, i}).ok());
  }

  ThreadPoolExecutor executor(1);
  svc.StartPeriodicCompaction(&executor, 5 * 1000);  // 5 ms cadence
  Stopwatch deadline;
  while (deadline.ElapsedSeconds() < 10.0 &&
         (svc.compaction_passes() < 2 ||
          svc.store().GetStats().compactions == 0)) {
    RealClock::Default()->SleepForMicros(2000);
  }
  EXPECT_GE(svc.compaction_passes(), 2u);
  EXPECT_GT(svc.store().GetStats().compactions, 0u);
  svc.StopPeriodicCompaction();
  uint64_t passes_after_stop = svc.compaction_passes();
  RealClock::Default()->SleepForMicros(30 * 1000);
  EXPECT_EQ(svc.compaction_passes(), passes_after_stop);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace blobseer
