// DHT tests: store semantics, placement distribution, replicated client,
// replica failover.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "dht/client.h"
#include "dht/placement.h"
#include "dht/service.h"
#include "dht/store.h"
#include "rpc/inproc.h"

namespace blobseer::dht {
namespace {

TEST(KvStoreTest, PutGetDelete) {
  KvStore store(4);
  std::string v;
  EXPECT_TRUE(store.Get(Slice("k"), &v).IsNotFound());
  ASSERT_TRUE(store.Put(Slice("k"), Slice("v1")).ok());
  ASSERT_TRUE(store.Get(Slice("k"), &v).ok());
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(store.Put(Slice("k"), Slice("v2")).ok());  // overwrite allowed
  ASSERT_TRUE(store.Get(Slice("k"), &v).ok());
  EXPECT_EQ(v, "v2");
  ASSERT_TRUE(store.Delete(Slice("k")).ok());
  EXPECT_TRUE(store.Get(Slice("k"), &v).IsNotFound());
  ASSERT_TRUE(store.Delete(Slice("k")).ok());  // idempotent
}

TEST(KvStoreTest, StatsTrackKeysAndBytes) {
  KvStore store(4);
  ASSERT_TRUE(store.Put(Slice("alpha"), Slice("12345")).ok());
  ASSERT_TRUE(store.Put(Slice("beta"), Slice("1")).ok());
  StoreStats st = store.GetStats();
  EXPECT_EQ(st.keys, 2u);
  EXPECT_EQ(st.bytes, 5 + 5 + 4 + 1u);
  ASSERT_TRUE(store.Delete(Slice("alpha")).ok());
  st = store.GetStats();
  EXPECT_EQ(st.keys, 1u);
  EXPECT_EQ(st.bytes, 5u);
}

TEST(KvStoreTest, ConcurrentMixedOps) {
  KvStore store(16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; i++) {
        std::string k = StrFormat("key-%d-%d", t, i);
        ASSERT_TRUE(store.Put(Slice(k), Slice(k)).ok());
        std::string v;
        ASSERT_TRUE(store.Get(Slice(k), &v).ok());
        ASSERT_EQ(v, k);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.GetStats().keys, 8 * 500u);
}

TEST(PlacementTest, StaticIsDeterministicAndInRange) {
  StaticPlacement p(7);
  for (int i = 0; i < 100; i++) {
    std::string k = "key" + std::to_string(i);
    size_t n = p.NodeFor(Slice(k));
    EXPECT_LT(n, 7u);
    EXPECT_EQ(n, p.NodeFor(Slice(k)));
  }
}

TEST(PlacementTest, StaticSpreadsKeys) {
  StaticPlacement p(8);
  std::map<size_t, int> counts;
  for (int i = 0; i < 8000; i++) {
    counts[p.NodeFor(Slice("key" + std::to_string(i)))]++;
  }
  ASSERT_EQ(counts.size(), 8u);
  for (auto& [node, c] : counts) {
    EXPECT_GT(c, 700) << "node " << node << " starved";
    EXPECT_LT(c, 1300) << "node " << node << " overloaded";
  }
}

TEST(PlacementTest, ReplicasAreDistinct) {
  for (auto make : {MakeStaticPlacement, +[](size_t n) {
         return MakeRingPlacement(n, 64);
       }}) {
    auto p = make(5);
    for (int i = 0; i < 50; i++) {
      auto reps = p->ReplicaNodes(Slice("k" + std::to_string(i)), 3);
      ASSERT_EQ(reps.size(), 3u);
      EXPECT_NE(reps[0], reps[1]);
      EXPECT_NE(reps[1], reps[2]);
      EXPECT_NE(reps[0], reps[2]);
    }
  }
}

TEST(PlacementTest, ReplicasClampToNodeCount) {
  StaticPlacement p(2);
  EXPECT_EQ(p.ReplicaNodes(Slice("k"), 5).size(), 2u);
}

TEST(PlacementTest, RingIsMostlyStableUnderGrowth) {
  RingPlacement before(10, 64);
  RingPlacement after(11, 64);
  int moved = 0;
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; i++) {
    std::string k = "stable" + std::to_string(i);
    if (before.NodeFor(Slice(k)) != after.NodeFor(Slice(k))) moved++;
  }
  // Consistent hashing should move roughly 1/11 of keys, far below the
  // ~10/11 a mod-N scheme would move.
  EXPECT_LT(moved, kKeys / 4);
  EXPECT_GT(moved, 0);
}

/// Serves a DhtService and counts the requests it receives, per method.
class CountingHandler : public rpc::ServiceHandler {
 public:
  explicit CountingHandler(std::shared_ptr<DhtService> svc)
      : svc_(std::move(svc)) {}
  Status Handle(rpc::Method method, Slice payload,
                std::string* response) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      calls_[method]++;
    }
    return svc_->Handle(method, payload, response);
  }
  int calls(rpc::Method method) {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_[method];
  }

 private:
  std::shared_ptr<DhtService> svc_;
  std::mutex mu_;
  std::map<rpc::Method, int> calls_;
};

class DhtClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; i++) {
      auto svc = std::make_shared<DhtService>();
      services_.push_back(svc);
      counters_.push_back(std::make_shared<CountingHandler>(svc));
      std::string addr = StrFormat("inproc://dht-%d", i);
      ASSERT_TRUE(net_.Serve(addr, counters_.back()).ok());
      addresses_.push_back(addr);
    }
  }

  int TotalCalls(rpc::Method method) {
    int n = 0;
    for (auto& c : counters_) n += c->calls(method);
    return n;
  }

  rpc::InProcNetwork net_;
  std::vector<std::shared_ptr<DhtService>> services_;
  std::vector<std::shared_ptr<CountingHandler>> counters_;
  std::vector<std::string> addresses_;
};

TEST_F(DhtClientTest, PutGetAcrossNodes) {
  DhtClient client(&net_, addresses_);
  for (int i = 0; i < 200; i++) {
    std::string k = "key" + std::to_string(i);
    ASSERT_TRUE(client.Put(Slice(k), Slice("value" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 200; i++) {
    std::string v;
    ASSERT_TRUE(client.Get(Slice("key" + std::to_string(i)), &v).ok());
    EXPECT_EQ(v, "value" + std::to_string(i));
  }
  // Keys actually spread across nodes.
  int populated = 0;
  for (auto& svc : services_) {
    if (svc->store().GetStats().keys > 0) populated++;
  }
  EXPECT_GE(populated, 3);
}

TEST_F(DhtClientTest, MissingKeyIsNotFound) {
  DhtClient client(&net_, addresses_);
  std::string v;
  EXPECT_TRUE(client.Get(Slice("nope"), &v).IsNotFound());
}

TEST_F(DhtClientTest, ReplicationSurvivesPrimaryLoss) {
  DhtClientOptions opts;
  opts.replication = 2;
  DhtClient client(&net_, addresses_, opts);
  std::vector<std::string> keys;
  for (int i = 0; i < 100; i++) {
    keys.push_back("rk" + std::to_string(i));
    ASSERT_TRUE(client.Put(Slice(keys.back()), Slice("v")).ok());
  }
  // Kill one node: every key must remain readable via its replica.
  ASSERT_TRUE(net_.StopServing(addresses_[1]).ok());
  for (const auto& k : keys) {
    std::string v;
    ASSERT_TRUE(client.Get(Slice(k), &v).ok()) << "lost key " << k;
    EXPECT_EQ(v, "v");
  }
}

TEST_F(DhtClientTest, WithoutReplicationLossIsVisible) {
  DhtClient client(&net_, addresses_);
  StaticPlacement placement(addresses_.size());
  std::string victim_key;
  for (int i = 0; i < 1000 && victim_key.empty(); i++) {
    std::string k = "vk" + std::to_string(i);
    if (placement.NodeFor(Slice(k)) == 2) victim_key = k;
  }
  ASSERT_FALSE(victim_key.empty());
  ASSERT_TRUE(client.Put(Slice(victim_key), Slice("v")).ok());
  ASSERT_TRUE(net_.StopServing(addresses_[2]).ok());
  std::string v;
  EXPECT_FALSE(client.Get(Slice(victim_key), &v).ok());
}

TEST_F(DhtClientTest, TotalStatsAggregates) {
  DhtClient client(&net_, addresses_);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(
        client.Put(Slice("sk" + std::to_string(i)), Slice("0123456789")).ok());
  }
  uint64_t keys, bytes;
  ASSERT_TRUE(client.TotalStats(&keys, &bytes).ok());
  EXPECT_EQ(keys, 50u);
  EXPECT_GT(bytes, 500u);
}

TEST_F(DhtClientTest, MultiGetSendsOneRpcPerNode) {
  DhtClient client(&net_, addresses_);
  StaticPlacement placement(addresses_.size());
  std::vector<std::string> keys;
  std::set<size_t> nodes;
  for (int i = 0; i < 40; i++) {
    keys.push_back("mk" + std::to_string(i));
    nodes.insert(placement.NodeFor(Slice(keys.back())));
    // Every third key stays missing.
    if (i % 3 != 0) {
      ASSERT_TRUE(
          client.Put(Slice(keys.back()), Slice("v" + keys.back())).ok());
    }
  }
  ASSERT_EQ(nodes.size(), 4u);

  auto got = client.MultiGetAsync(keys).Wait();
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    if (i % 3 == 0) {
      EXPECT_TRUE((*got)[i].status().IsNotFound()) << keys[i];
    } else {
      ASSERT_TRUE((*got)[i].ok()) << keys[i];
      EXPECT_EQ(*(*got)[i], "v" + keys[i]);
    }
  }
  // One MultiGet per node, no per-key Get.
  for (auto& c : counters_) EXPECT_EQ(c->calls(rpc::Method::kDhtMultiGet), 1);
  EXPECT_EQ(TotalCalls(rpc::Method::kDhtGet), 0);

  auto empty = client.MultiGetAsync({}).Wait();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(TotalCalls(rpc::Method::kDhtMultiGet), 4);
}

TEST_F(DhtClientTest, MultiGetFallsBackToSecondReplica) {
  DhtClientOptions opts;
  opts.replication = 2;
  DhtClient client(&net_, addresses_, opts);
  StaticPlacement placement(addresses_.size());
  std::vector<std::string> keys;
  size_t on_victim = 0;
  for (int i = 0; i < 100; i++) {
    keys.push_back("fk" + std::to_string(i));
    if (placement.NodeFor(Slice(keys.back())) == 1) on_victim++;
    ASSERT_TRUE(client.Put(Slice(keys.back()), Slice(keys.back())).ok());
  }
  ASSERT_GT(on_victim, 0u);
  // Stop every key's primary on node 1: those keys must come from their
  // second replica.
  ASSERT_TRUE(net_.StopServing(addresses_[1]).ok());
  auto got = client.MultiGetAsync(keys).Wait();
  ASSERT_TRUE(got.ok());
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE((*got)[i].ok()) << "lost key " << keys[i];
    EXPECT_EQ(*(*got)[i], keys[i]);
  }
  // The three live primaries answered the first round; node 1's keys took
  // a second round to their next replicas.
  EXPECT_GT(TotalCalls(rpc::Method::kDhtMultiGet), 3);
  EXPECT_EQ(TotalCalls(rpc::Method::kDhtGet), 0);
}

TEST_F(DhtClientTest, MultiGetKeyOnNoReplicaIsNotFound) {
  DhtClientOptions opts;
  opts.replication = 2;
  DhtClient client(&net_, addresses_, opts);
  ASSERT_TRUE(client.Put(Slice("here"), Slice("v")).ok());
  auto got = client.MultiGetAsync({"here", "nowhere"}).Wait();
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 2u);
  ASSERT_TRUE((*got)[0].ok());
  EXPECT_EQ(*(*got)[0], "v");
  EXPECT_TRUE((*got)[1].status().IsNotFound());
}

/// Answers every MultiGet with a response whose counts disagree with the
/// request: one found flag too many, or one value too few.
class ForgedMultiGetHandler : public rpc::ServiceHandler {
 public:
  explicit ForgedMultiGetHandler(bool extra_flag) : extra_flag_(extra_flag) {}
  Status Handle(rpc::Method, Slice payload, std::string* response) override {
    MultiGetRequest req;
    BinaryReader r(payload);
    BS_RETURN_NOT_OK(req.DecodeFrom(&r));
    MultiGetResponse rsp;
    rsp.found.assign(req.keys.size() + (extra_flag_ ? 1 : 0), 1);
    rsp.values.assign(extra_flag_ ? rsp.found.size() : req.keys.size() - 1,
                      "x");
    BinaryWriter w;
    rsp.EncodeTo(&w);
    *response = std::move(w).TakeBuffer();
    return Status::OK();
  }

 private:
  bool extra_flag_;
};

TEST(DhtMultiGetTest, MismatchedResponseCountsAreCorruption) {
  for (bool extra_flag : {true, false}) {
    rpc::InProcNetwork net;
    ASSERT_TRUE(net.Serve("inproc://forged",
                          std::make_shared<ForgedMultiGetHandler>(extra_flag))
                    .ok());
    DhtClient client(&net, {"inproc://forged"});
    auto got = client.MultiGetAsync({"a", "b"}).Wait();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), 2u);
    for (const auto& r : *got)
      EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  }
}

}  // namespace
}  // namespace blobseer::dht
