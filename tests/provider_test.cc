// Data provider tests: every page-store engine behind one parametrized
// fixture (memory, file, null, log) plus the RPC service.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "pagelog/log_page_store.h"
#include "provider/client.h"
#include "provider/page_store.h"
#include "provider/service.h"
#include "rpc/inproc.h"

namespace blobseer::provider {
namespace {

struct BackendParam {
  const char* name;
  bool stores_content;  ///< false for the size-only null engine
  bool durable;         ///< survives destroy + reopen on the same directory
};

void PrintTo(const BackendParam& p, std::ostream* os) { *os << p.name; }

std::unique_ptr<PageStore> MakeBackend(const std::string& name,
                                       const std::string& dir) {
  if (name == "file") return MakeFilePageStore(dir);
  if (name == "null") return MakeNullPageStore();
  if (name == "log") return pagelog::MakeLogPageStore(dir);
  return MakeMemoryPageStore();
}

class PageStoreTest : public ::testing::TestWithParam<BackendParam> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/bs_pages_" + GetParam().name + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    store_ = MakeBackend(GetParam().name, dir_);
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Destroys and reopens the store on the same directory (durable engines).
  void Reopen() {
    store_.reset();
    store_ = MakeBackend(GetParam().name, dir_);
  }

  bool stores_content() const { return GetParam().stores_content; }

  std::unique_ptr<PageStore> store_;
  std::string dir_;
};

TEST_P(PageStoreTest, PutReadWholeAndRange) {
  PageId id{1, 1};
  ASSERT_TRUE(store_->Put(id, Slice("0123456789")).ok());
  std::string out;
  ASSERT_TRUE(store_->Read(id, 0, 0, &out).ok());  // len 0 = whole object
  ASSERT_EQ(out.size(), 10u);
  if (stores_content()) {
    EXPECT_EQ(out, "0123456789");
  }
  ASSERT_TRUE(store_->Read(id, 3, 4, &out).ok());
  ASSERT_EQ(out.size(), 4u);
  if (stores_content()) {
    EXPECT_EQ(out, "3456");
  }
}

TEST_P(PageStoreTest, ReadBeyondObjectFails) {
  PageId id{1, 2};
  ASSERT_TRUE(store_->Put(id, Slice("abc")).ok());
  std::string out;
  EXPECT_TRUE(store_->Read(id, 0, 4, &out).IsOutOfRange());
  EXPECT_TRUE(store_->Read(id, 4, 0, &out).IsOutOfRange());
}

TEST_P(PageStoreTest, ReadRangeOverflowRejected) {
  PageId id{1, 5};
  ASSERT_TRUE(store_->Put(id, Slice("0123456789")).ok());
  std::string out;
  // offset + len wraps around uint64; must be OutOfRange, not a huge read.
  EXPECT_TRUE(store_->Read(id, 8, UINT64_MAX - 4, &out).IsOutOfRange());
  EXPECT_TRUE(store_->Read(id, UINT64_MAX, 2, &out).IsOutOfRange());
}

TEST_P(PageStoreTest, MissingPageIsNotFound) {
  std::string out;
  EXPECT_TRUE(store_->Read(PageId{9, 9}, 0, 0, &out).IsNotFound());
}

TEST_P(PageStoreTest, IdempotentReplayAllowedRewriteRejected) {
  PageId id{1, 3};
  ASSERT_TRUE(store_->Put(id, Slice("samesize")).ok());
  // Same id, same size: idempotent replay of a retried RPC.
  EXPECT_TRUE(store_->Put(id, Slice("samesize")).ok());
  // Same id, different size: protocol violation (pages are immutable).
  EXPECT_TRUE(store_->Put(id, Slice("longer-content")).IsAlreadyExists());
}

TEST_P(PageStoreTest, DeleteFreesSpace) {
  PageId id{1, 4};
  ASSERT_TRUE(store_->Put(id, Slice("xxxxxxxx")).ok());
  EXPECT_EQ(store_->GetStats().pages, 1u);
  EXPECT_EQ(store_->GetStats().bytes, 8u);
  ASSERT_TRUE(store_->Delete(id).ok());
  EXPECT_EQ(store_->GetStats().pages, 0u);
  EXPECT_EQ(store_->GetStats().bytes, 0u);
  std::string out;
  EXPECT_TRUE(store_->Read(id, 0, 0, &out).IsNotFound());
  ASSERT_TRUE(store_->Delete(id).ok());  // idempotent
}

TEST_P(PageStoreTest, ManyPages) {
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(store_->Put(PageId{7, i}, Slice("payload")).ok());
  }
  EXPECT_EQ(store_->GetStats().pages, 200u);
  std::string out;
  ASSERT_TRUE(store_->Read(PageId{7, 137}, 2, 3, &out).ok());
  if (stores_content()) {
    EXPECT_EQ(out, "ylo");
  }
}

TEST_P(PageStoreTest, CompactIsAlwaysSafe) {
  for (uint64_t i = 0; i < 16; i++) {
    ASSERT_TRUE(store_->Put(PageId{8, i}, Slice("compactable")).ok());
  }
  for (uint64_t i = 0; i < 8; i++) {
    ASSERT_TRUE(store_->Delete(PageId{8, i}).ok());
  }
  ASSERT_TRUE(store_->Compact().ok());
  EXPECT_EQ(store_->GetStats().pages, 8u);
  std::string out;
  ASSERT_TRUE(store_->Read(PageId{8, 12}, 0, 0, &out).ok());
  if (stores_content()) {
    EXPECT_EQ(out, "compactable");
  }
}

TEST_P(PageStoreTest, PersistsAcrossReopen) {
  if (!GetParam().durable) GTEST_SKIP() << "engine is not durable";
  ASSERT_TRUE(store_->Put(PageId{3, 3}, Slice("durable")).ok());
  ASSERT_TRUE(store_->Put(PageId{3, 4}, Slice("")).ok());  // empty page
  Reopen();
  std::string out;
  ASSERT_TRUE(store_->Read(PageId{3, 3}, 0, 0, &out).ok());
  EXPECT_EQ(out, "durable");
  ASSERT_TRUE(store_->Read(PageId{3, 4}, 0, 0, &out).ok());
  EXPECT_EQ(out, "");
  EXPECT_EQ(store_->GetStats().pages, 2u);
  // Immutability survives the reopen too.
  EXPECT_TRUE(store_->Put(PageId{3, 3}, Slice("other-size")).IsAlreadyExists());
}

TEST_P(PageStoreTest, DeletePersistsAcrossReopen) {
  if (!GetParam().durable) GTEST_SKIP() << "engine is not durable";
  ASSERT_TRUE(store_->Put(PageId{4, 1}, Slice("kept")).ok());
  ASSERT_TRUE(store_->Put(PageId{4, 2}, Slice("gone")).ok());
  ASSERT_TRUE(store_->Delete(PageId{4, 2}).ok());
  Reopen();
  std::string out;
  ASSERT_TRUE(store_->Read(PageId{4, 1}, 0, 0, &out).ok());
  EXPECT_EQ(out, "kept");
  EXPECT_TRUE(store_->Read(PageId{4, 2}, 0, 0, &out).IsNotFound());
}

TEST_P(PageStoreTest, BatchedReadReportsPerItemErrors) {
  ASSERT_TRUE(store_->Put(PageId{7, 1}, Slice("0123456789")).ok());
  ASSERT_TRUE(store_->Put(PageId{7, 2}, Slice("abcdef")).ok());
  // The service serves this engine; one kProviderRead carries every item.
  rpc::InProcNetwork net;
  ASSERT_TRUE(
      net.Serve("inproc://prov",
                std::make_shared<ProviderService>(std::move(store_)))
          .ok());
  ProviderClient client(&net);
  auto got = client
                 .ReadPagesAsync("inproc://prov",
                                 {ReadItem{PageId{7, 1}, 0, 0},
                                  ReadItem{PageId{7, 9}, 0, 4},   // missing
                                  ReadItem{PageId{7, 2}, 4, 8},   // too long
                                  ReadItem{PageId{7, 2}, 1, 3}})
                 .Wait();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), 4u);
  ASSERT_TRUE((*got)[0].ok());
  EXPECT_EQ(*(*got)[0],
            stores_content() ? "0123456789" : std::string(10, '\0'));
  EXPECT_TRUE((*got)[1].status().IsNotFound()) << (*got)[1].status().ToString();
  EXPECT_TRUE((*got)[2].status().IsOutOfRange())
      << (*got)[2].status().ToString();
  ASSERT_TRUE((*got)[3].ok());
  EXPECT_EQ(*(*got)[3], stores_content() ? "bcd" : std::string(3, '\0'));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PageStoreTest,
    ::testing::Values(BackendParam{"memory", true, false},
                      BackendParam{"file", true, true},
                      BackendParam{"null", false, false},
                      BackendParam{"log", true, true}),
    [](const ::testing::TestParamInfo<BackendParam>& info) {
      return std::string(info.param.name);
    });

TEST(ProviderServiceTest, EndToEndOverRpc) {
  rpc::InProcNetwork net;
  auto svc = std::make_shared<ProviderService>(MakeMemoryPageStore());
  ASSERT_TRUE(net.Serve("inproc://prov", svc).ok());

  ProviderClient client(&net);
  PageId id{5, 5};
  ASSERT_TRUE(client.WritePage("inproc://prov", id, Slice("hello page")).ok());
  std::string out;
  ASSERT_TRUE(client.ReadPage("inproc://prov", id, 6, 4, &out).ok());
  EXPECT_EQ(out, "page");
  uint64_t pages, bytes;
  ASSERT_TRUE(client.Stats("inproc://prov", &pages, &bytes).ok());
  EXPECT_EQ(pages, 1u);
  EXPECT_EQ(bytes, 10u);
  ASSERT_TRUE(client.DeletePage("inproc://prov", id).ok());
  EXPECT_TRUE(client.ReadPage("inproc://prov", id, 0, 0, &out).IsNotFound());
}

TEST(ProviderServiceTest, ExtendedStatsTravelTheRpc) {
  // The log-structured backend's extension fields (segments, dead_bytes,
  // syncs, compactions) and the delete counter must survive the Stats RPC
  // round trip field-for-field.
  std::string dir = ::testing::TempDir() + "/bs_stats_rpc";
  std::filesystem::remove_all(dir);
  rpc::InProcNetwork net;
  auto svc =
      std::make_shared<ProviderService>(pagelog::MakeLogPageStore(dir));
  ASSERT_TRUE(net.Serve("inproc://prov", svc).ok());

  ProviderClient client(&net);
  ASSERT_TRUE(
      client.WritePage("inproc://prov", PageId{1, 1}, Slice("abcd")).ok());
  ASSERT_TRUE(
      client.WritePage("inproc://prov", PageId{1, 2}, Slice("efgh")).ok());
  ASSERT_TRUE(client.DeletePage("inproc://prov", PageId{1, 1}).ok());

  auto stats = client.FetchStats("inproc://prov");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  PageStoreStats direct = svc->store().GetStats();
  EXPECT_EQ(stats->pages, direct.pages);
  EXPECT_EQ(stats->bytes, direct.bytes);
  EXPECT_EQ(stats->writes, direct.writes);
  EXPECT_EQ(stats->reads, direct.reads);
  EXPECT_EQ(stats->deletes, direct.deletes);
  EXPECT_EQ(stats->segments, direct.segments);
  EXPECT_EQ(stats->dead_bytes, direct.dead_bytes);
  EXPECT_EQ(stats->syncs, direct.syncs);
  EXPECT_EQ(stats->compactions, direct.compactions);
  EXPECT_EQ(stats->io_submissions, direct.io_submissions);
  EXPECT_EQ(stats->io_sqes, direct.io_sqes);
  EXPECT_EQ(stats->bytes_written, direct.bytes_written);
  EXPECT_EQ(stats->read_syscalls, direct.read_syscalls);
  EXPECT_EQ(stats->recovery_us, direct.recovery_us);
  // The log backend actually populates the extension fields.
  EXPECT_EQ(stats->deletes, 1u);
  EXPECT_GE(stats->segments, 1u);
  EXPECT_GT(stats->dead_bytes, 0u);
  EXPECT_GE(stats->syncs, 1u);
  EXPECT_GT(stats->io_submissions, 0u);
  EXPECT_GT(stats->bytes_written, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace blobseer::provider
