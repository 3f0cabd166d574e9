// A2 — ablation: page size sweep. Figure 2(a) only contrasts 64 KB and
// 256 KB; this bench sweeps psize across two orders of magnitude on the
// simulated cluster to expose the trade-off the paper's choice sits on:
// small pages inflate per-page overhead (more leaves, more provider
// round trips), huge pages reduce parallelism and inflate unaligned-write
// amplification.
#include <cinttypes>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/sim_cluster.h"

using namespace blobseer;

namespace {

struct Point {
  double append_mbps = 0;
  double read_mbps = 0;
  uint64_t meta_keys = 0;
};

Point RunPsize(uint64_t psize, uint64_t total_bytes) {
  simnet::SimScheduler sched;
  Point p;
  sched.Run([&] {
    core::SimClusterOptions opts;
    opts.num_provider_nodes = 32;
    opts.num_client_nodes = 1;
    core::SimCluster cluster(&sched, opts);
    sched.SetCurrentNode(cluster.client_node(0));
    auto client = cluster.NewClient();
    auto id = client->Create(psize);
    if (!id.ok()) return;

    const uint64_t piece = 4 << 20;
    std::string chunk(piece, 'p');
    double t0 = sched.Now();
    Version last = 0;
    for (uint64_t sent = 0; sent < total_bytes; sent += piece) {
      auto v = client->Append(*id, Slice(chunk));
      if (!v.ok()) return;
      last = *v;
    }
    p.append_mbps = static_cast<double>(total_bytes) / (sched.Now() - t0);
    if (!client->Sync(*id, last).ok()) return;

    t0 = sched.Now();
    std::string out;
    if (!client->Read(*id, last, 0, total_bytes, &out).ok()) return;
    p.read_mbps = static_cast<double>(total_bytes) / (sched.Now() - t0);
    uint64_t bytes = 0;
    (void)client->dht().TotalStats(&p.meta_keys, &bytes);
  });
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  uint64_t total =
      bench::FlagU64(argc, argv, "total_mb", quick ? 8 : 32) * 1024 * 1024;

  printf("== Ablation A2: page size sweep (simulated cluster, 32 provider "
         "nodes) ==\n\n");
  bench::Table table({"psize", "append MB/s", "read MB/s", "meta nodes"});
  for (uint64_t kb : {16, 64, 256, 1024}) {
    Point p = RunPsize(kb * 1024, total);
    table.AddRow({StrFormat("%" PRIu64 " KB", kb),
                  StrFormat("%.1f", p.append_mbps),
                  StrFormat("%.1f", p.read_mbps), std::to_string(p.meta_keys)});
  }
  table.Print();
  printf("\nshape check: throughput should rise with page size (fewer "
         "per-page round trips)\nwhile metadata node count falls roughly "
         "linearly in 1/psize.\n");
  return 0;
}
