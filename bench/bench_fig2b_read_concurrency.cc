// E2 — Figure 2(b): "Read throughput under concurrency".
//
// Paper setup (section 5): 175 nodes; version manager and provider manager
// on two dedicated nodes; a data provider and a metadata provider
// co-deployed on the remaining 173; a blob is appended until it is large;
// then 1 / 100 / 175 concurrent readers — *co-deployed on the provider
// nodes* — each read a distinct 64 MB chunk (psize = 64 KB) and the average
// per-reader bandwidth is reported.
//
// Expected shape (paper): 60 MB/s for one reader, degrading only mildly to
// 49 MB/s at 175 concurrent readers ("very good scalability").
//
// The blob and chunk sizes scale down with --chunk_mb to keep simulation
// time reasonable; the shape is insensitive to the scale because both the
// per-reader ceiling (client pipeline) and the aggregate ceiling (provider
// service capacity) scale with it.
#include <cinttypes>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/sim_cluster.h"

using namespace blobseer;

namespace {

struct Outcome {
  double avg_mbps = 0;
  double min_mbps = 0;
  double max_mbps = 0;
};

Outcome RunReaders(size_t provider_nodes, size_t readers, uint64_t psize,
                   uint64_t chunk_bytes, double provider_cpu_us) {
  simnet::SimScheduler sched;
  Outcome out;
  sched.Run([&] {
    core::SimClusterOptions opts;
    opts.num_provider_nodes = provider_nodes;
    opts.num_client_nodes = 1;  // the writer that pre-populates the blob
    opts.provider_cpu_us = provider_cpu_us;
    core::SimCluster cluster(&sched, opts);
    sched.SetCurrentNode(cluster.client_node(0));

    auto writer = cluster.NewClient();
    auto id = writer->Create(psize);
    if (!id.ok()) return;

    // Pre-populate: `readers` distinct chunks (append in 8 MB pieces to
    // bound per-op buffer sizes).
    uint64_t total = chunk_bytes * readers;
    std::string piece(std::min<uint64_t>(total, 8 << 20), 'd');
    uint64_t appended = 0;
    Version last = 0;
    while (appended < total) {
      uint64_t n = std::min<uint64_t>(piece.size(), total - appended);
      auto v = writer->Append(*id, Slice(piece.data(), n));
      if (!v.ok()) {
        fprintf(stderr, "prepopulate failed: %s\n",
                v.status().ToString().c_str());
        return;
      }
      last = *v;
      appended += n;
    }
    if (!writer->Sync(*id, last).ok()) return;

    // Readers co-deployed on provider nodes (paper: "deployed on nodes
    // that already run a data and metadata provider").
    std::vector<double> mbps(readers, 0.0);
    std::vector<simnet::SimScheduler::TaskId> tasks;
    for (size_t r = 0; r < readers; r++) {
      tasks.push_back(sched.Spawn([&, r] {
        sched.SetCurrentNode(
            cluster.provider_node(r % cluster.num_provider_nodes()));
        auto reader = cluster.NewClient();
        double t0 = sched.Now();
        std::string buf;
        Status s = reader->Read(*id, last, r * chunk_bytes, chunk_bytes, &buf);
        if (!s.ok()) {
          fprintf(stderr, "read %zu failed: %s\n", r, s.ToString().c_str());
          return;
        }
        mbps[r] = static_cast<double>(chunk_bytes) / (sched.Now() - t0);
      }));
    }
    for (auto t : tasks) sched.Join(t);

    out.min_mbps = 1e18;
    for (double m : mbps) {
      out.avg_mbps += m;
      out.min_mbps = std::min(out.min_mbps, m);
      out.max_mbps = std::max(out.max_mbps, m);
    }
    out.avg_mbps /= static_cast<double>(readers);
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  uint64_t psize = bench::FlagU64(argc, argv, "psize_kb", 64) * 1024;
  uint64_t chunk =
      bench::FlagU64(argc, argv, "chunk_mb", quick ? 2 : 8) * 1024 * 1024;
  size_t provider_nodes =
      bench::FlagU64(argc, argv, "providers", quick ? 16 : 173);
  double provider_cpu = bench::FlagDouble(argc, argv, "provider_cpu_us", 1300);

  printf("== Figure 2(b): read throughput under concurrency ==\n");
  printf("   (%zu co-deployed data+meta provider nodes; readers co-deployed "
         "on provider nodes;\n    each reader reads a distinct %" PRIu64
         " MB chunk, psize %" PRIu64 " KB)\n\n",
         provider_nodes, chunk >> 20, psize >> 10);

  bench::Table table({"concurrent readers", "avg MB/s per reader",
                      "min MB/s", "max MB/s", "aggregate MB/s"});
  std::vector<size_t> reader_counts =
      quick ? std::vector<size_t>{1, 8, 16} : std::vector<size_t>{1, 100, 175};
  std::vector<double> avgs;
  for (size_t n : reader_counts) {
    Outcome o = RunReaders(provider_nodes, n, psize, chunk, provider_cpu);
    avgs.push_back(o.avg_mbps);
    table.AddRow({std::to_string(n), StrFormat("%.1f", o.avg_mbps),
                  StrFormat("%.1f", o.min_mbps), StrFormat("%.1f", o.max_mbps),
                  StrFormat("%.1f", o.avg_mbps * n)});
  }
  table.Print();

  const size_t max_readers = reader_counts.back();
  printf("\nshape checks (paper: 60 MB/s at 1 reader -> 49 MB/s at 175):\n");
  printf("  degradation 1 -> %zu readers: %.1f%% (paper: ~18%%)\n",
         max_readers, 100.0 * (avgs.front() - avgs.back()) / avgs.front());
  printf("  aggregate bandwidth scales from %.0f MB/s to %.0f MB/s\n",
         avgs.front(), avgs.back() * static_cast<double>(max_readers));
  return 0;
}
