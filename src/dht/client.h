// Client view of the distributed metadata store: placement + replication
// over a set of DHT node endpoints.
#ifndef BLOBSEER_DHT_CLIENT_H_
#define BLOBSEER_DHT_CLIENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/future.h"
#include "dht/messages.h"
#include "dht/placement.h"
#include "rpc/channel_pool.h"
#include "rpc/transport.h"

namespace blobseer::dht {

struct DhtClientOptions {
  /// How many replicas each key is written to (read falls back in order).
  size_t replication = 1;
  /// Channels opened per endpoint for parallel requests.
  size_t channels_per_endpoint = 4;
  /// Placement scheme: "static" (paper) or "ring".
  std::string placement = "static";
};

class DhtClient {
 public:
  /// `nodes` lists the DHT endpoints; placement is by index, so all clients
  /// must use the same ordered list (the provider manager distributes it).
  DhtClient(rpc::Transport* transport, std::vector<std::string> nodes,
            DhtClientOptions options = {});

  Status Put(Slice key, Slice value);
  Status Get(Slice key, std::string* value);
  Status Delete(Slice key);

  /// Single-key compare-and-swap, linearized on the key's *first* placement
  /// replica (every client derives the same one from the shared node list);
  /// on success the new value is propagated to the remaining replicas with
  /// plain puts. OK with `*applied == false` means the expectation did not
  /// hold — `*current` then carries the conflicting stored bytes (empty and
  /// `*applied == false` with a missing key unless `expect_absent`). Pass
  /// `expect_absent` to create-if-absent (the `expected` bytes are ignored).
  Status Cas(Slice key, Slice expected, Slice value, bool expect_absent,
             bool* applied, std::string* current);

  /// Async variants with the same replica semantics: PutAsync resolves OK
  /// once at least one replica accepted (replicas written in parallel);
  /// GetAsync falls back across replicas in placement order; DeleteAsync
  /// and CasAsync mirror their sync forms.
  Future<Unit> PutAsync(Slice key, Slice value);
  Future<std::string> GetAsync(Slice key);
  Future<Unit> DeleteAsync(Slice key);
  Future<CasResponse> CasAsync(Slice key, Slice expected, Slice value,
                               bool expect_absent);

  /// Batched GetAsync: keys are grouped by their first placement replica
  /// and each node receives one kDhtMultiGet. A key the node does not hold,
  /// or whose node's RPC failed, falls back to its next replica in
  /// placement order (again one RPC per node per fallback round). Resolves
  /// to one result per key, in key order: the value, NotFound, or the last
  /// replica's error. A response whose counts disagree with its request is
  /// rejected as Corruption.
  Future<std::vector<Result<std::string>>> MultiGetAsync(
      std::vector<std::string> keys);

  /// Aggregate stats across all nodes.
  Status TotalStats(uint64_t* keys, uint64_t* bytes);

  size_t num_nodes() const { return nodes_.size(); }
  const DhtClientOptions& options() const { return options_; }

 private:
  struct MultiGetOp;

  rpc::Transport* transport_;
  std::vector<std::string> nodes_;
  DhtClientOptions options_;
  std::unique_ptr<Placement> placement_;
  rpc::ChannelPool pool_;
};

}  // namespace blobseer::dht

#endif  // BLOBSEER_DHT_CLIENT_H_
