// Typed client for data provider endpoints.
#ifndef BLOBSEER_PROVIDER_CLIENT_H_
#define BLOBSEER_PROVIDER_CLIENT_H_

#include <string>
#include <vector>

#include "common/future.h"
#include "common/result.h"
#include "common/types.h"
#include "provider/messages.h"
#include "provider/page_store.h"
#include "rpc/channel_pool.h"
#include "rpc/transport.h"

namespace blobseer::provider {

/// Stateless helper issuing page operations against arbitrary provider
/// addresses through a shared channel pool (thread-safe).
class ProviderClient {
 public:
  ProviderClient(rpc::Transport* transport, size_t channels_per_endpoint = 4);

  Status WritePage(const std::string& address, const PageId& pid, Slice data);
  Status ReadPage(const std::string& address, const PageId& pid,
                  uint64_t offset, uint64_t len, std::string* out);
  Status DeletePage(const std::string& address, const PageId& pid);
  Status Stats(const std::string& address, uint64_t* pages, uint64_t* bytes);
  /// Full store statistics, including the log-backend extension fields.
  Result<PageStoreStats> FetchStats(const std::string& address);

  /// Async variants used by the client pipeline's page fan-out.
  Future<Unit> WritePageAsync(const std::string& address, const PageId& pid,
                              Slice data);
  Future<std::string> ReadPageAsync(const std::string& address,
                                    const PageId& pid, uint64_t offset,
                                    uint64_t len);
  /// One kProviderRead carrying every item: resolves to one result per
  /// item, in order (the bytes, or that item's own error), or to the RPC's
  /// error. A response with the wrong item count is Corruption.
  /// ReadPage/ReadPageAsync are its one-item forms.
  Future<std::vector<Result<std::string>>> ReadPagesAsync(
      const std::string& address, std::vector<ReadItem> items);
  Future<Unit> DeletePageAsync(const std::string& address, const PageId& pid);

 private:
  rpc::ChannelPool pool_;
};

}  // namespace blobseer::provider

#endif  // BLOBSEER_PROVIDER_CLIENT_H_
