#include "src/sim/shard_plan.h"

#include "src/util/error.h"

namespace vodrep {

ShardPlan component_plan(UnionFind& uf, std::size_t num_servers,
                         const std::vector<std::size_t>& anchor_server_of_video,
                         const RequestTrace& trace, std::size_t num_shards) {
  require(num_shards >= 1, "shard plan: need at least one shard");
  ShardPlan plan;
  plan.num_shards = num_shards;

  std::vector<std::uint32_t> component_of_server(num_servers);
  std::vector<std::int64_t> component_of_root(num_servers, -1);
  std::vector<std::size_t> component_size;
  for (std::size_t s = 0; s < num_servers; ++s) {
    const std::size_t root = uf.find(s);
    if (component_of_root[root] < 0) {
      component_of_root[root] = static_cast<std::int64_t>(component_size.size());
      component_size.push_back(0);
    }
    component_of_server[s] =
        static_cast<std::uint32_t>(component_of_root[root]);
    ++component_size[component_of_server[s]];
  }

  std::vector<std::size_t> shard_load(num_shards, 0);
  std::vector<std::uint32_t> shard_of_component(component_size.size());
  for (std::size_t c = 0; c < component_size.size(); ++c) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < num_shards; ++s) {
      if (shard_load[s] < shard_load[best]) best = s;
    }
    shard_of_component[c] = static_cast<std::uint32_t>(best);
    shard_load[best] += component_size[c];
  }

  plan.shard_of_server.resize(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    plan.shard_of_server[s] = shard_of_component[component_of_server[s]];
  }

  plan.sub_traces.resize(num_shards);
  for (RequestTrace& sub : plan.sub_traces) sub.horizon = trace.horizon;
  plan.shard_of_request.reserve(trace.size());
  for (const Request& request : trace.requests) {
    require(request.video < anchor_server_of_video.size(),
            "shard plan: request video out of range");
    const std::uint32_t shard =
        plan.shard_of_server[anchor_server_of_video[request.video]];
    plan.shard_of_request.push_back(shard);
    plan.sub_traces[shard].requests.push_back(request);
  }
  return plan;
}

void require_shardable_redirect(RedirectMode redirect, std::size_t num_shards) {
  require(num_shards >= 1, "shard plan: need at least one shard");
  require(redirect != RedirectMode::kBackboneProxy || num_shards == 1,
          "sharded simulation: RedirectMode::kBackboneProxy proxies streams "
          "through arbitrary non-holders under a shared backbone budget, "
          "coupling every server — run with --sim-shards 1");
}

}  // namespace vodrep
