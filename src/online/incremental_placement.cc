#include "src/online/incremental_placement.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/util/error.h"

namespace vodrep {
namespace {

struct Pending {
  std::size_t video;
  double weight;
};

/// Repair move for a cornered addition of `video`: find a server s_o that
/// does not host `video` and a replica of some other video y on s_o that can
/// relocate to a server with free storage; perform the relocation and return
/// s_o (now with a free slot for `video`).  Returns num_servers when no such
/// swap exists.
std::size_t swap_in(HostLists& lists, std::vector<double>& loads,
                    std::vector<std::size_t>& stored,
                    const std::vector<double>& weight, std::size_t video,
                    std::size_t num_servers,
                    std::size_t capacity_per_server) {
  const auto hosts = [&](std::size_t server, std::size_t v) {
    const auto& servers = lists[v];
    return std::find(servers.begin(), servers.end(), server) != servers.end();
  };
  for (std::size_t s_o = 0; s_o < num_servers; ++s_o) {
    if (hosts(s_o, video)) continue;
    for (std::size_t y = 0; y < lists.size(); ++y) {
      if (y == video || !hosts(s_o, y)) continue;
      for (std::size_t s_f = 0; s_f < num_servers; ++s_f) {
        if (s_f == s_o || stored[s_f] >= capacity_per_server ||
            hosts(s_f, y)) {
          continue;
        }
        auto& y_servers = lists[y];
        y_servers.erase(std::find(y_servers.begin(), y_servers.end(), s_o));
        y_servers.push_back(s_f);
        loads[s_o] -= weight[y];
        loads[s_f] += weight[y];
        --stored[s_o];
        ++stored[s_f];
        return s_o;
      }
    }
  }
  return num_servers;
}

}  // namespace

Layout incremental_place(const Layout& previous,
                         const ReplicationPlan& new_plan,
                         const std::vector<double>& popularity_by_id,
                         std::size_t num_servers,
                         std::size_t capacity_per_server) {
  const std::size_t m = new_plan.replicas.size();
  require(previous.num_videos() == m,
          "incremental_place: layout/plan video count mismatch");
  require(popularity_by_id.size() == m,
          "incremental_place: popularity size mismatch");
  require(num_servers >= 1, "incremental_place: need a server");
  double popularity_sum = 0.0;
  for (double p : popularity_by_id) {
    require(p > 0.0, "incremental_place: popularities must be positive");
    popularity_sum += p;
  }
  std::size_t total = 0;
  for (std::size_t video = 0; video < m; ++video) {
    require(new_plan.replicas[video] >= 1 &&
                new_plan.replicas[video] <= num_servers,
            "incremental_place: plan violates Eq. 7");
    total += new_plan.replicas[video];
  }
  if (total > num_servers * capacity_per_server) {
    throw InfeasibleError("incremental_place: plan does not fit the cluster");
  }

  // Per-replica weights under the NEW plan.
  std::vector<double> weight(m);
  for (std::size_t video = 0; video < m; ++video) {
    weight[video] = popularity_by_id[video] / popularity_sum /
                    static_cast<double>(new_plan.replicas[video]);
  }

  // Phase 1: keep all previous replicas (deduplicated, in range).  The
  // phases edit per-video host lists, packed into a Layout at the end.
  HostLists lists(m);
  std::vector<double> loads(num_servers, 0.0);
  std::vector<std::size_t> stored(num_servers, 0);
  for (std::size_t video = 0; video < m; ++video) {
    for (const std::size_t server : previous.hosts(video)) {
      require(server < num_servers,
              "incremental_place: previous layout server out of range");
      auto& servers = lists[video];
      if (std::find(servers.begin(), servers.end(), server) == servers.end()) {
        servers.push_back(server);
        loads[server] += weight[video];
        ++stored[server];
      }
    }
  }

  auto drop_replica = [&](std::size_t video, std::size_t server) {
    auto& servers = lists[video];
    servers.erase(std::find(servers.begin(), servers.end(), server));
    loads[server] -= weight[video];
    --stored[server];
  };

  // Phase 2: videos that lost replicas shed them from their most-loaded
  // hosts (relieving the hottest links first).
  for (std::size_t video = 0; video < m; ++video) {
    while (lists[video].size() > new_plan.replicas[video]) {
      const auto& servers = lists[video];
      const std::size_t victim = *std::max_element(
          servers.begin(), servers.end(),
          [&](std::size_t a, std::size_t b) { return loads[a] < loads[b]; });
      drop_replica(video, victim);
    }
  }

  // Additions demanded by the new plan.
  std::vector<Pending> additions;
  for (std::size_t video = 0; video < m; ++video) {
    for (std::size_t k = lists[video].size();
         k < new_plan.replicas[video]; ++k) {
      additions.push_back(Pending{video, weight[video]});
    }
  }

  // Phase 3: relieve servers over their storage capacity by moving their
  // lightest replicas elsewhere (each move is one copy, same as an add).
  for (std::size_t server = 0; server < num_servers; ++server) {
    while (stored[server] > capacity_per_server) {
      std::size_t lightest = m;
      for (std::size_t video = 0; video < m; ++video) {
        const auto& servers = lists[video];
        if (std::find(servers.begin(), servers.end(), server) ==
            servers.end()) {
          continue;
        }
        if (lightest == m || weight[video] < weight[lightest]) {
          lightest = video;
        }
      }
      require(lightest < m, "incremental_place: over-full server holds nothing");
      drop_replica(lightest, server);
      additions.push_back(Pending{lightest, weight[lightest]});
    }
  }

  // Phase 4: place additions heaviest-first on the least-loaded feasible
  // server.
  std::stable_sort(additions.begin(), additions.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.weight > b.weight;
                   });
  for (const Pending& addition : additions) {
    const auto& hosting = lists[addition.video];
    std::size_t best = num_servers;
    double best_load = std::numeric_limits<double>::infinity();
    for (std::size_t server = 0; server < num_servers; ++server) {
      if (stored[server] >= capacity_per_server) continue;
      if (std::find(hosting.begin(), hosting.end(), server) != hosting.end()) {
        continue;
      }
      if (loads[server] < best_load) {
        best_load = loads[server];
        best = server;
      }
    }
    if (best == num_servers) {
      // Cornered: every server with free storage already hosts the video.
      // Repair by a three-way swap — relocate some other video's replica
      // from a non-hosting (full) server onto a free slot, then take its
      // place.  The relocation is one extra copy, captured automatically by
      // the migration diff.
      best = swap_in(lists, loads, stored, weight, addition.video,
                     num_servers, capacity_per_server);
      if (best == num_servers) {
        throw InfeasibleError(
            "incremental_place: no feasible server for an added replica");
      }
    }
    lists[addition.video].push_back(best);
    loads[best] += addition.weight;
    ++stored[best];
  }
  return Layout(lists);
}

}  // namespace vodrep
