#include "src/core/scalable.h"

#include <algorithm>

#include "src/util/error.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

namespace vodrep {

double BitrateLadder::lowest() const {
  require(!rates_bps.empty(), "BitrateLadder: empty ladder");
  return rates_bps.front();
}

double BitrateLadder::highest() const {
  require(!rates_bps.empty(), "BitrateLadder: empty ladder");
  return rates_bps.back();
}

void BitrateLadder::validate() const {
  require(!rates_bps.empty(), "BitrateLadder: empty ladder");
  double prev = 0.0;
  for (double r : rates_bps) {
    require(r > prev, "BitrateLadder: rates must be positive and ascending");
    prev = r;
  }
}

void ScalableProblem::validate() const {
  require(cluster.num_servers >= 1, "ScalableProblem: need a server");
  require(videos.count() >= 1, "ScalableProblem: need a video");
  require(videos.duration_sec > 0.0, "ScalableProblem: bad duration");
  require(is_popularity_vector(videos.popularity),
          "ScalableProblem: invalid popularity vector");
  ladder.validate();
  require(expected_peak_requests >= 0.0,
          "ScalableProblem: negative peak request volume");
}

std::vector<std::size_t> ScalableSolution::replicas() const {
  std::vector<std::size_t> r;
  r.reserve(placement.size());
  for (const auto& servers : placement) r.push_back(servers.size());
  return r;
}

std::vector<double> ScalableSolution::bitrates(
    const BitrateLadder& ladder) const {
  std::vector<double> rates;
  rates.reserve(bitrate_index.size());
  for (std::size_t idx : bitrate_index) {
    require(idx < ladder.size(), "ScalableSolution: ladder index out of range");
    rates.push_back(ladder.rates_bps[idx]);
  }
  return rates;
}

ServerUsage compute_usage(const ScalableProblem& problem,
                          const ScalableSolution& solution) {
  const std::size_t n = problem.cluster.num_servers;
  require(solution.bitrate_index.size() == problem.videos.count() &&
              solution.placement.size() == problem.videos.count(),
          "compute_usage: solution/problem size mismatch");
  ServerUsage usage;
  usage.storage_bytes.assign(n, 0.0);
  usage.bandwidth_bps.assign(n, 0.0);
  for (std::size_t i = 0; i < solution.placement.size(); ++i) {
    const auto& servers = solution.placement[i];
    if (servers.empty()) continue;
    const double rate = problem.ladder.rates_bps[solution.bitrate_index[i]];
    const double bytes = units::video_bytes(problem.videos.duration_sec, rate);
    const double per_replica_requests =
        problem.expected_peak_requests * problem.videos.popularity[i] /
        static_cast<double>(servers.size());
    for (std::size_t s : servers) {
      require(s < n, "compute_usage: server index out of range");
      usage.storage_bytes[s] += bytes;
      usage.bandwidth_bps[s] += per_replica_requests * rate;
    }
  }
  return usage;
}

bool is_feasible(const ScalableProblem& problem,
                 const ScalableSolution& solution) {
  const std::size_t n = problem.cluster.num_servers;
  for (const auto& servers : solution.placement) {
    if (servers.empty() || servers.size() > n) return false;
    std::vector<std::size_t> sorted = servers;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return false;
    }
    if (sorted.back() >= n) return false;
  }
  const ServerUsage usage = compute_usage(problem, solution);
  // A hair of tolerance absorbs float accumulation; the constraints are on
  // physically continuous quantities.
  constexpr double kSlack = 1.0 + 1e-9;
  for (std::size_t s = 0; s < n; ++s) {
    if (usage.storage_bytes[s] >
        problem.cluster.storage_bytes_per_server * kSlack) {
      return false;
    }
    if (usage.bandwidth_bps[s] >
        problem.cluster.bandwidth_bps_per_server * kSlack) {
      return false;
    }
  }
  return true;
}

double solution_objective(const ScalableProblem& problem,
                          const ScalableSolution& solution) {
  const ServerUsage usage = compute_usage(problem, solution);
  return objective_value(solution.bitrates(problem.ladder),
                         solution.replicas(), usage.bandwidth_bps,
                         problem.cluster.num_servers, problem.weights);
}

ScalableSolution lowest_rate_round_robin(const ScalableProblem& problem) {
  problem.validate();
  ScalableSolution solution;
  const std::size_t m = problem.videos.count();
  solution.bitrate_index.assign(m, 0);
  solution.placement.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    solution.placement[i].push_back(i % problem.cluster.num_servers);
  }
  const ServerUsage usage = compute_usage(problem, solution);
  for (double bytes : usage.storage_bytes) {
    if (bytes > problem.cluster.storage_bytes_per_server) {
      throw InfeasibleError(
          "lowest_rate_round_robin: cluster storage cannot hold one "
          "lowest-rate replica of every video");
    }
  }
  return solution;
}

}  // namespace vodrep
