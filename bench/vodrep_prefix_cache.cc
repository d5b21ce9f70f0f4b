// Full-file replicas vs an edge prefix-cache tier at equal storage budget
// (the edge cache tier, DESIGN.md §9).
//
// Two ways to spend the same bytes:
//   (a) full-replica — replicate whole videos across the origin cluster at
//       degree d (the paper's Section 4 layout: zipf replication + SLF);
//   (b) prefix-cache — keep the origin at degree 1 and spend the replica
//       surplus, byte for byte, on an edge tier that caches each video's
//       prefix (LRU and LFU eviction are both measured).
//
// Both configurations replay the same Poisson/Zipf traces through the
// same simulate(); every layout passes a LayoutAuditor check before it is
// simulated, and every run's rejected_by_reason breakdown is asserted to
// sum exactly to its rejected count (the cache path adds the
// cache_miss_origin_busy reason).  The last stdout line is a JSON record.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <vector>

#include "src/audit/audit.h"
#include "src/core/pipeline.h"
#include "src/exp/scenario.h"
#include "src/obs/json_lite.h"
#include "src/sim/prefix_cache.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/cli.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace {

using namespace vodrep;

void require_reasons_reconcile(const SimResult& result) {
  std::size_t sum = 0;
  for (std::size_t count : result.rejected_by_reason) sum += count;
  require(sum == result.rejected,
          "vodrep_prefix_cache: rejected_by_reason does not sum to rejected");
}

void require_audited(const Layout& layout, std::size_t num_servers,
                     std::size_t capacity_per_server, const char* what) {
  LayoutAuditor::Limits limits;
  limits.num_servers = num_servers;
  limits.capacity_per_server = capacity_per_server;
  const ReplicationPlan plan = layout.implied_plan();
  const AuditReport report = LayoutAuditor(limits).audit(layout, &plan);
  require(report.ok(), [&] {
    return std::string("vodrep_prefix_cache: ") + what +
           " layout failed audit: " + report.summary();
  });
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags("vodrep_prefix_cache",
                 "Full replicas vs edge prefix cache at equal storage");
  flags.add_int("videos", 300, "catalogue size M");
  flags.add_int("servers", 8, "origin cluster size N");
  flags.add_double("degree", 1.2,
                   "full-replica configuration's replication degree; the "
                   "cache configuration gets the surplus bytes as edge "
                   "capacity");
  flags.add_double("theta", 0.75, "Zipf skew");
  flags.add_double("prefix-fraction", 0.25,
                   "stored prefix fraction per video, in (0, 1]");
  flags.add_int("runs", 5, "trace realizations per data point");
  flags.add_int("points", 5, "arrival-rate sweep points");
  flags.add_bool("quick", false, "small fast configuration (CI smoke mode)");
  try {
    if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
    PaperScenario scenario;
    scenario.num_videos = static_cast<std::size_t>(flags.get_int("videos"));
    scenario.num_servers = static_cast<std::size_t>(flags.get_int("servers"));
    scenario.theta = flags.get_double("theta");
    scenario.replication_degree = flags.get_double("degree");
    std::size_t runs = static_cast<std::size_t>(flags.get_int("runs"));
    std::size_t points = static_cast<std::size_t>(flags.get_int("points"));
    if (flags.get_bool("quick")) {
      scenario.num_videos = 100;
      runs = 2;
      points = 3;
    }
    const std::size_t m = scenario.num_videos;
    const std::size_t n = scenario.num_servers;
    const std::size_t budget = scenario.replica_budget();
    require(budget > m,
            "--degree must exceed 1 so the cache configuration has a "
            "storage surplus to spend");

    // (a) full-replica layout at degree d; (b) degree-1 origin layout.
    const Layout full_layout =
        provision(scenario.problem(), *make_replication_policy("zipf"),
                  *make_placement_policy("slf"), budget)
            .layout;
    const Layout origin_layout =
        provision(scenario.problem(), *make_replication_policy("uniform"),
                  *make_placement_policy("slf"), m)
            .layout;
    require_audited(full_layout, n, (budget + n - 1) / n, "full-replica");
    require_audited(origin_layout, n, (m + n - 1) / n, "origin");

    // Equal total storage: the replica surplus becomes edge capacity.
    const double replica_bytes = units::video_bytes(
        units::minutes(scenario.duration_minutes),
        units::mbps(scenario.bitrate_mbps));
    const double cache_bytes =
        static_cast<double>(budget - m) * replica_bytes;

    const SimConfig config = scenario.sim_config();
    PrefixCacheOptions lru_options;
    lru_options.eviction = CacheEvictionPolicy::kLru;
    lru_options.capacity_bytes = cache_bytes;
    lru_options.uniform_prefix_fraction = flags.get_double("prefix-fraction");
    PrefixCacheOptions lfu_options = lru_options;
    lfu_options.eviction = CacheEvictionPolicy::kLfu;

    Table table({"arrival_rate_per_min", "reject%_full", "reject%_lru",
                 "reject%_lfu", "hit%_lru", "hit%_lfu"});
    table.set_precision(2);
    double full_rejects = 0.0, lru_rejects = 0.0, lfu_rejects = 0.0;
    double total_requests = 0.0;
    std::uint64_t lru_hits = 0, lru_misses = 0;
    std::uint64_t lfu_hits = 0, lfu_misses = 0;
    std::uint64_t cache_events = 0;
    double cache_seconds = 0.0;
    for (double rate : arrival_rate_sweep(scenario, points, 0.6, 1.2)) {
      double row_requests = 0.0;
      double row_full = 0.0, row_lru = 0.0, row_lfu = 0.0;
      double row_lru_hit = 0.0, row_lfu_hit = 0.0;
      for (std::size_t run = 0; run < runs; ++run) {
        Rng rng(2002 + 7919 * run);
        const RequestTrace trace =
            generate_trace(rng, scenario.trace_spec(rate));

        const SimResult full =
            simulate(ReplicatedPolicy(full_layout, config), trace);
        require_reasons_reconcile(full);

        SimResult cached[2];
        const PrefixCacheOptions* options[2] = {&lru_options, &lfu_options};
        for (int which = 0; which < 2; ++which) {
          ReplicatedPolicy policy(origin_layout, config, *options[which]);
          const auto start = std::chrono::steady_clock::now();
          cached[which] = simulate(policy, trace);
          const auto stop = std::chrono::steady_clock::now();
          cache_seconds +=
              std::chrono::duration<double>(stop - start).count();
          require_reasons_reconcile(cached[which]);
          cache_events +=
              cached[which].cache_hits + cached[which].cache_misses;
        }

        row_requests += static_cast<double>(trace.size());
        row_full += static_cast<double>(full.rejected);
        row_lru += static_cast<double>(cached[0].rejected);
        row_lfu += static_cast<double>(cached[1].rejected);
        row_lru_hit += cached[0].cache_hit_ratio();
        row_lfu_hit += cached[1].cache_hit_ratio();
        lru_hits += cached[0].cache_hits;
        lru_misses += cached[0].cache_misses;
        lfu_hits += cached[1].cache_hits;
        lfu_misses += cached[1].cache_misses;
      }
      const double denom = row_requests > 0.0 ? row_requests : 1.0;
      table.add_row({rate, 100.0 * row_full / denom, 100.0 * row_lru / denom,
                     100.0 * row_lfu / denom,
                     100.0 * row_lru_hit / static_cast<double>(runs),
                     100.0 * row_lfu_hit / static_cast<double>(runs)});
      full_rejects += row_full;
      lru_rejects += row_lru;
      lfu_rejects += row_lfu;
      total_requests += row_requests;
    }
    std::cout << "-- theta = " << scenario.theta << ", degree "
              << scenario.replication_degree << " full-replica vs degree-1 "
              << "origin + " << units::to_gigabytes(cache_bytes)
              << " GB edge prefix cache (fraction "
              << flags.get_double("prefix-fraction") << ") --\n";
    table.print(std::cout);
    std::cout << "\nBoth configurations spend the same bytes; the cache "
                 "configuration trades\nreplica diversity for prefix "
                 "locality, so it wins where the working set\nfits the edge "
                 "and loses once misses force full origin streams.\n\n";

    using obs::JsonValue;
    JsonValue record = JsonValue::object();
    record.set("name", JsonValue::string("vodrep_prefix_cache"));
    record.set("videos", JsonValue::integer_u64(m));
    record.set("servers", JsonValue::integer_u64(n));
    record.set("degree", JsonValue::number(scenario.replication_degree));
    record.set("theta", JsonValue::number(scenario.theta));
    record.set("prefix_fraction",
               JsonValue::number(flags.get_double("prefix-fraction")));
    record.set("cache_gb",
               JsonValue::number(units::to_gigabytes(cache_bytes)));
    record.set("runs", JsonValue::integer_u64(runs));
    record.set("cache_events_per_sec",
               JsonValue::number(cache_seconds > 0.0
                                     ? static_cast<double>(cache_events) /
                                           cache_seconds
                                     : 0.0));
    const double denom = total_requests > 0.0 ? total_requests : 1.0;
    record.set("full_reject_rate", JsonValue::number(full_rejects / denom));
    record.set("lru_reject_rate", JsonValue::number(lru_rejects / denom));
    record.set("lfu_reject_rate", JsonValue::number(lfu_rejects / denom));
    const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    };
    record.set("lru_hit_ratio", JsonValue::number(ratio(lru_hits, lru_misses)));
    record.set("lfu_hit_ratio", JsonValue::number(ratio(lfu_hits, lfu_misses)));
    record.write(std::cout);
    std::cout << "\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
