// E15 / beyond the paper's homogeneity assumption: placement on a
// two-tier fleet.
//
// The paper's cluster is homogeneous; upgrades produce mixed fleets.  This
// harness provisions a catalogue onto 4 big + 4 small servers two ways —
// homogeneous SLF (blind to server speed) and bandwidth-weighted SLF (picks
// the server with the smallest utilization-normalized load) — and compares
// rejection rate and utilization imbalance across arrival rates.
#include <cstdlib>
#include <iostream>

#include "src/core/pipeline.h"
#include "src/hetero/hetero_cluster.h"
#include "src/hetero/hetero_placement.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/cli.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

int main(int argc, char** argv) {
  using namespace vodrep;
  CliFlags flags("vodrep_hetero_cluster",
                 "Weighted vs homogeneous SLF on a two-tier fleet");
  flags.add_int("videos", 300, "catalogue size M");
  flags.add_double("theta", 0.75, "Zipf skew");
  flags.add_double("degree", 1.4, "replication degree");
  flags.add_int("runs", 20, "workload realizations per data point");
  flags.add_int("points", 8, "arrival-rate sweep points");
  flags.add_bool("quick", false, "small fast configuration (CI smoke mode)");
  try {
    if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
    std::size_t m = static_cast<std::size_t>(flags.get_int("videos"));
    std::size_t runs = static_cast<std::size_t>(flags.get_int("runs"));
    std::size_t points = static_cast<std::size_t>(flags.get_int("points"));
    if (flags.get_bool("quick")) {
      m = 100;
      runs = 5;
      points = 5;
    }
    const double theta = flags.get_double("theta");
    const double degree = flags.get_double("degree");

    // Two tiers: 4 servers at 2.4 Gb/s, 4 at 1.2 Gb/s — same 14.4 Gb/s
    // aggregate as the paper's homogeneous cluster, so the saturation rate
    // stays 40 req/min for a 300-video catalogue.
    const std::size_t budget = static_cast<std::size_t>(
        degree * static_cast<double>(m));
    const double replica_bytes =
        units::video_bytes(units::minutes(90), units::mbps(4));
    const std::size_t big_slots = (budget + 11) / 12 * 2;  // 2:1 storage split
    const std::size_t small_slots = (budget + 11) / 12;
    const HeteroClusterSpec cluster = make_two_tier_cluster(
        4, units::gbps(2.4), static_cast<double>(big_slots) * replica_bytes,
        4, units::gbps(1.2), static_cast<double>(small_slots) * replica_bytes);

    const auto popularity = zipf_popularity(m, theta);
    const auto replication = make_replication_policy("zipf");
    const ReplicationPlan plan = replication->replicate(popularity, 8, budget);

    const std::vector<std::size_t> slots =
        cluster.replica_slots(units::minutes(90), units::mbps(4));
    const Layout weighted = weighted_greedy_place(plan, popularity,
                                                  cluster.bandwidth_bps, slots);
    // Blind baseline: the same greedy placement but pretending all links are
    // equal (it still respects the true per-server storage), isolating the
    // value of bandwidth awareness.
    const Layout blind = weighted_greedy_place(
        plan, popularity, std::vector<double>(8, units::gbps(1.8)), slots);

    SimConfig config;
    config.num_servers = 8;
    config.bandwidth_bps_per_server = units::gbps(1.8);  // fallback mean
    config.per_server_bandwidth_bps = cluster.bandwidth_bps;
    config.stream_bitrate_bps = units::mbps(4);
    config.video_duration_sec = units::minutes(90);

    const double saturation =
        cluster.total_bandwidth_bps() / units::mbps(4) / 90.0;
    std::cout << "== Two-tier fleet: 4x2.4 Gb/s + 4x1.2 Gb/s (saturation "
              << saturation << " req/min) ==\n"
              << "M=" << m << ", theta=" << theta << ", degree=" << degree
              << "\n\n";

    Table table({"arrival_rate_per_min", "reject%_blind_slf",
                 "reject%_weighted_slf", "L_util%_blind", "L_util%_weighted"});
    table.set_precision(2);
    for (std::size_t k = 0; k < points; ++k) {
      const double rate = saturation * (0.3 + 0.8 * static_cast<double>(k) /
                                                  static_cast<double>(points - 1));
      OnlineStats blind_reject;
      OnlineStats weighted_reject;
      OnlineStats blind_l;
      OnlineStats weighted_l;
      for (std::size_t run = 0; run < runs; ++run) {
        Rng rng(0x4E7E20 ^ (0x9e3779b97f4a7c15ULL * (run + 1)));
        TraceSpec spec;
        spec.arrival_rate = units::per_minute(rate);
        spec.horizon = units::minutes(90);
        spec.popularity = popularity;
        const RequestTrace trace = generate_trace(rng, spec);
        auto replay = [&](const Layout& layout) {
          return simulate(ReplicatedPolicy(layout, config), trace);
        };
        const SimResult rb = replay(blind);
        const SimResult rw = replay(weighted);
        blind_reject.add(rb.rejection_rate());
        weighted_reject.add(rw.rejection_rate());
        blind_l.add(rb.mean_imbalance_eq2);
        weighted_l.add(rw.mean_imbalance_eq2);
      }
      table.add_row({rate, 100.0 * blind_reject.mean(),
                     100.0 * weighted_reject.mean(), 100.0 * blind_l.mean(),
                     100.0 * weighted_l.mean()});
    }
    table.print(std::cout);
    std::cout << "\nBlind SLF equalizes absolute loads, overdriving the "
                 "small tier; weighted SLF\nequalizes utilization and "
                 "defers rejections to the true pooled capacity.\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
