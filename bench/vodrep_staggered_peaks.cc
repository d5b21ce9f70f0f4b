// E20 / the paper's Section 3.1 same-peak assumption: "Because of the same
// peak period assumption, the video replication and placement is
// conservative as it places videos for the peak period."
//
// Two content classes share the cluster: a daytime catalogue and a
// prime-time catalogue, each with its own single-peak arrival profile over
// a six-hour evening.  The provisioning is the paper's (conservative,
// one-shot, combined popularity).  Comparing the aligned-peaks workload
// (the paper's worst case) against staggered peaks of the same total
// volume quantifies how much capacity the conservative assumption leaves
// idle — and how much hotter a staggered cluster can be driven before the
// same rejection level appears.
#include <cstdlib>
#include <iostream>

#include "src/core/pipeline.h"
#include "src/exp/scenario.h"
#include "src/online/provisioner.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/cli.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/units.h"
#include "src/workload/multiclass.h"
#include "src/workload/popularity.h"

namespace {

using namespace vodrep;

/// Builds the two-class spec.  Each class owns half the id space with a
/// Zipf(theta) distribution inside it; the peak windows are 90 minutes.
MulticlassSpec make_spec(std::size_t videos, double theta, double peak_rate,
                         double base_rate, bool staggered) {
  const std::size_t segments = 12;  // 6 hours in 30-minute segments
  MulticlassSpec spec;
  spec.segment_sec = units::minutes(30);
  const auto zipf = zipf_popularity(videos / 2, theta);

  ClassProfile daytime;
  daytime.popularity_by_id.assign(videos, 0.0);
  for (std::size_t i = 0; i < videos / 2; ++i) {
    daytime.popularity_by_id[i] = zipf[i];
  }
  ClassProfile prime;
  prime.popularity_by_id.assign(videos, 0.0);
  for (std::size_t i = 0; i < videos / 2; ++i) {
    prime.popularity_by_id[videos / 2 + i] = zipf[i];
  }
  // Aligned: both classes peak on segments [4, 7).  Staggered: daytime
  // peaks [2, 5), prime time [7, 10).
  if (staggered) {
    daytime.rate_per_segment =
        single_peak_profile(segments, 2, 5, base_rate, peak_rate);
    prime.rate_per_segment =
        single_peak_profile(segments, 7, 10, base_rate, peak_rate);
  } else {
    daytime.rate_per_segment =
        single_peak_profile(segments, 4, 7, base_rate, peak_rate);
    prime.rate_per_segment =
        single_peak_profile(segments, 4, 7, base_rate, peak_rate);
  }
  spec.classes = {daytime, prime};
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags("vodrep_staggered_peaks",
                 "How conservative is the same-peak-period assumption?");
  flags.add_int("videos", 300, "catalogue size M (split over two classes)");
  flags.add_double("theta", 0.75, "Zipf skew within each class");
  flags.add_double("degree", 1.2, "replication degree");
  flags.add_int("runs", 20, "workload realizations per data point");
  flags.add_bool("quick", false, "small fast configuration (CI smoke mode)");
  try {
    if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
    std::size_t videos = static_cast<std::size_t>(flags.get_int("videos"));
    std::size_t runs = static_cast<std::size_t>(flags.get_int("runs"));
    if (flags.get_bool("quick")) {
      videos = 100;
      runs = 5;
    }
    const double theta = flags.get_double("theta");

    // Provision the paper's way: combined popularity (both classes equally
    // likely overall), one-shot zipf+slf at the requested degree.
    PaperScenario scenario;
    scenario.num_videos = videos;
    scenario.theta = 0.0;  // placeholder; popularity built below
    scenario.replication_degree = flags.get_double("degree");
    std::vector<double> combined(videos, 0.0);
    {
      const auto zipf = zipf_popularity(videos / 2, theta);
      for (std::size_t i = 0; i < videos / 2; ++i) {
        combined[i] = 0.5 * zipf[i];
        combined[videos / 2 + i] = 0.5 * zipf[i];
      }
    }
    // The trace addresses videos by id (class A = first half, class B =
    // second half), so provision in id space.
    const auto replication = make_replication_policy("zipf");
    const auto placement = make_placement_policy("slf");
    const std::size_t budget = scenario.replica_budget();
    const std::size_t capacity =
        (budget + scenario.num_servers - 1) / scenario.num_servers;
    const Layout layout =
        provision_by_id(combined, *replication, *placement,
                        scenario.num_servers, budget, capacity)
            .layout;

    SimConfig config = scenario.sim_config();

    std::cout << "== Same-peak conservatism: aligned vs staggered class "
                 "peaks ==\n"
              << "two classes x " << videos / 2
              << " videos; 6-hour evening; 90-minute class peaks; degree "
              << scenario.replication_degree << "\n\n";
    Table table({"per_class_peak_req_min", "aligned_reject%",
                 "staggered_reject%"});
    table.set_precision(2);
    for (double peak : {12.0, 16.0, 20.0, 24.0, 28.0, 32.0}) {
      OnlineStats aligned_reject;
      OnlineStats staggered_reject;
      for (std::size_t run = 0; run < runs; ++run) {
        Rng rng(0x5746 ^ (0x9e3779b97f4a7c15ULL * (run + 1)));
        const MulticlassSpec aligned = make_spec(
            videos, theta, units::per_minute(peak), units::per_minute(2.0),
            /*staggered=*/false);
        const MulticlassSpec staggered = make_spec(
            videos, theta, units::per_minute(peak), units::per_minute(2.0),
            /*staggered=*/true);
        Rng rng2 = rng.split(1);
        auto replay = [&](const RequestTrace& trace) {
          return simulate(ReplicatedPolicy(layout, config), trace);
        };
        aligned_reject.add(
            replay(generate_multiclass_trace(rng, aligned)).rejection_rate());
        staggered_reject.add(
            replay(generate_multiclass_trace(rng2, staggered))
                .rejection_rate());
      }
      table.add_row({peak, 100.0 * aligned_reject.mean(),
                     100.0 * staggered_reject.mean()});
    }
    table.print(std::cout);
    std::cout << "\nAligned peaks (the provisioning assumption) saturate the "
                 "cluster at roughly\nhalf the per-class rate that staggered "
                 "peaks sustain: provisioning for the\nsame-peak worst case "
                 "is safe but leaves that factor of headroom idle when\n"
                 "peaks spread — the conservatism the paper acknowledges in "
                 "Section 3.1.\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
