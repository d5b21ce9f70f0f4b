// vodrep_trace — workload trace generation and inspection.
//
//   # one peak period of the paper's workload, saved for replay
//   vodrep_trace --videos=300 --theta=0.75 --lambda=38 --output=peak.trace
//
//   # summarize any saved trace
//   vodrep_trace --info=peak.trace
//
// Pairs with vodrep_plan: generate a trace here, then
// `vodrep_plan --inspect=layout.txt --evaluate=peak.trace`.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "src/util/cli.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace {

using namespace vodrep;

int run(int argc, char** argv) {
  CliFlags flags("vodrep_trace", "Generate or inspect workload traces");
  flags.add_int("videos", 300, "catalogue size M");
  flags.add_double("theta", 0.75, "Zipf skew");
  flags.add_double("lambda", 38.0, "arrival rate, requests/minute");
  flags.add_double("duration-min", 90.0, "peak-period length");
  flags.add_double("completion", 1.0,
                   "probability a viewer watches the whole video");
  flags.add_int("seed", 1, "generation seed");
  flags.add_string("output", "", "write the generated trace here");
  flags.add_string("info", "", "summarize an existing trace file");
  if (!flags.parse(argc, argv)) return EXIT_SUCCESS;

  if (!flags.get_string("info").empty()) {
    std::ifstream in(flags.get_string("info"));
    require(static_cast<bool>(in), [&] {
      return "cannot open trace file: " + flags.get_string("info");
    });
    const RequestTrace trace = load_trace(in);
    require(trace.is_well_formed(), "trace file is malformed");
    std::cout << "== " << flags.get_string("info") << " ==\n"
              << "requests: " << trace.size() << " over "
              << units::to_minutes(trace.horizon) << " minutes ("
              << units::to_per_minute(
                     trace.horizon > 0.0
                         ? static_cast<double>(trace.size()) / trace.horizon
                         : 0.0)
              << " req/min)\n";
    OnlineStats watch;
    std::size_t max_video = 0;
    for (const Request& r : trace.requests) {
      watch.add(r.watch_fraction);
      max_video = std::max(max_video, r.video);
    }
    if (!trace.empty()) {
      std::cout << "video ids: 0.." << max_video
                << ", mean watch fraction: " << watch.mean() << "\n";
      const auto counts = trace.video_counts(max_video + 1);
      Table top({"video", "requests", "share%"});
      top.set_precision(2);
      std::vector<std::size_t> order(counts.size());
      for (std::size_t i = 0; i < counts.size(); ++i) order[i] = i;
      const auto top_n =
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(10, order.size()));
      std::partial_sort(order.begin(), order.begin() + top_n, order.end(),
                        [&](std::size_t a, std::size_t b) {
                          return counts[a] > counts[b];
                        });
      for (std::size_t k = 0; k < std::min<std::size_t>(10, order.size());
           ++k) {
        top.add_row({static_cast<long long>(order[k]),
                     static_cast<long long>(counts[order[k]]),
                     100.0 * static_cast<double>(counts[order[k]]) /
                         static_cast<double>(trace.size())});
      }
      std::cout << "\ntop videos:\n";
      top.print(std::cout);
    }
    return EXIT_SUCCESS;
  }

  require(flags.get_int("videos") >= 1, "--videos must be >= 1");
  TraceSpec spec;
  spec.arrival_rate = units::per_minute(flags.get_double("lambda"));
  spec.horizon = units::minutes(flags.get_double("duration-min"));
  spec.popularity = zipf_popularity(
      static_cast<std::size_t>(flags.get_int("videos")),
      flags.get_double("theta"));
  spec.abandonment.completion_probability = flags.get_double("completion");
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const RequestTrace trace = generate_trace(rng, spec);
  std::cout << "generated " << trace.size() << " requests over "
            << flags.get_double("duration-min") << " minutes\n";
  const std::string output = flags.get_string("output");
  require(!output.empty(), "nothing to do: pass --output or --info");
  std::ofstream out(output);
  require(static_cast<bool>(out),
          [&] { return "cannot write trace file: " + output; });
  save_trace(out, trace);
  std::cout << "trace written to " << output << "\n";
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
}
