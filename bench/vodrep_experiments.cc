// Prints the experiment catalogue (src/exp/experiments.h): every table of
// EXPERIMENTS.md, E1-E8 and E10-E21, in id order.  --only=<id> runs one
// entry; --quick runs the small grid that CI and the verdict tests use.
#include <cstdlib>
#include <iostream>

#include "src/exp/experiments.h"
#include "src/util/cli.h"
#include "src/util/error.h"

int main(int argc, char** argv) {
  using namespace vodrep;
  CliFlags flags("vodrep_experiments",
                 "The paper's figures and the extensions, one entry each");
  flags.add_string("only", "", "run only this experiment id, e.g. E5");
  flags.add_bool("quick", false, "small fast grid (CI smoke mode)");
  try {
    if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
    const std::string& only = flags.get_string("only");
    require(only.empty() || find_experiment(only) != nullptr, [&] {
      return "unknown experiment " + only + " (ids: E1-E8, E10-E21)";
    });
    const Grid grid = flags.get_bool("quick") ? Grid::kQuick : Grid::kFull;
    ThreadPool pool;
    for (const Experiment& entry : experiments()) {
      if (!only.empty() && entry.id != only) continue;
      std::cout << "== " << entry.id << ": " << entry.title << " ==\n";
      for (const Section& section : entry.run(grid, pool)) {
        std::cout << "\n-- " << section.caption << " --\n";
        section.table.print(std::cout);
      }
      std::cout << std::endl;
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
