// The experiment catalogue: every table of EXPERIMENTS.md as one entry
// {id, title, run}.  E1-E8 reproduce the paper's figures and theorems,
// E10-E20 are the extensions indexed in DESIGN.md, and E21 is the edge
// prefix-cache comparison; E9 is google-benchmark (vodrep_micro_algorithms).
//
// An entry's run replays its grid, quick or full, and returns captioned
// tables.  Cells measured over repeated runs keep their per-run statistics
// (Measured), so tests/experiment_verdicts_test.cc asserts the paper's
// verdicts against the cells' own confidence margins.
// bench/vodrep_experiments prints the catalogue.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace vodrep {

/// The quick grid is the CI smoke size (fewer videos, runs and sweep
/// points); the full grid is the size EXPERIMENTS.md reports.
enum class Grid { kQuick, kFull };

/// One printed table of an experiment, under its caption.
struct Section {
  std::string caption;
  Table table;
};

struct Experiment {
  std::string_view id;     ///< "E1" ... "E21"
  std::string_view title;
  std::vector<Section> (*run)(Grid grid, ThreadPool& pool);
};

/// Every entry, in id order.
[[nodiscard]] const std::vector<Experiment>& experiments();

/// The entry with `id`, or nullptr.
[[nodiscard]] const Experiment* find_experiment(std::string_view id);

/// A replication+placement pairing as used in Figures 4-6.
struct AlgorithmCombo {
  std::string replication;  ///< "adams" | "zipf" | "classification" | "uniform"
  std::string placement;    ///< "slf" | "round-robin" | "best-fit"

  [[nodiscard]] std::string label() const {
    return replication + "+" + placement;
  }
};

/// The four combinations the paper compares.
[[nodiscard]] std::vector<AlgorithmCombo> paper_combos();

}  // namespace vodrep
