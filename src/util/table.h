// Console/CSV table rendering for experiment reports.
//
// The experiment catalogue prints paper-style series (one row per arrival
// rate, one column per algorithm or replication degree).  Table collects
// typed cells and renders either an aligned console table or CSV, so every
// experiment reports through one code path.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/util/stats.h"

namespace vodrep {

/// A cell measured over repeated runs: it prints `scale * mean` and keeps
/// the per-run statistics, so a reader can judge a difference between two
/// cells against their confidence intervals.
struct Measured {
  OnlineStats stats;
  double scale = 1.0;
};

/// A rectangular table with a header row and typed cells.  Numeric cells are
/// formatted with a configurable precision; string cells pass through.
class Table {
 public:
  using Cell = std::variant<std::string, double, long long, Measured>;

  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Number of columns (fixed at construction).
  [[nodiscard]] std::size_t columns() const { return headers_.size(); }
  /// Number of data rows appended so far.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Appends a row; must contain exactly columns() cells.
  void add_row(std::vector<Cell> cells);

  /// Digits after the decimal point for double cells (default 3).
  void set_precision(int digits);

  /// Renders an aligned, human-readable table.
  void print(std::ostream& os) const;

  /// Renders RFC-4180-style CSV (quotes fields containing commas/quotes).
  void print_csv(std::ostream& os) const;

  /// Convenience: renders the aligned table to a string.
  [[nodiscard]] std::string to_string() const;

  /// The number shown at `row` under the header `column` (a Measured
  /// cell's scaled mean).  Throws for an unknown header or a string cell.
  [[nodiscard]] double value(std::size_t row, std::string_view column) const;
  /// The 95% confidence half-width of value(): the scaled ci95_halfwidth()
  /// of a Measured cell, 0 for an exact one.
  [[nodiscard]] double margin(std::size_t row, std::string_view column) const;
  /// The text printed at `row` under the header `column`.
  [[nodiscard]] std::string text(std::size_t row,
                                 std::string_view column) const;

 private:
  [[nodiscard]] std::string format_cell(const Cell& cell) const;
  [[nodiscard]] const Cell& at(std::size_t row, std::string_view column) const;

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 3;
};

}  // namespace vodrep
