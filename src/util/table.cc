#include "src/util/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "src/util/error.h"

namespace vodrep {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  require(!headers_.empty(), "Table: at least one column required");
}

void Table::add_row(std::vector<Cell> cells) {
  require(cells.size() == headers_.size(),
          "Table::add_row: cell count does not match column count");
  rows_.push_back(std::move(cells));
}

void Table::set_precision(int digits) {
  require(digits >= 0 && digits <= 17, "Table::set_precision: bad precision");
  precision_ = digits;
}

std::string Table::format_cell(const Cell& cell) const {
  if (const auto* s = std::get_if<std::string>(&cell)) return *s;
  if (const auto* i = std::get_if<long long>(&cell)) return std::to_string(*i);
  const auto* m = std::get_if<Measured>(&cell);
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision_)
     << (m != nullptr ? m->scale * m->stats.mean() : std::get<double>(cell));
  return os.str();
}

const Table::Cell& Table::at(std::size_t row, std::string_view column) const {
  require(row < rows_.size(), "Table: row out of range");
  const auto it = std::find(headers_.begin(), headers_.end(), column);
  require(it != headers_.end(),
          [&] { return "Table: no column " + std::string(column); });
  return rows_[row][static_cast<std::size_t>(it - headers_.begin())];
}

double Table::value(std::size_t row, std::string_view column) const {
  const Cell& cell = at(row, column);
  if (const auto* m = std::get_if<Measured>(&cell)) {
    return m->scale * m->stats.mean();
  }
  if (const auto* i = std::get_if<long long>(&cell)) {
    return static_cast<double>(*i);
  }
  require(std::holds_alternative<double>(cell),
          [&] { return "Table: column " + std::string(column) + " is text"; });
  return std::get<double>(cell);
}

double Table::margin(std::size_t row, std::string_view column) const {
  const auto* m = std::get_if<Measured>(&at(row, column));
  return m != nullptr ? m->scale * m->stats.ci95_halfwidth() : 0.0;
}

std::string Table::text(std::size_t row, std::string_view column) const {
  return format_cell(at(row, column));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(format_cell(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c])) << cells[c];
      os << (c + 1 == cells.size() ? "\n" : "  ");
    }
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rendered) emit(row);
}

void Table::print_csv(std::ostream& os) const {
  auto quote = [](const std::string& field) {
    if (field.find_first_of(",\"\n") == std::string::npos) return field;
    std::string out = "\"";
    for (char ch : field) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
    return out;
  };
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << quote(cells[c]) << (c + 1 == cells.size() ? "\n" : ",");
    }
  };
  emit(headers_);
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const auto& cell : row) cells.push_back(format_cell(cell));
    emit(cells);
  }
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

}  // namespace vodrep
