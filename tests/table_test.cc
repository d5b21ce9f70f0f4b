#include "src/util/table.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/util/error.h"

namespace vodrep {
namespace {

TEST(Table, RequiresAtLeastOneColumn) {
  EXPECT_THROW(Table({}), InvalidArgumentError);
}

TEST(Table, RowMustMatchColumnCount) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), InvalidArgumentError);
  EXPECT_THROW(t.add_row({1.0, 2.0, 3.0}), InvalidArgumentError);
  t.add_row({1.0, 2.0});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, PrintsHeaderSeparatorAndRows) {
  Table t({"rate", "reject%"});
  t.add_row({std::string("4"), 0.5});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("rate"), std::string::npos);
  EXPECT_NE(out.find("reject%"), std::string::npos);
  EXPECT_NE(out.find("0.500"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, PrecisionControlsDoubleFormatting) {
  Table t({"x"});
  t.set_precision(1);
  t.add_row({3.14159});
  EXPECT_NE(t.to_string().find("3.1"), std::string::npos);
  EXPECT_EQ(t.to_string().find("3.14"), std::string::npos);
  EXPECT_THROW(t.set_precision(-1), InvalidArgumentError);
}

TEST(Table, IntegerCellsHaveNoDecimals) {
  Table t({"n"});
  t.add_row({static_cast<long long>(42)});
  EXPECT_NE(t.to_string().find("42"), std::string::npos);
  EXPECT_EQ(t.to_string().find("42.0"), std::string::npos);
}

TEST(Table, MeasuredCellsPrintTheScaledMeanAndKeepTheirMargin) {
  OnlineStats stats;
  for (double x : {0.01, 0.02, 0.03}) stats.add(x);
  Table t({"rate", "reject%", "verdict"});
  t.set_precision(2);
  t.add_row({4.0, Measured{stats, 100.0}, std::string("yes")});
  EXPECT_NE(t.to_string().find("2.00"), std::string::npos);
  EXPECT_DOUBLE_EQ(t.value(0, "reject%"), 100.0 * stats.mean());
  EXPECT_DOUBLE_EQ(t.margin(0, "reject%"), 100.0 * stats.ci95_halfwidth());
  EXPECT_DOUBLE_EQ(t.value(0, "rate"), 4.0);
  EXPECT_DOUBLE_EQ(t.margin(0, "rate"), 0.0);
  EXPECT_EQ(t.text(0, "verdict"), "yes");
  EXPECT_THROW((void)t.value(0, "verdict"), InvalidArgumentError);
  EXPECT_THROW((void)t.value(0, "missing"), InvalidArgumentError);
  EXPECT_THROW((void)t.value(1, "rate"), InvalidArgumentError);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"name", "value"});
  t.add_row({std::string("a,b"), std::string("say \"hi\"")});
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvHasHeaderAndOneLinePerRow) {
  Table t({"a", "b"});
  t.add_row({1.0, 2.0});
  t.add_row({3.0, 4.0});
  std::ostringstream os;
  t.print_csv(os);
  std::string line;
  std::istringstream is(os.str());
  int lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, 3);
}

TEST(Table, ColumnsAlignToWidestCell) {
  Table t({"x"});
  t.add_row({std::string("wide-cell-content")});
  t.add_row({std::string("a")});
  std::istringstream is(t.to_string());
  std::string header;
  std::string sep;
  std::string row1;
  std::string row2;
  std::getline(is, header);
  std::getline(is, sep);
  std::getline(is, row1);
  std::getline(is, row2);
  EXPECT_EQ(row1.size(), row2.size());
}

}  // namespace
}  // namespace vodrep
