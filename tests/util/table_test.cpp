#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace seamap {
namespace {

TEST(Format, FmtDouble) {
    EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
    EXPECT_EQ(fmt_double(2.0, 0), "2");
    EXPECT_EQ(fmt_double(-1.5, 1), "-1.5");
}

TEST(Format, FmtSci) {
    EXPECT_EQ(fmt_sci(123456.0, 2), "1.23e+05");
    EXPECT_EQ(fmt_sci(0.00123, 1), "1.2e-03");
}

TEST(Format, FmtPercent) {
    EXPECT_EQ(fmt_percent(12.34, 1), "+12.3%");
    EXPECT_EQ(fmt_percent(-5.0, 1), "-5.0%");
}

TEST(Format, FmtGrouped) {
    EXPECT_EQ(fmt_grouped(0), "0");
    EXPECT_EQ(fmt_grouped(999), "999");
    EXPECT_EQ(fmt_grouped(1000), "1,000");
    EXPECT_EQ(fmt_grouped(1234567), "1,234,567");
    EXPECT_EQ(fmt_grouped(12345678901ULL), "12,345,678,901");
}

TEST(TableWriter, RejectsEmptyHeaderAndBadRows) {
    EXPECT_THROW(TableWriter({}), std::invalid_argument);
    TableWriter table({"a", "b"});
    EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
    EXPECT_THROW(table.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(TableWriter, TextAlignsColumns) {
    TableWriter table({"core", "power"});
    table.add_row({"0", "12.5"});
    table.add_row({"11", "3"});
    std::ostringstream os;
    table.print_text(os);
    const std::string out = os.str();
    // Header, underline and two data rows.
    EXPECT_NE(out.find("core  power"), std::string::npos);
    EXPECT_NE(out.find("----  -----"), std::string::npos);
    EXPECT_NE(out.find("0     12.5"), std::string::npos);
    EXPECT_NE(out.find("11    3"), std::string::npos);
}

TEST(TableWriter, Counts) {
    // Header and underline, then one line per added row.
    TableWriter table({"a", "b", "c"});
    std::ostringstream empty;
    table.print_text(empty);
    EXPECT_EQ(empty.str(), "a  b  c\n-  -  -\n");
    table.add_row({"1", "2", "3"});
    std::ostringstream one;
    table.print_text(one);
    EXPECT_EQ(one.str(), "a  b  c\n-  -  -\n1  2  3\n");
}

} // namespace
} // namespace seamap
