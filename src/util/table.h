// Column-aligned plain-text table rendering for benches and examples,
// so bench binaries can print paper-style tables.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace seamap {

/// Numeric formatting helpers shared by table cells and log lines.
std::string fmt_double(double value, int precision = 2);
std::string fmt_sci(double value, int precision = 2);
std::string fmt_percent(double value, int precision = 1);
/// Groups digits: 1234567 -> "1,234,567".
std::string fmt_grouped(unsigned long long value);

/// Table builder: set headers once, append rows of the same width,
/// render aligned.
class TableWriter {
public:
    explicit TableWriter(std::vector<std::string> headers);

    /// Append one row; must have exactly as many cells as headers.
    void add_row(std::vector<std::string> cells);

    /// Aligned plain-text rendering with a header underline.
    void print_text(std::ostream& os) const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace seamap
