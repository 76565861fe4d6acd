#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace seamap {

std::string fmt_double(double value, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string fmt_sci(double value, int precision) {
    std::ostringstream os;
    os << std::scientific << std::setprecision(precision) << value;
    return os.str();
}

std::string fmt_percent(double value, int precision) {
    std::ostringstream os;
    os << std::showpos << std::fixed << std::setprecision(precision) << value << "%";
    return os.str();
}

std::string fmt_grouped(unsigned long long value) {
    std::string digits = std::to_string(value);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    std::size_t leading = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
    out.append(digits, 0, leading);
    for (std::size_t i = leading; i < digits.size(); i += 3) {
        out.push_back(',');
        out.append(digits, i, 3);
    }
    return out;
}

TableWriter::TableWriter(std::vector<std::string> headers) : headers_(std::move(headers)) {
    if (headers_.empty()) throw std::invalid_argument("TableWriter: need at least one column");
}

void TableWriter::add_row(std::vector<std::string> cells) {
    if (cells.size() != headers_.size())
        throw std::invalid_argument("TableWriter::add_row: row width does not match header");
    rows_.push_back(std::move(cells));
}

namespace {

std::vector<std::size_t> column_widths(const std::vector<std::string>& headers,
                                       const std::vector<std::vector<std::string>>& rows) {
    std::vector<std::size_t> widths(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c) widths[c] = headers[c].size();
    for (const auto& row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    return widths;
}

} // namespace

void TableWriter::print_text(std::ostream& os) const {
    const auto widths = column_widths(headers_, rows_);
    auto print_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
            if (c + 1 < row.size()) os << "  ";
        }
        os << '\n';
    };
    print_row(headers_);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        os << std::string(widths[c], '-');
        if (c + 1 < headers_.size()) os << "  ";
    }
    os << '\n';
    for (const auto& row : rows_) print_row(row);
}

} // namespace seamap
