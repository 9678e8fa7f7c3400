#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace marlin {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  MARLIN_CHECK(!header_.empty(), "table needs at least one column");
}

Table& Table::add_row(std::vector<std::string> cells) {
  MARLIN_CHECK(cells.size() == header_.size(),
               "row has " << cells.size() << " cells, header has "
                          << header_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

Table& Table::add_row_numeric(const std::string& label,
                              const std::vector<double>& values,
                              int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(format_double(v, precision));
  return add_row(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(width[c]))
         << (c == 0 ? std::left : std::right) << row[c];
      os << std::right;
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string format_seconds(double s) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  if (s >= 1.0) {
    os << s << " s";
  } else if (s >= 1e-3) {
    os << s * 1e3 << " ms";
  } else if (s >= 1e-6) {
    os << s * 1e6 << " us";
  } else {
    os << s * 1e9 << " ns";
  }
  return os.str();
}

std::string format_bytes(double bytes) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  constexpr double kKiB = 1024.0, kMiB = kKiB * 1024.0, kGiB = kMiB * 1024.0;
  if (bytes >= kGiB) {
    os << bytes / kGiB << " GiB";
  } else if (bytes >= kMiB) {
    os << bytes / kMiB << " MiB";
  } else if (bytes >= kKiB) {
    os << bytes / kKiB << " KiB";
  } else {
    os << bytes << " B";
  }
  return os.str();
}

}  // namespace marlin
