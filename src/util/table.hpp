#pragma once
// Column-aligned table printer used by every benchmark binary to emit the
// rows/series of the corresponding paper table or figure, plus a minimal CSV
// writer for machine-readable output.

#include <iosfwd>
#include <string>
#include <vector>

namespace marlin {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  Table& add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  Table& add_row_numeric(const std::string& label,
                         const std::vector<double>& values, int precision = 2);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers.
std::string format_double(double v, int precision);
std::string format_seconds(double s);   // "1.234 ms", "12.3 us", ...
std::string format_bytes(double bytes); // "1.50 GiB", ...

}  // namespace marlin
