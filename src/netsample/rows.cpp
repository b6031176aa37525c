#include "netsample/result.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/targets.h"
#include "util/format.h"

namespace netsample {

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != columns.size()) {
    throw std::invalid_argument("Table: row has " +
                                std::to_string(cells.size()) + " cells, want " +
                                std::to_string(columns.size()));
  }
  rows.push_back(std::move(cells));
}

namespace {

bool needs_csv_quoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string csv_field(const std::string& field) {
  if (!needs_csv_quoting(field)) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Is `s` already a valid bare JSON number? (strtod-accepted, full match,
/// no leading '+'/padding — conservative on purpose.)
bool is_json_number(const std::string& s) {
  if (s.empty() || s == "-" || s[0] == '+' || std::isspace(
      static_cast<unsigned char>(s[0])) != 0) {
    return false;
  }
  char* end = nullptr;
  (void)std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  // strtod accepts inf/nan/hex, which JSON does not.
  for (const char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '+' && c != '.' && c != 'e' && c != 'E') {
      return false;
    }
  }
  return true;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string csv_line(std::span<const std::string> fields,
                     std::string_view prefix) {
  std::string out;
  if (!prefix.empty()) out += std::string(prefix);
  bool first = prefix.empty();
  for (const auto& f : fields) {
    if (!first) out += ',';
    first = false;
    out += csv_field(f);
  }
  return out;
}

std::string json_line(std::span<const std::string> columns,
                      std::span<const std::string> cells) {
  if (columns.size() != cells.size()) {
    throw std::invalid_argument("json_line: column/cell count mismatch");
  }
  std::string out = "{";
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(columns[i]);
    out += ':';
    out += is_json_number(cells[i]) ? cells[i] : json_string(cells[i]);
  }
  out += '}';
  return out;
}

void emit(const Table& table, RowFormat format, std::ostream& os,
          const EmitOptions& options) {
  switch (format) {
    case RowFormat::kAligned: {
      TextTable text(table.columns);
      for (const auto& row : table.rows) text.add_row(row);
      text.print(os);
      break;
    }
    case RowFormat::kCsv: {
      if (options.csv_header) {
        os << csv_line(table.columns, options.csv_prefix) << '\n';
      }
      for (const auto& row : table.rows) {
        os << csv_line(row, options.csv_prefix) << '\n';
      }
      break;
    }
    case RowFormat::kJsonLines: {
      for (const auto& row : table.rows) {
        os << json_line(table.columns, row) << '\n';
      }
      break;
    }
  }
}

namespace {

/// One row per grid cell, quarantined cells padded with "-". The adapters
/// differ only in the third column: its name, and `third(i, config)`.
template <typename ThirdColumn>
Result<exper::RunReport> grid_result(exper::RunReport report,
                                     const char* third_name,
                                     ThirdColumn third) {
  Result<exper::RunReport> out;
  out.status = report.first_failure();
  out.rows.columns = {"cell",   "method",   third_name, "k",
                      "status", "attempts", "phi mean", "phi min",
                      "phi max", "mean n"};
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const auto& cell = report.cells[i];
    const auto& config = cell.result.config;
    std::vector<std::string> row;
    row.push_back(std::to_string(i));
    row.push_back(core::method_name(config.method));
    row.push_back(third(i, config));
    row.push_back(std::to_string(config.granularity));
    row.push_back(cell.status.is_ok()
                      ? (cell.from_journal ? "ok (journal)" : "ok")
                      : cell.status.to_string());
    row.push_back(std::to_string(cell.attempts));
    if (cell.status.is_ok() && !cell.result.replications.empty()) {
      const auto phis = cell.result.phi_values();
      const auto [mn, mx] = std::minmax_element(phis.begin(), phis.end());
      row.push_back(fmt_double(cell.result.phi_mean(), 4));
      row.push_back(fmt_double(*mn, 4));
      row.push_back(fmt_double(*mx, 4));
      row.push_back(fmt_double(cell.result.mean_sample_size(), 1));
    } else {
      row.insert(row.end(), {"-", "-", "-", "-"});
    }
    out.rows.add_row(std::move(row));
  }
  out.value = std::move(report);
  return out;
}

}  // namespace

Result<exper::RunReport> as_flow_result(exper::RunReport report,
                                        const shard::SweepSpec& spec) {
  if (spec.workload != shard::Workload::kFlow) {
    throw std::invalid_argument("as_flow_result: not a flow sweep spec");
  }
  if (report.cells.size() != spec.cell_count()) {
    throw std::invalid_argument("as_flow_result: report has " +
                                std::to_string(report.cells.size()) +
                                " cells, spec expects " +
                                std::to_string(spec.cell_count()));
  }
  return grid_result(std::move(report), "estimator",
                     [&spec](std::size_t i, const exper::CellConfig&) {
                       return flow::estimator_name(
                           shard::grid_estimator(spec, i));
                     });
}

Result<exper::RunReport> as_result(exper::RunReport report) {
  return grid_result(std::move(report), "target",
                     [](std::size_t, const exper::CellConfig& config) {
                       return core::target_name(config.target);
                     });
}

}  // namespace netsample
