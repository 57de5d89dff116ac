#include "obs/emit.hpp"

#include <ostream>
#include <sstream>

#include "support/check.hpp"

namespace lrdip::obs {
namespace {

// Kept in sync with RejectReason in dip/verdict.hpp (obs is a leaf library
// below dip, so it cannot include the enum itself).
constexpr const char* kReasonNames[5] = {"none", "check_failed", "malformed_label",
                                         "width_mismatch", "missing_label"};

std::string esc(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string run_to_json(const RunMetrics& run, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in1 = pad + "  ";
  const std::string in2 = pad + "    ";
  std::ostringstream os;
  os << pad << "{\n";
  os << in1 << "\"task\": \"" << esc(run.task) << "\",\n";
  os << in1 << "\"n\": " << run.n << ",\n";
  os << in1 << "\"m\": " << run.m << ",\n";
  os << in1 << "\"accepted\": " << (run.accepted ? "true" : "false") << ",\n";
  os << in1 << "\"rounds\": " << run.protocol_rounds << ",\n";
  os << in1 << "\"proof_size_bits\": " << run.proof_size_bits << ",\n";
  os << in1 << "\"total_label_bits\": " << run.total_label_bits << ",\n";
  os << in1 << "\"max_coin_bits\": " << run.max_coin_bits << ",\n";
  os << in1 << "\"rejected_nodes\": " << run.rejected_nodes << ",\n";
  os << in1 << "\"arith\": {\"simd_level\": \"" << esc(run.simd_level)
     << "\", \"simd_lanes\": " << run.simd_lanes << "},\n";
  os << in1 << "\"reject_reasons\": {";
  for (int i = 0; i < 5; ++i) {
    os << (i ? ", " : "") << "\"" << kReasonNames[i] << "\": " << run.reject_reasons[i];
  }
  os << "},\n";
  os << in1 << "\"wire_total_bits\": " << run.wire_total_bits() << ",\n";
  os << in1 << "\"wire_max_round_node_bits\": " << run.wire_max_round_node_bits() << ",\n";
  os << in1 << "\"per_round\": [";
  for (std::size_t r = 0; r < run.rounds.size(); ++r) {
    const RoundComm& rc = run.rounds[r];
    os << (r ? "," : "") << "\n"
       << in2 << "{\"round\": " << r << ", \"labels\": " << rc.label_count
       << ", \"fields\": " << rc.field_count << ", \"total_bits\": " << rc.total_bits
       << ", \"max_node_bits\": " << rc.max_node_bits << ", \"coin_words\": " << rc.coin_words
       << ", \"coin_bits\": " << rc.coin_bits
       << ", \"max_node_coin_bits\": " << rc.max_node_coin_bits << "}";
  }
  os << (run.rounds.empty() ? "" : "\n" + in1) << "],\n";
  os << in1 << "\"label_bits_histogram\": {\"count\": " << run.label_bits.count
     << ", \"sum_bits\": " << run.label_bits.sum_bits << ", \"max_bits\": " << run.label_bits.max_bits
     << ", \"buckets\": [";
  for (int i = 0; i < BitHistogram::kBuckets; ++i) {
    os << (i ? "," : "") << run.label_bits.buckets[i];
  }
  os << "]},\n";
  os << in1 << "\"stages\": {";
  {
    bool first = true;
    for (const auto& [name, st] : run.stages) {
      os << (first ? "" : ",") << "\n"
         << in2 << "\"" << esc(name) << "\": {\"calls\": " << st.calls
         << ", \"wall_ns\": " << st.wall_ns << "}";
      first = false;
    }
    os << (run.stages.empty() ? "" : "\n" + in1) << "},\n";
  }
  os << in1 << "\"parallel\": {\"regions\": " << run.parallel.regions
     << ", \"items\": " << run.parallel.items << ", \"wall_ns\": " << run.parallel.wall_ns
     << ", \"threads_observed\": " << run.parallel.thread_busy_ns.size() << ", \"busy_ns\": [";
  for (std::size_t i = 0; i < run.parallel.thread_busy_ns.size(); ++i) {
    os << (i ? "," : "") << run.parallel.thread_busy_ns[i];
  }
  os << "], \"utilization\": " << run.parallel.utilization() << "},\n";
  os << in1 << "\"wall_ns\": " << run.wall_ns << "\n";
  os << pad << "}";
  return os.str();
}

std::string runs_to_json(const std::vector<RunMetrics>& runs) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    os << run_to_json(runs[i], 2) << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "]";
  return os.str();
}

std::string csv_header() {
  return "task,n,m,accepted,rounds,proof_size_bits,total_label_bits,max_coin_bits,"
         "rejected_nodes,wire_total_bits,wire_max_round_node_bits,wall_ns,"
         "round,labels,fields,round_total_bits,round_max_node_bits,round_coin_bits,"
         "round_max_node_coin_bits";
}

std::vector<std::string> run_to_csv_rows(const RunMetrics& run) {
  std::ostringstream prefix;
  prefix << esc(run.task) << "," << run.n << "," << run.m << "," << (run.accepted ? 1 : 0) << ","
         << run.protocol_rounds << "," << run.proof_size_bits << "," << run.total_label_bits << ","
         << run.max_coin_bits << "," << run.rejected_nodes << "," << run.wire_total_bits() << ","
         << run.wire_max_round_node_bits() << "," << run.wall_ns;
  std::vector<std::string> rows;
  if (run.rounds.empty()) {
    rows.push_back(prefix.str() + ",-1,0,0,0,0,0,0");
    return rows;
  }
  for (std::size_t r = 0; r < run.rounds.size(); ++r) {
    const RoundComm& rc = run.rounds[r];
    std::ostringstream row;
    row << prefix.str() << "," << r << "," << rc.label_count << "," << rc.field_count << ","
        << rc.total_bits << "," << rc.max_node_bits << "," << rc.coin_bits << ","
        << rc.max_node_coin_bits;
    rows.push_back(row.str());
  }
  return rows;
}

void emit_runs(std::ostream& os, const std::vector<RunMetrics>& runs, const std::string& format) {
  if (format == "json") {
    os << runs_to_json(runs) << "\n";
    return;
  }
  if (format == "csv") {
    os << csv_header() << "\n";
    for (const RunMetrics& run : runs) {
      for (const std::string& row : run_to_csv_rows(run)) os << row << "\n";
    }
    return;
  }
  throw InvariantError("unknown metrics format: " + format + " (expected json or csv)");
}

}  // namespace lrdip::obs
