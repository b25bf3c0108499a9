// stellaris_report — offline run-ledger analyzer.
//
// Usage:
//   stellaris_report <ledger.jsonl> [--json=out.json]
//                    [--chrome-trace=out.json] [--straggler-factor=2.0]
//
// Reads the JSONL run ledger a training run wrote under --ledger-out= and
// prints, per run: the critical-path breakdown (per-stage virtual time
// summing to the total run time), p50/p99 staleness per policy version,
// straggler identification, and wasted-cost attribution from the fault
// events. With --json= the same data is written as one JSON object per run
// (JSONL) for downstream plotting. With --chrome-trace= the ledger is also
// rendered as a Chrome trace-event JSON for Perfetto (chrome_trace.hpp).
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "tools/report/chrome_trace.hpp"
#include "tools/report/ledger_analysis.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <ledger.jsonl> [--json=out.json] "
               "[--chrome-trace=out.json] [--straggler-factor=F]\n",
               argv0);
  return 2;
}

/// Opens `path` for writing, then hands the stream to `write`.
template <typename Write>
bool write_file(const std::string& path, Write write) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  write(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string ledger_path;
  std::string json_path;
  std::string trace_json_path;
  stellaris::report::AnalysisOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--chrome-trace=", 0) == 0) {
      trace_json_path = arg.substr(15);
    } else if (arg.rfind("--straggler-factor=", 0) == 0) {
      opts.straggler_factor = std::stod(arg.substr(19));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    } else if (ledger_path.empty()) {
      ledger_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (ledger_path.empty()) return usage(argv[0]);

  try {
    const auto lines = stellaris::report::read_ledger_file(ledger_path);
    const auto reports = stellaris::report::analyze_ledger(lines, opts);
    if (reports.empty()) {
      std::fprintf(stderr, "%s: no ledger events found\n",
                   ledger_path.c_str());
      return 1;
    }
    bool first = true;
    for (const auto& rep : reports) {
      if (!first) std::cout << "\n";
      first = false;
      stellaris::report::print_report(std::cout, rep);
    }
    if (!json_path.empty() &&
        !write_file(json_path, [&](std::ostream& out) {
          for (const auto& rep : reports)
            stellaris::report::write_report_json(out, rep);
        }))
      return 1;
    if (!trace_json_path.empty() &&
        !write_file(trace_json_path, [&](std::ostream& out) {
          stellaris::report::write_chrome_trace(lines, out);
        }))
      return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stellaris_report: %s\n", e.what());
    return 1;
  }
  return 0;
}
