// The hygiene scope includes tools/report/: the offline analyzer must be
// as deterministic as the simulator whose ledgers it reads.
namespace stellaris::report {

// expect: wall-clock
double hygiene_report_now() { return std::chrono::steady_clock::now(); }

}  // namespace stellaris::report
