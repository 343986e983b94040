// Self-test of the benchmark's correctness gate: on every workload's gate
// prefix the engine's zero-cost counts must pass the gate, and the same
// counts off by one in either direction must be rejected. Exits 0 on
// success and prints the failing checks otherwise.
#include <iostream>
#include <string>
#include <vector>

#include "reference.hpp"
#include "replayer.hpp"
#include "workloads.hpp"

int main() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "FAIL: " << what << "\n";
      ++failures;
    }
  };
  for (const std::string& name : perfbench::workload_names()) {
    const perfbench::Workload w = perfbench::make_workload(name, 7);
    const auto prefix = perfbench::prefix_before(w, w.gate_prefix);

    std::vector<std::string> errors;
    const auto counts = perfbench::gate_engine_counts(w, errors);
    expect(errors.empty(), name + ": gate run reported errors");
    std::uint64_t total = 0;
    for (const auto c : counts) total += c;
    expect(total > 0, name + ": prefix produced no results");
    expect(perfbench::gate_mismatches(w.queries, counts, prefix).empty(),
           name + ": true engine counts fail the gate");

    for (const int delta : {+1, -1}) {
      auto planted = counts;
      planted.back() += static_cast<std::uint64_t>(delta);
      expect(perfbench::gate_mismatches(w.queries, planted, prefix).size() == 1,
             name + ": count off by " + std::to_string(delta) +
                 " passes the gate");
    }
    std::cout << name << ": " << total << " results on the gate prefix\n";
  }
  if (failures == 0) std::cout << "perfbench selftest: ok\n";
  return failures == 0 ? 0 : 1;
}
