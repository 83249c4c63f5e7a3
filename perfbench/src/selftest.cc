// Determinism self-test for the benchmark's workloads. For each workload:
//   * two units with one seed give identical simulated metrics and counts;
//   * a traced unit gives the same simulated metrics as an untraced one
//     (outside timing must not perturb the model);
//   * a second seed gives a different checksum;
//   * every output check passes on both seeds.
// Exits 0 when all hold; prints each violation and exits 1 otherwise.
#include <malloc.h>

#include <cstdio>
#include <string>

#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

std::string FirstDifference(const MetricMap& a, const MetricMap& b) {
  for (const auto& [name, m] : a) {
    auto it = b.find(name);
    if (it == b.end() || !(it->second == m)) {
      return name;
    }
  }
  return a.size() == b.size() ? "" : "(key sets differ)";
}

void CheckIdentical(const Unit& a, const Unit& b, const std::string& what) {
  const std::string sim = FirstDifference(a.sim, b.sim);
  const std::string layers = FirstDifference(a.sim_layers, b.sim_layers);
  Expect(sim.empty(), what + ": end-to-end simulated metric differs: " + sim);
  Expect(layers.empty(), what + ": per-layer simulated metric differs: " + layers);
  Expect(a.checksum == b.checksum, what + ": checksum differs");
}

void CheckClean(const Unit& u, const std::string& what) {
  Expect(u.checks.attempted() > 0, what + ": no output was checked");
  Expect(u.checks.failed() == 0, what + ": " + std::to_string(u.checks.failed()) +
                                     " output checks failed" +
                                     (u.checks.messages().empty()
                                          ? std::string()
                                          : " (" + u.checks.messages().front() + ")"));
}

void TestWorkload(const char* name) {
  const Workload* w = FindWorkload(name);
  Expect(w != nullptr, std::string("unknown workload ") + name);
  if (w == nullptr) {
    return;
  }
  const std::string n = name;
  const int failures_before = failures;
  const Unit first = w->unit(1, /*traced=*/false);
  const Unit again = w->unit(1, /*traced=*/false);
  const Unit traced = w->unit(1, /*traced=*/true);
  const Unit other = w->unit(2, /*traced=*/false);
  CheckClean(first, n + " seed 1");
  CheckClean(traced, n + " seed 1 traced");
  CheckClean(other, n + " seed 2");
  CheckIdentical(first, again, n + " seed 1 twice");
  CheckIdentical(first, traced, n + " traced vs untraced");
  Expect(first.checksum != other.checksum, n + ": seeds 1 and 2 give the same checksum");
  Expect(!first.sim.empty() && !first.sim_layers.empty(), n + ": no simulated metrics");
  std::printf("%s %s\n", failures == failures_before ? "ok  " : "FAIL", name);
}

}  // namespace
}  // namespace perfbench

int main() {
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);  // as in main.cc
  for (const char* name : {"paper_apps", "shard_mixed", "openloop_hot_reads"}) {
    perfbench::TestWorkload(name);
  }
  return perfbench::failures == 0 ? 0 : 1;
}
