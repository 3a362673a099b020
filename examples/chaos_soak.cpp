// Chaos soak: replay a seeded cluster-wide fault campaign against CLIC and
// TCP and print each campaign's digest plus the fault/degradation report.
//
//   ./chaos_soak                       # seeds 1..4, both stacks
//   ./chaos_soak 7                     # one seed, both stacks
//   ./chaos_soak 7 clic                # one seed, one stack
//   ./chaos_soak --adaptive 7 clic     # adaptive reliability mode (§4k)
//
// Every line is deterministic for a given seed — a failing CI campaign is
// reproduced by passing the seed it printed. Without --adaptive the output
// is byte-identical to the fixed-clock harness. A malformed seed or stack
// prints the usage and exits 2.
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "apps/chaos.hpp"
#include "apps/command_line.hpp"

int main(int argc, char** argv) {
  using namespace clicsim;

  bool adaptive = false;
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  std::string only_stack;  // empty: both stacks
  apps::parse_args(
      argc, argv,
      {apps::bool_flag("--adaptive", "adaptive CLIC reliability mode",
                       adaptive),
       {"seed", "", "", "replay one campaign seed (default: seeds 1..4)",
        [&seeds](const char* text) {
          seeds.assign(1, 0);
          return apps::parse_int(text, std::uint64_t{0},
                                 std::numeric_limits<std::uint64_t>::max(),
                                 seeds[0]);
        }},
       apps::enum_flag("stack", {"clic", "tcp"},
                       "replay one stack (default: both)", only_stack)});

  std::vector<apps::ChaosStack> stacks = {apps::ChaosStack::kClic,
                                          apps::ChaosStack::kTcp};
  if (!only_stack.empty()) {
    stacks = {only_stack == "tcp" ? apps::ChaosStack::kTcp
                                  : apps::ChaosStack::kClic};
  }

  bool all_ok = true;
  for (apps::ChaosStack stack : stacks) {
    for (std::uint64_t seed : seeds) {
      apps::ChaosOptions o;
      o.stack = stack;
      o.seed = seed;
      o.adaptive = adaptive;
      const apps::ChaosReport r = apps::run_chaos_campaign(o);
      std::cout << r.summary() << '\n';
      if (!r.liveness_ok()) {
        std::cout << "  LIVENESS VIOLATION (replay with seed " << r.seed
                  << ")\n";
        all_ok = false;
      }
    }
  }
  return all_ok ? 0 : 1;
}
