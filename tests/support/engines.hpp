// The engines every worker-count parity battery runs on.
#pragma once

#include "sim/comm.hpp"

#include <memory>
#include <vector>

namespace pcmd::testing {

// SeqEngine (one worker), ThreadEngine (min(hw, ranks) workers) and an
// explicit three-worker engine, whose blocks hold several ranks and split
// unevenly whenever three does not divide `ranks`.
inline std::vector<std::unique_ptr<sim::Engine>> parity_engines(int ranks) {
  std::vector<std::unique_ptr<sim::Engine>> engines;
  engines.push_back(std::make_unique<sim::SeqEngine>(ranks));
  engines.push_back(std::make_unique<sim::ThreadEngine>(ranks));
  engines.push_back(
      std::make_unique<sim::Engine>(ranks, sim::MachineModel::t3e(), 3));
  return engines;
}

}  // namespace pcmd::testing
