// Shared construction context for the ddm engines: the only way to build a
// ParallelMd or SlabMd. It names the machine and either the fresh-start
// (box, initial) pair or a checkpoint, so call sites read declaratively and
// new context can be added without widening every constructor.
#pragma once

#include "md/particle.hpp"
#include "sim/message.hpp"
#include "util/pbc.hpp"

#include <stdexcept>
#include <string>

namespace pcmd::sim {
class Engine;
}

namespace pcmd::ddm {

// The execution context an engine is constructed over. Pointers are
// non-owning and must stay valid for the duration of the constructor call
// (the engines copy what they keep). Exactly one of `initial` and
// `checkpoint` must be set: a fresh start bins `initial` into `box`, a
// resume restores box and state from the checkpoint buffer (`box` is then
// ignored).
struct EngineConfig {
  sim::Engine* engine = nullptr;                // required virtual machine
  Box box = Box::cubic(1.0);                    // fresh-start simulation box
  const md::ParticleVector* initial = nullptr;  // fresh-start particles
  const sim::Buffer* checkpoint = nullptr;      // resume source
};

// Validates the aggregate's structural requirements with the constructing
// engine's name in the message; returns the non-null engine.
inline sim::Engine& validated_engine(const EngineConfig& setup,
                                     const char* who) {
  if (setup.engine == nullptr) {
    throw std::invalid_argument(std::string(who) +
                                ": EngineConfig.engine must be set");
  }
  if ((setup.initial == nullptr) == (setup.checkpoint == nullptr)) {
    throw std::invalid_argument(
        std::string(who) +
        ": EngineConfig needs exactly one of initial and checkpoint");
  }
  return *setup.engine;
}

}  // namespace pcmd::ddm
