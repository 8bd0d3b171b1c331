// pcmd-analyze: project-specific static analysis for the pcmd tree.
//
// A deliberately small tool — a tokenizer plus an include-graph walker, no
// libclang — that machine-checks the conventions the codebase's determinism
// and layering guarantees rest on. The rule catalog (see rules.cpp and
// DESIGN.md "Static analysis & race detection"):
//
//   layering             src/<layer>/ may quote-include only layers at or
//                        below it (util < sim < obs < md < workload < core
//                        < ddm < theory)
//   include-cycle        no cycles in the quote-include graph
//   unordered-container  no std::unordered_{map,set,...} in src/ddm or
//                        src/sim — iteration order would leak host hashing
//                        into the protocol
//   wall-clock           no rand/srand/time()/system_clock/... outside
//                        src/obs — all time is virtual, all randomness is
//                        pcmd::Rng
//   naked-assert         no assert( — use PCMD_CHECK/PCMD_ASSERT
//   pointer-key          no pointer-keyed map/set — pointer order is
//                        allocation order, i.e. nondeterministic
//   include-sort         #include blocks sorted (mirrors tools/lint.sh)
//   wire-pairing         every pack_X definition has an unpack_X in the
//                        same file, with matching put/get call counts and
//                        matching member-field sets
//   one-frame-codec      no crc32( call in src/ outside src/util — CRC
//                        framing goes through util/frame.hpp's FrameCodec
//
// Library API so the rule battery is unit-testable (tests/tools); the
// `pcmd-analyze` binary in main.cpp is a thin CLI over analyze().
#pragma once

#include <string>
#include <vector>

namespace pcmd::analyze {

// One rule hit, with file:line provenance.
struct Finding {
  std::string rule;
  std::string file;  // display path, repo-relative, '/'-separated
  int line = 0;
  std::string message;
};

// One input file. `path` is the repo-relative display path rules scope on
// (e.g. "src/ddm/wire.cpp") — tests feed fixture text under synthetic paths
// to exercise path-scoped rules.
struct Source {
  std::string path;
  std::string text;
};

// Reads `fs_path` from disk; findings will cite `display`.
Source load_source(const std::string& fs_path, std::string display);

// Collects the analyzable tree under `root`: *.cpp/*.hpp beneath src/,
// tests/, bench/, examples/ and tools/, sorted by display path. Build
// directories and the seeded-violation fixtures (tests/tools/fixtures) are
// skipped.
std::vector<Source> collect_tree(const std::string& root);

// Runs every rule over `sources`; findings sorted by (file, line, rule).
std::vector<Finding> analyze(const std::vector<Source>& sources);

// "file:line: [rule] message"
std::string format(const Finding& finding);

}  // namespace pcmd::analyze
