// Shared flat-JSON scoreboard I/O and regression checking for the
// committed performance gates (perf_gate, serve_gate).
//
// Several gate binaries share one committed baseline file (BENCH_perf.json)
// but each *owns* only the keys it measures. The ownership contract lives
// in check_against(): it iterates the keys of the CURRENT board — a
// baseline key some other gate owns is ignored, a current key missing from
// the baseline fails loudly (the baseline needs regenerating), and an owned
// key that regressed beyond the tolerance fails. write_scoreboard() with
// merge=true folds the tool's keys over an existing file, so regenerating
// the shared baseline is one `--out BENCH_perf.json --merge 1` run per
// gate, in any order.
//
// Header-only on purpose: bench binaries are standalone executables and the
// format is small enough that a library target would be ceremony.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pcmd::bench {

using Scoreboard = std::map<std::string, double>;

// Strict scanner for the flat {"key": number, ...} format — no dependency,
// and anything else (nesting, arrays, trailing garbage) throws naming the
// offending byte.
inline Scoreboard read_scoreboard(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("scoreboard: cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  Scoreboard board;
  std::size_t pos = 0;
  const auto skip_ws = [&] {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  };
  const auto bad = [&](const std::string& what) {
    throw std::runtime_error("scoreboard: " + path + ": " + what +
                             " at byte " + std::to_string(pos) +
                             " (expected flat {\"key\": number, ...})");
  };
  skip_ws();
  if (pos >= text.size() || text[pos] != '{') bad("missing '{'");
  ++pos;
  skip_ws();
  while (pos < text.size() && text[pos] != '}') {
    if (text[pos] != '"') bad("missing key quote");
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) bad("unterminated key");
    const std::string key = text.substr(pos + 1, end - pos - 1);
    pos = end + 1;
    skip_ws();
    if (pos >= text.size() || text[pos] != ':') bad("missing ':'");
    ++pos;
    skip_ws();
    char* num_end = nullptr;
    const double value = std::strtod(text.c_str() + pos, &num_end);
    if (num_end == text.c_str() + pos) bad("malformed number");
    pos = static_cast<std::size_t>(num_end - text.c_str());
    board[key] = value;
    skip_ws();
    if (pos < text.size() && text[pos] == ',') {
      ++pos;
      skip_ws();
    }
  }
  if (pos >= text.size() || text[pos] != '}') bad("missing '}'");
  ++pos;
  skip_ws();
  if (pos != text.size()) bad("trailing bytes");
  return board;
}

// A gate writes its fresh board to --out before it reads --check, so a
// --check naming the --out file would compare the fresh numbers with
// themselves (and overwrite the baseline). Throws std::invalid_argument —
// exit 2 under run::guarded_main — before anything is measured.
inline void require_distinct_check(const std::string& out_path,
                                   const std::optional<std::string>& check) {
  if (!check) return;
  namespace fs = std::filesystem;
  std::error_code out_ec, check_ec;
  const fs::path out = fs::weakly_canonical(out_path, out_ec);
  const fs::path baseline = fs::weakly_canonical(*check, check_ec);
  const bool same = (!out_ec && !check_ec && out == baseline) ||
                    fs::equivalent(out_path, *check, out_ec);
  if (same) {
    throw std::invalid_argument(
        "--check " + *check + " is the --out file " + out_path +
        ": the fresh scoreboard would overwrite the baseline before the "
        "check reads it (pass a separate --out)");
  }
}

// With merge=true, keys already in `path` that `board` does not own are
// carried over unchanged (how multiple gates share one baseline file).
inline void write_scoreboard(const std::string& path, Scoreboard board,
                             bool merge = false) {
  if (merge) {
    std::ifstream probe(path);
    if (probe) {
      Scoreboard merged = read_scoreboard(path);
      for (const auto& [key, value] : board) merged[key] = value;
      board = std::move(merged);
    }
  }
  std::ofstream out(path);
  out << "{\n";
  std::size_t i = 0;
  for (const auto& [key, value] : board) {
    out << "  \"" << key << "\": " << value
        << (++i < board.size() ? "," : "") << "\n";
  }
  out << "}\n";
  if (!out) {
    throw std::runtime_error("scoreboard: failed to write " + path);
  }
}

// Relative comparison of the keys THIS run owns: throughputs must not drop,
// "_seconds" metrics must not grow, by more than `tolerance`. Returns the
// failure count (0 = gate passes).
inline int check_against(const Scoreboard& current, const Scoreboard& baseline,
                         double tolerance) {
  int failures = 0;
  for (const auto& [key, now] : current) {
    const auto it = baseline.find(key);
    if (it == baseline.end()) {
      std::printf("FAIL %-20s missing from the baseline (regenerate it)\n",
                  key.c_str());
      ++failures;
      continue;
    }
    const double base = it->second;
    const bool lower_is_better =
        key.size() >= 8 && key.compare(key.size() - 8, 8, "_seconds") == 0;
    const double ratio = lower_is_better
                             ? (base > 0 ? now / base : 1.0)
                             : (now > 0 ? base / now : 1e30);
    const bool ok = ratio <= 1.0 + tolerance;
    std::printf("%s %-20s baseline %12.1f  now %12.1f  (%+.1f%%)\n",
                ok ? "  ok" : "FAIL", key.c_str(), base, now,
                100.0 * (now / base - 1.0));
    if (!ok) ++failures;
  }
  return failures;
}

}  // namespace pcmd::bench
