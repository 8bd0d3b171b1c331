// Exporter tests: the Chrome trace-event JSON must parse, label every rank,
// and keep per-rank timestamps monotone; the CSV must follow the fixed
// schema exactly and round-trip doubles.
#include "obs/chrome_trace.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"

#include "sim/comm.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

namespace pcmd::obs {
namespace {

// ---- minimal JSON parser (objects, arrays, strings, numbers, literals) ----
// Just enough to validate the exporter's output; throws on malformed input.

struct Json;
using JsonObject = std::map<std::string, Json>;
using JsonArray = std::vector<Json>;

struct Json {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      value;

  const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(value);
  }
  const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(value);
  }
  const std::string& str() const { return std::get<std::string>(value); }
  double number() const { return std::get<double>(value); }
  bool has(const std::string& key) const {
    return object().count(key) > 0;
  }
  const Json& at(const std::string& key) const { return object().at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    const Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing JSON");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  Json parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json{parse_string()};
      case 't':
        expect_literal("true");
        return Json{true};
      case 'f':
        expect_literal("false");
        return Json{false};
      case 'n':
        expect_literal("null");
        return Json{nullptr};
      default:
        return parse_number();
    }
  }

  void expect_literal(const std::string& literal) {
    skip_ws();
    if (text_.compare(pos_, literal.size(), literal) != 0) {
      throw std::runtime_error("bad literal at " + std::to_string(pos_));
    }
    pos_ += literal.size();
  }

  Json parse_object() {
    expect('{');
    auto object = std::make_shared<JsonObject>();
    if (peek() == '}') {
      ++pos_;
      return Json{object};
    }
    while (true) {
      std::string key = parse_string();
      expect(':');
      (*object)[std::move(key)] = parse_value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json{object};
    }
  }

  Json parse_array() {
    expect('[');
    auto array = std::make_shared<JsonArray>();
    if (peek() == ']') {
      ++pos_;
      return Json{array};
    }
    while (true) {
      array->push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json{array};
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out.push_back(esc);
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u':
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
            out += static_cast<char>(
                std::strtol(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          default:
            throw std::runtime_error("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= text_.size()) throw std::runtime_error("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  Json parse_number() {
    skip_ws();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) throw std::runtime_error("bad number");
    pos_ += static_cast<std::size_t>(end - start);
    return Json{value};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// A small but representative trace: machine events plus application spans on
// two ranks, including a name needing JSON escaping. Fills a caller-owned
// collector (TraceCollector is neither copyable nor movable).
void fill_trace(TraceCollector& collector) {
  const auto weird = collector.intern("drift \"fast\"\\slow\n");
  const auto force = collector.intern("force");
  collector.span_begin(0, weird, 0.0);
  collector.span_end(0, weird, 1.0e-3);
  collector.span_begin(1, force, 0.0);
  collector.on_compute(1, 0.0, 2.0e-3);
  collector.span_end(1, force, 2.0e-3);
  collector.on_send(0, 1, 7, 128, 1.0e-3);
  collector.on_recv(1, 0, 7, 128, 2.5e-3, 0.5e-3);
  collector.on_collective_begin(0, 0, 3, 1.0e-3);
  collector.on_collective_end(0, 3.0e-3, 1.0e-3);
  collector.dlb_decision(0, 4, 2, 3.0e-3);
  collector.counter(1, force, 2.5e-3, 17.0);
}

TEST(ChromeTrace, ParsesAndHasExpectedStructure) {
  TraceCollector collector(2, {});
  fill_trace(collector);
  std::ostringstream os;
  write_chrome_trace(os, collector);

  const Json root = JsonParser(os.str()).parse();
  EXPECT_EQ(root.at("displayTimeUnit").str(), "ms");
  const auto& events = root.at("traceEvents").array();
  ASSERT_GT(events.size(), 0u);

  // One thread_name metadata record per rank.
  std::map<int, std::string> thread_names;
  for (const auto& event : events) {
    if (event.at("ph").str() == "M") {
      EXPECT_EQ(event.at("name").str(), "thread_name");
      thread_names[static_cast<int>(event.at("tid").number())] =
          event.at("args").at("name").str();
    }
  }
  EXPECT_EQ(thread_names,
            (std::map<int, std::string>{{0, "rank 0"}, {1, "rank 1"}}));

  // Escaped span name round-trips through the JSON.
  bool found_weird = false;
  for (const auto& event : events) {
    if (event.at("name").str() == "drift \"fast\"\\slow\n") found_weird = true;
  }
  EXPECT_TRUE(found_weird);

  // Every non-metadata event has ph/tid/ts; instants carry scope "t".
  for (const auto& event : events) {
    const auto& ph = event.at("ph").str();
    if (ph == "M") continue;
    EXPECT_TRUE(event.has("ts"));
    EXPECT_TRUE(event.has("tid"));
    if (ph == "i") {
      EXPECT_EQ(event.at("s").str(), "t");
    }
    if (ph == "X") {
      EXPECT_GE(event.at("dur").number(), 0.0);
    }
  }
}

TEST(ChromeTrace, TimestampsMonotonePerRank) {
  TraceCollector collector(2, {});
  fill_trace(collector);
  std::ostringstream os;
  write_chrome_trace(os, collector);
  const Json root = JsonParser(os.str()).parse();

  std::map<int, double> last;
  for (const auto& event : root.at("traceEvents").array()) {
    if (event.at("ph").str() == "M") continue;
    const int tid = static_cast<int>(event.at("tid").number());
    const double ts = event.at("ts").number();
    if (last.count(tid)) {
      EXPECT_GE(ts, last[tid]);
    }
    last[tid] = ts;
  }
  EXPECT_EQ(last.size(), 2u);
}

TEST(ChromeTrace, SpanBeginEndBalancedPerRank) {
  TraceCollector collector(2, {});
  fill_trace(collector);
  std::ostringstream os;
  write_chrome_trace(os, collector);
  const Json root = JsonParser(os.str()).parse();

  std::map<int, int> depth;
  for (const auto& event : root.at("traceEvents").array()) {
    const auto& ph = event.at("ph").str();
    const int tid = static_cast<int>(event.at("tid").number());
    if (ph == "B") depth[tid]++;
    if (ph == "E") {
      depth[tid]--;
      EXPECT_GE(depth[tid], 0);
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
}

TEST(ChromeTrace, EngineDrivenTraceParses) {
  sim::SeqEngine engine(3, sim::MachineModel::t3e());
  TraceCollector collector;
  engine.set_trace_sink(&collector);
  for (int step = 0; step < 3; ++step) {
    engine.run_phase([](sim::Comm& comm) {
      comm.advance(1.0e-4 * (comm.rank() + 1));
      comm.send((comm.rank() + 1) % comm.size(), 1, sim::Buffer(32));
      comm.reduce_begin(sim::ReduceOp::kMax, 1.0);
    });
    engine.run_phase([](sim::Comm& comm) {
      const int src = (comm.rank() + comm.size() - 1) % comm.size();
      (void)comm.recv(src, 1);
      (void)comm.reduce_end();
    });
  }
  engine.set_trace_sink(nullptr);

  std::ostringstream os;
  write_chrome_trace(os, collector);
  const Json root = JsonParser(os.str()).parse();
  std::map<int, double> last;
  std::size_t count = 0;
  for (const auto& event : root.at("traceEvents").array()) {
    if (event.at("ph").str() == "M") continue;
    ++count;
    const int tid = static_cast<int>(event.at("tid").number());
    const double ts = event.at("ts").number();
    if (last.count(tid)) {
      EXPECT_GE(ts, last[tid]);
    }
    last[tid] = ts;
  }
  // 3 steps x (compute + send + coll begin + recv + coll end) x 3 ranks,
  // plus "wait" X events where clocks jumped.
  EXPECT_GE(count, 45u);
}

// ---- CSV ----

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string field;
  for (const char c : line) {
    if (c == sep) {
      out.push_back(field);
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  out.push_back(field);
  return out;
}

TEST(MetricsCsv, HeaderMatchesSchema) {
  EXPECT_EQ(csv_header(),
            "step,t_step,force_max,force_avg,force_min,wait_seconds,"
            "collective_seconds,messages,bytes,transfers,potential_energy,"
            "kinetic_energy,temperature,retransmissions,recv_timeouts,"
            "faults_dropped,faults_corrupted,faults_delayed,checkpoint_bytes,"
            "rollbacks,failovers,particles_recovered,imbalance,cells_moved");

  std::ostringstream os;
  write_csv(os, {});
  std::istringstream is(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header, csv_header());
  std::string rest;
  EXPECT_FALSE(std::getline(is, rest));
}

TEST(MetricsCsv, RowsRoundTripDoubles) {
  std::vector<StepMetrics> rows(2);
  rows[0].step = 1;
  rows[0].t_step = 0.1234567890123456789;
  rows[0].force_max = 1.0 / 3.0;
  rows[0].wait_seconds = 1e-17;
  rows[0].messages = 360;
  rows[0].bytes = 123456789;
  rows[0].transfers = 2;
  rows[0].potential_energy = -15029.987440288781;
  rows[0].checkpoint_bytes = 4096;
  rows[0].rollbacks = 1;
  rows[0].failovers = 2;
  rows[0].particles_recovered = 345;
  rows[1].step = 2;
  rows[1].kinetic_energy = 11538.228235690989;

  std::ostringstream os;
  write_csv(os, rows);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));  // header
  const auto n_fields = split(csv_header(), ',').size();

  ASSERT_TRUE(std::getline(is, line));
  auto fields = split(line, ',');
  ASSERT_EQ(fields.size(), n_fields);
  EXPECT_EQ(fields[0], "1");
  // %.17g guarantees bitwise round-trip through strtod.
  EXPECT_EQ(std::strtod(fields[1].c_str(), nullptr), rows[0].t_step);
  EXPECT_EQ(std::strtod(fields[2].c_str(), nullptr), rows[0].force_max);
  EXPECT_EQ(std::strtod(fields[5].c_str(), nullptr), rows[0].wait_seconds);
  EXPECT_EQ(fields[7], "360");
  EXPECT_EQ(fields[8], "123456789");
  EXPECT_EQ(fields[9], "2");
  EXPECT_EQ(std::strtod(fields[10].c_str(), nullptr),
            rows[0].potential_energy);
  EXPECT_EQ(fields[18], "4096");
  EXPECT_EQ(fields[19], "1");
  EXPECT_EQ(fields[20], "2");
  EXPECT_EQ(fields[21], "345");

  ASSERT_TRUE(std::getline(is, line));
  fields = split(line, ',');
  ASSERT_EQ(fields.size(), n_fields);
  EXPECT_EQ(fields[0], "2");
  EXPECT_EQ(std::strtod(fields[11].c_str(), nullptr),
            rows[1].kinetic_energy);
  EXPECT_FALSE(std::getline(is, line));
}

TEST(MetricsRecorder, DeltasAgainstEngineCounters) {
  sim::SeqEngine engine(2, sim::MachineModel::t3e());
  MetricsRecorder recorder(engine);

  engine.run_phase([](sim::Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 1, sim::Buffer(100));
  });
  engine.run_phase([](sim::Comm& comm) {
    if (comm.rank() == 1) (void)comm.recv(0, 1);
  });

  // The caller's fields pass through; the engine fields are overwritten.
  StepMetrics input;
  input.step = 1;
  input.imbalance = 0.25;
  input.messages = 99;
  const auto& row1 = recorder.record(input);
  EXPECT_EQ(row1.step, 1);
  EXPECT_EQ(row1.imbalance, 0.25);
  EXPECT_EQ(row1.messages, 1u);
  EXPECT_EQ(row1.bytes, 100u);
  EXPECT_GT(row1.wait_seconds, 0.0);

  // No traffic since the last record: the next row's deltas are zero.
  input.step = 2;
  const auto& row2 = recorder.record(input);
  EXPECT_EQ(row2.messages, 0u);
  EXPECT_EQ(row2.bytes, 0u);
  EXPECT_EQ(row2.wait_seconds, 0.0);
  EXPECT_EQ(recorder.rows().size(), 2u);
}

}  // namespace
}  // namespace pcmd::obs
