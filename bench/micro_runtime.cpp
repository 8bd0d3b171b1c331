// Micro-benchmarks M2: the virtual parallel machine runtime.
//
// Host-side overhead of phases, message passing and collectives on one
// worker (SeqEngine) and on the hardware's worker count (ThreadEngine) —
// the fixed cost the simulation harness pays per MD step, as
// opposed to the modelled (virtual) time. The BM_Trace* group measures the
// observability layer: detached (compiled in, no sink — must stay within a
// few percent of the plain runtime) vs attached (events recorded).

#include "obs/collector.hpp"
#include "sim/comm.hpp"

#include <benchmark/benchmark.h>

#include <vector>

namespace {

using namespace pcmd::sim;

void BM_SeqPhase(benchmark::State& state) {
  SeqEngine engine(static_cast<int>(state.range(0)),
                   MachineModel::ideal_network());
  for (auto _ : state) {
    engine.run_phase([](Comm& comm) { comm.advance(1e-9); });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeqPhase)->Arg(9)->Arg(36)->Arg(64);

// Ranks split into min(hw, ranks) blocks: past the core count the cost per
// phase grows with the ranks each worker runs, not with thread wake-ups.
void BM_ThreadPhase(benchmark::State& state) {
  ThreadEngine engine(static_cast<int>(state.range(0)),
                      MachineModel::ideal_network());
  for (auto _ : state) {
    engine.run_phase([](Comm& comm) { comm.advance(1e-9); });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ThreadPhase)->Arg(9)->Arg(36)->Arg(256);

// Each rank sends the buffer it received last round, so the timed loop
// allocates and zero-fills no payload: it times the transport only.
void BM_SendRecvRing(benchmark::State& state) {
  const int ranks = 16;
  SeqEngine engine(ranks, MachineModel::ideal_network());
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<Buffer> payloads(ranks, Buffer(bytes));
  for (auto _ : state) {
    engine.run_phase([&payloads](Comm& comm) {
      comm.send((comm.rank() + 1) % comm.size(), 0,
                std::move(payloads[static_cast<std::size_t>(comm.rank())]));
    });
    engine.run_phase([&payloads](Comm& comm) {
      const int src = (comm.rank() + comm.size() - 1) % comm.size();
      auto& slot = payloads[static_cast<std::size_t>(comm.rank())];
      slot = comm.recv(src, 0);
      benchmark::DoNotOptimize(slot.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * ranks *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SendRecvRing)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Collective(benchmark::State& state) {
  SeqEngine engine(static_cast<int>(state.range(0)),
                   MachineModel::ideal_network());
  for (auto _ : state) {
    engine.run_phase([](Comm& comm) {
      comm.reduce_begin(ReduceOp::kSum, 1.0);
    });
    engine.run_phase([](Comm& comm) {
      benchmark::DoNotOptimize(comm.reduce_end());
    });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Collective)->Arg(9)->Arg(64);

// The traced workload: one compute advance, one ring send + recv, one
// reduction — every hook the engine can fire, once per rank per iteration.
void traffic_phases(Engine& engine) {
  engine.run_phase([](Comm& comm) {
    comm.advance(1e-9);
    Buffer payload(64);
    comm.send((comm.rank() + 1) % comm.size(), 0, std::move(payload));
    comm.reduce_begin(ReduceOp::kSum, 1.0);
  });
  engine.run_phase([](Comm& comm) {
    const int src = (comm.rank() + comm.size() - 1) % comm.size();
    benchmark::DoNotOptimize(comm.recv(src, 0));
    benchmark::DoNotOptimize(comm.reduce_end());
  });
}

void BM_TraceDetached(benchmark::State& state) {
  SeqEngine engine(static_cast<int>(state.range(0)),
                   MachineModel::ideal_network());
  for (auto _ : state) {
    traffic_phases(engine);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceDetached)->Arg(9)->Arg(36);

void BM_TraceAttached(benchmark::State& state) {
  SeqEngine engine(static_cast<int>(state.range(0)),
                   MachineModel::ideal_network());
  pcmd::obs::TraceCollector collector;
  engine.set_trace_sink(&collector);
  for (auto _ : state) {
    traffic_phases(engine);
  }
  engine.set_trace_sink(nullptr);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceAttached)->Arg(9)->Arg(36);

void BM_PackUnpackParticles(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<double> values(count, 1.25);
  for (auto _ : state) {
    Packer packer;
    packer.put_vector(values);
    Unpacker unpacker(packer.take());
    benchmark::DoNotOptimize(unpacker.get_vector<double>());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(count * sizeof(double)));
}
BENCHMARK(BM_PackUnpackParticles)->Arg(64)->Arg(4096);

}  // namespace
