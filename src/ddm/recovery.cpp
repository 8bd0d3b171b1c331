#include "ddm/recovery.hpp"

#include "md/checkpoint.hpp"

#include <cmath>
#include <cstdlib>

namespace pcmd::ddm {

sim::Buffer pack_rank_envelope(const RankEnvelope& envelope) {
  sim::Packer packer(md::kCheckpointHeaderBytes);
  packer.put(envelope.role);
  packer.put(envelope.generation);
  packer.put(envelope.last_busy);
  packer.put(envelope.force_seconds);
  packer.put_vector(envelope.owned);
  packer.put_vector(envelope.owners);
  return md::seal_checkpoint(md::CheckpointKind::kBuddy, packer);
}

RankEnvelope unpack_rank_envelope(sim::Buffer sealed, int expect_columns) {
  RankEnvelope envelope = md::decode_checkpoint(
      md::CheckpointKind::kBuddy, "buddy envelope", std::move(sealed),
      [](sim::Unpacker& unpacker) {
        RankEnvelope decoded;
        decoded.role = unpacker.get<std::int32_t>();
        decoded.generation = unpacker.get<std::int64_t>();
        decoded.last_busy = unpacker.get<double>();
        decoded.force_seconds = unpacker.get<double>();
        decoded.owned = unpacker.get_vector<md::Particle>();
        decoded.owners = unpacker.get_vector<std::int32_t>();
        return decoded;
      });
  if (envelope.role < 0 || envelope.generation < 0) {
    throw md::CheckpointError("buddy envelope: negative role or generation");
  }
  if (static_cast<int>(envelope.owners.size()) != expect_columns) {
    throw md::CheckpointError(
        "buddy envelope: column-map view has " +
        std::to_string(envelope.owners.size()) + " columns, expected " +
        std::to_string(expect_columns));
  }
  return envelope;
}

Watchdog::Report Watchdog::inspect(double total_energy, bool rebase,
                                   int suspect, std::uint64_t corrupt_delta) {
  Report report;
  std::string reason;
  if (!std::isfinite(total_energy)) {
    reason = "non-finite total energy";
  } else if (suspect >= 0) {
    reason = "velocity alarm on role " + std::to_string(suspect);
  } else if (config_.crc_escalation > 0 &&
             corrupt_delta > config_.crc_escalation) {
    reason = std::to_string(corrupt_delta) +
             " corrupt frames in one step (threshold " +
             std::to_string(config_.crc_escalation) + ")";
  } else if (!rebase && !window_.empty()) {
    double mean = 0.0;
    for (const double e : window_) mean += e;
    mean /= static_cast<double>(window_.size());
    const double deviation = std::abs(total_energy - mean);
    if (deviation > config_.energy_tolerance * (std::abs(mean) + 1.0)) {
      reason = "energy drift: |E - <E>| = " + std::to_string(deviation) +
               " against window mean " + std::to_string(mean);
    }
  }

  if (reason.empty()) {
    // Clean step: thermostat rescales restart the window (the jump is
    // legitimate), everything else extends it.
    if (rebase) window_.clear();
    window_.push_back(total_energy);
    while (static_cast<int>(window_.size()) >
           std::max(1, config_.energy_window)) {
      window_.pop_front();
    }
    consecutive_rollbacks_ = 0;
    return report;
  }

  report.reason = reason;
  if (consecutive_rollbacks_ >= config_.max_rollbacks && suspect >= 0) {
    report.verdict = Verdict::kDeclareDead;
    report.suspect = suspect;
  } else {
    report.verdict = Verdict::kRollback;
    report.suspect = suspect;
  }
  return report;
}

void Watchdog::note_rollback() {
  window_.clear();
  ++consecutive_rollbacks_;
}

void Watchdog::note_recovered() {
  window_.clear();
  consecutive_rollbacks_ = 0;
}

}  // namespace pcmd::ddm
