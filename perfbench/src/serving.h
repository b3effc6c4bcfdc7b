// Engine set-up shared by the two serving workloads.
#pragma once

#include <cstdint>

#include "serve/engine.h"

namespace perfbench {

/// Queries per request and the serving patch shape (1, 4, 4, 8, 8).
inline constexpr std::int64_t kServeQueries = 256;
inline constexpr std::int64_t kPatchT = 4, kPatchZ = 8, kPatchX = 8;
inline constexpr std::int64_t kPatchChannels = 4;
/// The fp32 parity bound the serve tests hold responses to.
inline constexpr double kParityBound = 2e-5;

/// The production-hardened engine: bounded queue with ShedOldest admission
/// and the precision brownout on (watermarks in requests of kServeQueries
/// rows), 300 us batching window. A full queue drains in about 20 ms on the
/// serial engine, well inside serve_hot's 50 ms deadline, so over-capacity
/// goodput follows the engine's speed. With 64 queued requests the wait
/// (34-46 ms at 1900-1400 rps) came within a few ms of the deadline, so
/// answered requests missed it whenever decode slowed.
inline mfn::serve::InferenceEngineConfig hardened_engine_config() {
  mfn::serve::InferenceEngineConfig cfg;
  cfg.batcher.max_wait_us = 300;
  cfg.batcher.max_queue_rows = 32 * kServeQueries;
  cfg.batcher.admission = mfn::serve::AdmissionPolicy::kShedOldest;
  cfg.batcher.brownout.enabled = true;
  cfg.batcher.brownout.high_rows = 24 * kServeQueries;
  cfg.batcher.brownout.low_rows = 6 * kServeQueries;
  cfg.batcher.brownout.dwell_flushes = 2;
  return cfg;
}

}  // namespace perfbench
