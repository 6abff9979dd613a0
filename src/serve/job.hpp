// Job model of the serving layer (docs/serving.md).
//
// A job is one small SPD factorization request: a (tiles, nb) geometry, a
// seed naming the deterministic synthetic input, a priority and an
// optional deadline. Jobs sharing a geometry are fused into one batch
// task graph per scheduler instance (serve/batch.hpp), which amortizes
// graph construction.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "runtime/cancel.hpp"
#include "runtime/run_report.hpp"

namespace hetsched::serve {

/// One factorization request.
struct JobSpec {
  int tiles = 8;             ///< tile rows/cols of the SPD matrix
  int nb = 64;               ///< tile size (batch key together with tiles)
  unsigned seed = 0;         ///< synthetic_spd input seed
  int priority = 0;          ///< admission/shedding rank, higher first
  /// Wall-clock deadline measured from admission, queue wait included
  /// (0 = none). Enforced cooperatively: an expired job never starts
  /// another task, and one that expires while queued never runs at all.
  double deadline_ms = 0.0;
};

/// Size caps of one job, fixed and checked in O(1) by
/// BoundedJobQueue::admit before anything is allocated for the job: a
/// spec beyond any of them is rejected as kBadSpec. A batch fuses at most
/// ServerOptions::max_batch jobs, so they also bound one batch graph and
/// its matrices.
/// Tasks of the job's Cholesky DAG, total_task_count(tiles) (91 tiles fit,
/// 92 do not).
inline constexpr std::int64_t kMaxJobTasks = std::int64_t{1} << 17;
/// Bytes of the job's lower-triangle tiles (one tile of nb = 4096 fits).
inline constexpr std::int64_t kMaxJobBytes = std::int64_t{128} << 20;
/// Deadline, in ms (about 11.6 days; a larger one would overflow the
/// steady clock's representation when armed).
inline constexpr double kMaxJobDeadlineMs = 1e9;
/// Bytes of one daemon request line, newline excluded (a SUBMIT line is
/// under 100 bytes). hetsched_serve answers a longer line with
/// "ERR request too long" and closes the connection, so a client cannot
/// grow the daemon's memory by never sending a newline.
inline constexpr std::size_t kMaxRequestBytes = 1024;

/// Whether `spec` is admissible: positive tiles and nb, a deadline in
/// [0, kMaxJobDeadlineMs] and both size caps kept. No int spec overflows
/// the check.
bool valid_job_spec(const JobSpec& spec);

/// Lifecycle of an admitted job. Terminal states are everything except
/// kQueued / kRunning; a transiently failed attempt goes back to kQueued
/// until the retry budget is exhausted.
enum class JobState {
  kQueued,            ///< admitted, waiting for a batch slot
  kRunning,           ///< part of an in-flight batch run
  kDone,              ///< factorization completed
  kFailed,            ///< numeric failure or retry budget exhausted
  kCancelled,         ///< cancelled (shutdown or explicit)
  kDeadlineExceeded,  ///< deadline elapsed before completion
  kShed,              ///< evicted from a full queue by a higher priority job
};

const char* to_string(JobState s);

/// Whether `s` is a state no transition leaves.
inline bool terminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

/// One admitted job's record. Mutable fields are guarded by the server
/// mutex; the token is the lock-free exception -- it is polled by worker
/// threads mid-run and armed once at admission.
struct JobRecord {
  int id = -1;
  JobSpec spec;
  JobState state = JobState::kQueued;
  int attempts = 0;                 ///< batch runs this job took part in
  std::string error;                ///< "" unless kFailed
  runtime::RunErrorKind error_kind = runtime::RunErrorKind::None;
  double queue_ms = 0.0;            ///< admission -> first run start
  double latency_ms = 0.0;          ///< admission -> terminal state
  std::chrono::steady_clock::time_point admitted_at{};
  /// Armed with the job deadline at admission; fired by shutdown/shedding.
  CancelToken token;
};

using JobPtr = std::shared_ptr<JobRecord>;

/// Why a submission was not admitted.
enum class RejectReason {
  kNone,      ///< admitted
  kQueueFull, ///< depth limit hit and nothing lower-priority to shed
  kLatency,   ///< estimated queue wait exceeds the latency SLO
  kDraining,  ///< server is draining / stopped
  kBadSpec,   ///< non-positive tiles/nb, a size cap exceeded, bad deadline
};

const char* to_string(RejectReason r);

/// Outcome of FactorizationServer::submit: either an admitted job id (and
/// possibly the id of a lower-priority job shed to make room), or a
/// structured rejection.
struct SubmitResult {
  bool admitted = false;
  int id = -1;
  RejectReason reason = RejectReason::kNone;
  std::string message;    ///< human-readable rejection detail ("" if admitted)
  std::size_t depth = 0;  ///< queue depth after the decision
  int shed_id = -1;       ///< job evicted to admit this one (-1: none)
};

}  // namespace hetsched::serve
