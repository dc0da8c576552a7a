// The redesigned job-execution API: everything that controls *how* a
// MapReduce job runs, as opposed to *what* it computes.
//
// A JobSpec names the computation (input splits, map/reduce functions);
// an ExecutionOptions bundles the runtime knobs that used to accrete as
// flat JobSpec fields — reducer count, partitioner, counter mode — plus
// the fault-tolerance layer introduced with it:
//
//  * task *attempts*: each map/reduce task is a sequence of attempts
//    with a budget of `max_attempts`. An attempt buffers its outputs and
//    counters privately and only the winning attempt commits, so a job
//    that survives failures produces outputs and counters byte-identical
//    to a failure-free run (Hadoop's task-attempt model, which the
//    paper's 0.22 cluster relied on for its evaluation).
//  * a pluggable FaultInjector that decides, deterministically per
//    (task kind, task, attempt), whether an attempt fails midway or is
//    delayed as a straggler — the instrument behind the failure-rate
//    sweeps in EXPERIMENTS.md.
//  * speculative execution: a monitor launches one backup attempt for
//    any attempt that exceeds a slowness threshold; the first attempt to
//    finish commits and the loser is cancelled (cooperatively, through
//    common/threadpool.h's CancelToken).
//  * a structured JobEventTrace (attempt start/finish/fail/kill/
//    speculate plus phase boundaries, each timestamped against the job
//    clock) collected into JobResult and streamed to an optional
//    JobObserver, exportable as JSON by the bench harnesses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace hamming::obs {
class MetricsRegistry;
}  // namespace hamming::obs

namespace hamming::mr {

/// \brief Key -> reducer routing; default hashes the key bytes.
using PartitionFn =
    std::function<std::size_t(const std::vector<uint8_t>& key,
                              std::size_t num_reducers)>;

/// \brief Which kind of task an attempt belongs to.
enum class TaskKind : uint8_t { kMap = 0, kReduce = 1 };

/// \brief Human-readable name ("map" / "reduce").
const char* TaskKindName(TaskKind kind);

/// \brief What the fault injector does to one task attempt.
struct FaultDecision {
  /// Abort the attempt with an injected ExecutionError after roughly
  /// half of its input has been processed (so the attempt has already
  /// buffered output and counters that must be discarded).
  bool fail = false;
  /// Straggler delay: the attempt sleeps this long (cancellably) before
  /// processing its input. 0 = no delay.
  double delay_seconds = 0.0;
};

/// \brief Decides the fate of every task attempt.
///
/// Implementations MUST be pure functions of (kind, task, attempt): the
/// runner may consult them from any worker thread and deterministic
/// re-execution depends on the decision not varying with scheduling.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual FaultDecision OnAttempt(TaskKind kind, std::size_t task,
                                  int attempt) const = 0;
};

/// \brief I.i.d. per-attempt fault model, seeded and scheduling-independent
/// (each decision hashes (seed, kind, task, attempt)).
struct RandomFaultOptions {
  double failure_probability = 0.0;    // per attempt, map and reduce alike
  double straggler_probability = 0.0;  // per attempt
  double straggler_delay_seconds = 0.0;
  uint64_t seed = 0x5eedf417u;
};

class RandomFaultInjector final : public FaultInjector {
 public:
  explicit RandomFaultInjector(RandomFaultOptions opts) : opts_(opts) {}
  FaultDecision OnAttempt(TaskKind kind, std::size_t task,
                          int attempt) const override;

 private:
  RandomFaultOptions opts_;
};

/// \brief A scripted fault against one specific task.
struct TargetedFault {
  TaskKind kind = TaskKind::kMap;
  std::size_t task = 0;
  /// Attempts [0, fail_first_attempts) of the task fail.
  int fail_first_attempts = 0;
  /// Straggler delay injected into attempt 0 only (backups run clean).
  double delay_seconds = 0.0;
};

class TargetedFaultInjector final : public FaultInjector {
 public:
  explicit TargetedFaultInjector(std::vector<TargetedFault> faults)
      : faults_(std::move(faults)) {}
  FaultDecision OnAttempt(TaskKind kind, std::size_t task,
                          int attempt) const override;

 private:
  std::vector<TargetedFault> faults_;
};

/// \brief Backup-attempt policy for straggling tasks.
struct SpeculationOptions {
  bool enabled = false;
  /// An attempt running longer than this gets one backup attempt.
  double slow_attempt_seconds = 0.05;
};

/// \brief One entry of the job's event trace.
enum class JobEventType : uint8_t {
  kAttemptStart = 0,
  kAttemptFinish,     // the attempt committed (it is the winner)
  kAttemptFail,       // the attempt errored (injected or user error)
  kAttemptKill,       // the attempt lost a race and was cancelled
  kAttemptSpeculate,  // a backup attempt was launched for this task
  kPhaseStart,
  kPhaseFinish,
  kSpill,      // a map/merge attempt wrote a sorted run to disk
  kMergePass,  // a reduce attempt's shuffle merge opened (detail: fan-in)
};

/// \brief Human-readable event-type name ("attempt_start", ...).
const char* JobEventTypeName(JobEventType type);

/// \brief Marker for events not tied to a task (phase boundaries).
inline constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

struct JobEvent {
  JobEventType type = JobEventType::kAttemptStart;
  TaskKind kind = TaskKind::kMap;
  std::size_t task = kNoTask;
  int attempt = -1;
  /// Seconds since the job started, on the job's steady clock.
  double time_seconds = 0.0;
  /// For finish/fail/kill/phase-finish: how long the attempt/phase ran.
  double duration_seconds = 0.0;
  /// Error text, phase name ("map"/"shuffle"/"reduce"), or "".
  std::string detail;
};

/// \brief Attempt-level accounting derived from a trace.
struct AttemptStats {
  int64_t started = 0;
  int64_t finished = 0;
  int64_t failed = 0;
  int64_t killed = 0;
  int64_t speculated = 0;
};

/// \brief The ordered event log of one job run.
///
/// The runner appends under its own lock; a finished trace is plain data
/// (copyable, no synchronization) inside JobResult.
class JobEventTrace {
 public:
  void Append(JobEvent event) { events_.push_back(std::move(event)); }
  const std::vector<JobEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// \brief Number of events of one type.
  int64_t Count(JobEventType type) const;

  /// \brief Attempt-level totals.
  AttemptStats Stats() const;

  /// \brief The whole trace as a JSON array (one object per event).
  std::string ToJson() const;

 private:
  std::vector<JobEvent> events_;
};

/// \brief Subscriber for job events, the push-style alternative to
/// scraping JobResult::trace after the fact.
///
/// OnEvent calls are serialized by the runner (one event at a time) but
/// may arrive from any worker thread; the observer must outlive RunJob.
class JobObserver {
 public:
  virtual ~JobObserver() = default;
  virtual void OnEvent(const JobEvent& event) = 0;
};

/// \brief Marker for "no shuffle memory budget": the runtime keeps the
/// all-in-memory shuffle fast path.
inline constexpr std::size_t kUnlimitedShuffleMemory =
    static_cast<std::size_t>(-1);

/// \brief Everything that controls how a job executes.
struct ExecutionOptions {
  std::size_t num_reducers = 1;
  PartitionFn partition_fn;  // null = HashPartition
  /// Attempt budget per task; the job aborts with the task's first
  /// error once a task has failed this many times. Must be >= 1.
  std::size_t max_attempts = 1;
  SpeculationOptions speculation;
  /// Null = no injected faults.
  std::shared_ptr<const FaultInjector> fault;
  /// Optional event subscriber (non-owning; must outlive RunJob).
  JobObserver* observer = nullptr;
  /// Optional metrics sink (non-owning; must outlive RunJob). The runner
  /// records per-reducer input load histograms ("mr.reduce_input_records"
  /// / "mr.reduce_input_bytes", one sample per reducer — their
  /// SkewMaxOverMean is the job's skew coefficient) plus wall-clock phase
  /// durations under "time."-prefixed names ("time.map_micros", ...).
  /// Everything except the "time." metrics is derived from committed
  /// state only, so the recorded values are identical across retries,
  /// speculation, and fault injection.
  obs::MetricsRegistry* metrics = nullptr;

  // ---- External shuffle (mapreduce/shuffle.h) --------------------------
  /// Per-task shuffle memory budget in bytes. With a finite budget a map
  /// task buffers at most this many serialized record bytes before
  /// sorting the buffer and spilling it to disk as one run per reducer
  /// partition, and each reducer's input is streamed through a k-way
  /// merge of those runs instead of being materialized. The default,
  /// kUnlimitedShuffleMemory, keeps the all-in-memory fast path. Job
  /// outputs and the logical counters are byte-identical whatever the
  /// budget. The HAMMING_SHUFFLE_BUDGET environment variable overrides
  /// the default for jobs that did not set a budget explicitly (the
  /// sanitizer sweep in scripts/check.sh uses it to push every test
  /// through the spill/merge paths).
  std::size_t shuffle_memory_bytes = kUnlimitedShuffleMemory;
  /// Maximum number of sorted runs one merge pass consumes. A reducer
  /// facing more spill segments than this first runs intermediate merge
  /// passes (re-applying the job's combiner, if any) until the final
  /// streaming merge is within the fan-in cap. Must be >= 2.
  std::size_t shuffle_max_merge_fanin = 16;
  /// Directory for spill files; "" uses the system temp directory. Each
  /// job creates (and on completion removes) a private subdirectory.
  std::string shuffle_dir;
};

}  // namespace hamming::mr
