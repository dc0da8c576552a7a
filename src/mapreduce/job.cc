#include "mapreduce/job.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/sync.h"
#include "mapreduce/shuffle.h"
#include "observability/metric_names.h"
#include "observability/metrics.h"
#include "observability/stopwatch.h"

namespace hamming::mr {

using obs::Stopwatch;

std::size_t HashPartition(const std::vector<uint8_t>& key,
                          std::size_t num_reducers) {
  uint64_t h = 14695981039346656037ull;
  for (uint8_t b : key) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % num_reducers);
}

std::vector<std::vector<Record>> SplitEvenly(std::vector<Record> records,
                                             std::size_t num_splits) {
  num_splits = std::max<std::size_t>(1, num_splits);
  std::vector<std::vector<Record>> splits(num_splits);
  const std::size_t n = records.size();
  for (std::size_t s = 0; s < num_splits; ++s) {
    std::size_t begin = s * n / num_splits;
    std::size_t end = (s + 1) * n / num_splits;
    splits[s].assign(std::make_move_iterator(records.begin() + begin),
                     std::make_move_iterator(records.begin() + end));
  }
  return splits;
}

namespace {

// HAMMING_SHUFFLE_BUDGET (bytes) overrides the shuffle memory budget for
// jobs that did not set one explicitly; scripts/check.sh uses it to push
// every test through the spill/merge paths. Parsed once per process.
std::size_t EnvShuffleBudget() {
  static const std::size_t parsed = [] {
    const char* env = std::getenv("HAMMING_SHUFFLE_BUDGET");
    if (env == nullptr || *env == '\0') return kUnlimitedShuffleMemory;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || v == 0) return kUnlimitedShuffleMemory;
    return static_cast<std::size_t>(v);
  }();
  return parsed;
}

// Effective execution options for one run.
ExecutionOptions ResolveOptions(const JobSpec& spec) {
  ExecutionOptions opts = spec.options;
  if (!opts.partition_fn) opts.partition_fn = PartitionFn(HashPartition);
  if (opts.shuffle_memory_bytes == kUnlimitedShuffleMemory) {
    opts.shuffle_memory_bytes = EnvShuffleBudget();
  }
  return opts;
}

// Serializes trace appends and observer callbacks, timestamping every
// event against the job clock.
class EventLog {
 public:
  EventLog(JobEventTrace* trace, JobObserver* observer,
           const Stopwatch* clock)
      : trace_(trace), observer_(observer), clock_(clock) {}

  void Attempt(JobEventType type, TaskKind kind, std::size_t task,
               int attempt, double duration = 0.0, std::string detail = {}) {
    JobEvent e;
    e.type = type;
    e.kind = kind;
    e.task = task;
    e.attempt = attempt;
    e.time_seconds = clock_->ElapsedSeconds();
    e.duration_seconds = duration;
    e.detail = std::move(detail);
    Push(std::move(e));
  }

  void Phase(JobEventType type, const char* phase, double duration = 0.0) {
    JobEvent e;
    e.type = type;
    e.task = kNoTask;
    e.attempt = -1;
    e.time_seconds = clock_->ElapsedSeconds();
    e.duration_seconds = duration;
    e.detail = phase;
    Push(std::move(e));
  }

 private:
  void Push(JobEvent e) HAMMING_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (observer_ != nullptr) observer_->OnEvent(e);
    trace_->Append(std::move(e));
  }

  Mutex mu_;
  // Pointees are only touched under mu_ (the serialization the trace and
  // observer contracts promise); the pointers themselves are immutable.
  JobEventTrace* const trace_ HAMMING_PT_GUARDED_BY(mu_);
  JobObserver* const observer_ HAMMING_PT_GUARDED_BY(mu_);
  const Stopwatch* clock_;
};

// Everything one attempt produced. Buffered privately and committed only
// if the attempt wins, so failed/cancelled attempts leave no trace in the
// job's outputs or counters.
struct AttemptOutput {
  std::vector<std::vector<Record>> map_partitions;  // map attempts (in-memory)
  std::vector<SpillFileRef> spills;                 // map attempts (external)
  std::vector<Record> reduce_records;               // reduce attempts
  LocalCounters counts;
};

// The body of one attempt: fills `out`, polls `token` between records.
using AttemptFn = std::function<Status(std::size_t task, int attempt,
                                       CancelToken* token,
                                       AttemptOutput* out)>;
// Moves the winning attempt's output into the phase result. Called at
// most once per task, guarded by the task's committed flag.
using CommitFn = std::function<void(std::size_t task, AttemptOutput* out)>;

// Runs one phase's tasks through the attempt layer: a retry budget of
// max_attempts per task, an optional speculation monitor that launches
// one backup attempt per straggling task, and cooperative cancellation
// of racing attempts. The first task to exhaust its budget decides the
// phase's error.
class PhaseRunner {
 public:
  PhaseRunner(ThreadPool* pool, TaskKind kind, std::size_t num_tasks,
              const ExecutionOptions& opts, EventLog* events)
      : pool_(pool),
        kind_(kind),
        opts_(opts),
        events_(events),
        tasks_(num_tasks) {}

  Status Run(const AttemptFn& attempt_fn, const CommitFn& commit_fn) {
    Thread monitor;
    if (opts_.speculation.enabled) {
      monitor = Thread(
          [this, &attempt_fn, &commit_fn] { MonitorLoop(attempt_fn, commit_fn); });
    }
    ParallelFor(pool_, tasks_.size(), [&](std::size_t task) {
      Coordinator(task, attempt_fn, commit_fn);
    });
    if (monitor.joinable()) {
      {
        MutexLock lock(&watch_mu_);
        monitor_stop_ = true;
      }
      watch_cv_.NotifyAll();
      monitor.join();
    }
    // Backup attempts that lost their race may still be running; the
    // phase's state is only safe to tear down once they have drained.
    // The monitor is stopped, so no new ones appear.
    std::vector<Thread> pending;
    {
      MutexLock lock(&backups_mu_);
      pending.swap(backups_);
    }
    for (auto& t : pending) t.join();

    for (std::size_t t = 0; t < tasks_.size(); ++t) {
      MutexLock lock(&tasks_[t].mu);
      if (tasks_[t].failed) return tasks_[t].first_error;
    }
    return Status::OK();
  }

 private:
  struct TaskState {
    Mutex mu;
    bool committed HAMMING_GUARDED_BY(mu) = false;
    bool failed HAMMING_GUARDED_BY(mu) = false;  // attempt budget exhausted
    int next_attempt HAMMING_GUARDED_BY(mu) = 0;
    std::size_t failures HAMMING_GUARDED_BY(mu) = 0;
    bool has_first_error HAMMING_GUARDED_BY(mu) = false;
    Status first_error HAMMING_GUARDED_BY(mu);
    bool speculated HAMMING_GUARDED_BY(mu) = false;  // one backup per task
    std::unordered_map<int, std::shared_ptr<CancelToken>> live
        HAMMING_GUARDED_BY(mu);
  };

  enum class Outcome { kCommitted, kLost, kRetry, kPermanentFailure };

  Outcome RunOneAttempt(std::size_t task, bool speculative,
                        const AttemptFn& attempt_fn,
                        const CommitFn& commit_fn) {
    TaskState& st = tasks_[task];
    auto token = std::make_shared<CancelToken>();
    int attempt;
    {
      MutexLock lock(&st.mu);
      if (st.committed) return Outcome::kLost;
      if (st.failed) return Outcome::kPermanentFailure;
      attempt = st.next_attempt++;
      st.live.emplace(attempt, token);
    }
    events_->Attempt(JobEventType::kAttemptStart, kind_, task, attempt, 0.0,
                     speculative ? "speculative" : "");
    if (opts_.speculation.enabled && !speculative) StartWatch(task);

    Stopwatch watch;
    AttemptOutput out;
    Status status = attempt_fn(task, attempt, token.get(), &out);
    const double duration = watch.ElapsedSeconds();

    if (opts_.speculation.enabled && !speculative) StopWatch(task);

    ReleasableMutexLock lock(&st.mu);
    st.live.erase(attempt);
    if (st.committed) {
      lock.Release();
      events_->Attempt(JobEventType::kAttemptKill, kind_, task, attempt,
                       duration, "task already committed");
      return Outcome::kLost;
    }
    if (status.ok() && !token->cancelled()) {
      st.committed = true;
      for (auto& [id, other] : st.live) other->Cancel();
      lock.Release();
      commit_fn(task, &out);
      events_->Attempt(JobEventType::kAttemptFinish, kind_, task, attempt,
                       duration);
      return Outcome::kCommitted;
    }
    if (token->cancelled()) {
      lock.Release();
      events_->Attempt(JobEventType::kAttemptKill, kind_, task, attempt,
                       duration, "cancelled");
      return Outcome::kLost;
    }
    // A real failure (injected or user error): charge the budget.
    ++st.failures;
    if (!st.has_first_error) {
      st.has_first_error = true;
      st.first_error = status;
    }
    const bool permanent = st.failures >= opts_.max_attempts;
    if (permanent) {
      st.failed = true;
      for (auto& [id, other] : st.live) other->Cancel();
    }
    lock.Release();
    events_->Attempt(JobEventType::kAttemptFail, kind_, task, attempt,
                     duration, status.ToString());
    return permanent ? Outcome::kPermanentFailure : Outcome::kRetry;
  }

  // One coordinator per task runs on the pool (as one pool task) and
  // retries failures inline; backups run as separate pool tasks.
  void Coordinator(std::size_t task, const AttemptFn& attempt_fn,
                   const CommitFn& commit_fn) {
    for (;;) {
      switch (RunOneAttempt(task, /*speculative=*/false, attempt_fn,
                            commit_fn)) {
        case Outcome::kRetry:
          continue;
        case Outcome::kCommitted:
        case Outcome::kLost:
        case Outcome::kPermanentFailure:
          return;
      }
    }
  }

  void StartWatch(std::size_t task) HAMMING_EXCLUDES(watch_mu_) {
    MutexLock lock(&watch_mu_);
    watches_[task] = std::chrono::steady_clock::now();
  }

  void StopWatch(std::size_t task) HAMMING_EXCLUDES(watch_mu_) {
    MutexLock lock(&watch_mu_);
    watches_.erase(task);
  }

  // The speculation monitor: wakes a few times per threshold interval,
  // finds primary attempts that have been running longer than the
  // slowness threshold, and launches one backup attempt for each such
  // task. Acquisition order is declared in tools/analyze/lock_order.toml
  // ("watch" -> "task") and machine-verified by the analyze stage.
  void MonitorLoop(const AttemptFn& attempt_fn, const CommitFn& commit_fn)
      HAMMING_EXCLUDES(watch_mu_) {
    const double threshold = opts_.speculation.slow_attempt_seconds;
    const auto interval =
        std::chrono::duration<double>(std::max(threshold / 4.0, 0.0005));
    MutexLock lock(&watch_mu_);
    while (!monitor_stop_) {
      watch_cv_.WaitFor(&watch_mu_, interval);
      if (monitor_stop_) break;
      const auto now = std::chrono::steady_clock::now();
      for (auto it = watches_.begin(); it != watches_.end();) {
        const double elapsed =
            std::chrono::duration<double>(now - it->second).count();
        if (elapsed < threshold) {
          ++it;
          continue;
        }
        const std::size_t task = it->first;
        it = watches_.erase(it);
        TaskState& st = tasks_[task];
        bool launch = false;
        {
          MutexLock tl(&st.mu);
          if (!st.committed && !st.failed && !st.speculated) {
            st.speculated = true;
            launch = true;
          }
        }
        if (!launch) continue;
        events_->Attempt(JobEventType::kAttemptSpeculate, kind_, task, -1,
                         elapsed, "slow attempt");
        // The backup runs on its own thread, not the phase's pool: the
        // pool is saturated with the phase's primary attempts, so a
        // queued backup would only run after the straggler it is meant
        // to overtake. This models Hadoop launching the backup on a
        // *different* node's free slot. Bounded: one backup per task.
        Thread backup([this, task, &attempt_fn, &commit_fn] {
          RunOneAttempt(task, /*speculative=*/true, attempt_fn, commit_fn);
        });
        MutexLock bl(&backups_mu_);
        backups_.push_back(std::move(backup));
      }
    }
  }

  ThreadPool* pool_;
  TaskKind kind_;
  const ExecutionOptions& opts_;
  EventLog* events_;
  std::vector<TaskState> tasks_;

  // Acquisition order for watch_mu_ / st.mu / backups_mu_ lives in
  // tools/analyze/lock_order.toml ("watch", "task", "backups").
  Mutex watch_mu_;
  CondVar watch_cv_;
  bool monitor_stop_ HAMMING_GUARDED_BY(watch_mu_) = false;
  std::unordered_map<std::size_t, std::chrono::steady_clock::time_point>
      watches_ HAMMING_GUARDED_BY(watch_mu_);

  Mutex backups_mu_;
  std::vector<Thread> backups_ HAMMING_GUARDED_BY(backups_mu_);
};

// max/mean of a load vector; 0 for an all-zero (or empty) load.
double SkewCoefficient(const std::vector<uint64_t>& load) {
  if (load.empty()) return 0.0;
  uint64_t max = 0;
  uint64_t total = 0;
  for (uint64_t v : load) {
    max = std::max(max, v);
    total += v;
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(load.size());
  return static_cast<double>(max) / mean;
}

Status CancelledStatus(TaskKind kind) {
  return Status::ExecutionError(std::string(TaskKindName(kind)) +
                                " attempt cancelled");
}

std::string InjectedFaultMessage(TaskKind kind, std::size_t task,
                                 int attempt) {
  return std::string("injected fault: ") + TaskKindName(kind) + " task " +
         std::to_string(task) + " attempt " + std::to_string(attempt);
}

}  // namespace

// Removes the job's private spill directory when RunJob leaves scope,
// whatever path it leaves by. Declared before any SpillFileRef holder so
// the files themselves (deleted by their handles) go first.
struct SpillDirGuard {
  std::string dir;
  ~SpillDirGuard() {
    if (!dir.empty()) RemoveJobSpillDir(dir);
  }
};

Result<JobResult> RunJob(const JobSpec& spec, Cluster* cluster) {
  if (!spec.map_fn) return Status::InvalidArgument("job has no map function");
  const ExecutionOptions opts = ResolveOptions(spec);
  if (opts.num_reducers == 0) {
    return Status::InvalidArgument("num_reducers must be positive");
  }
  if (opts.max_attempts == 0) {
    return Status::InvalidArgument("max_attempts must be positive");
  }
  if (opts.shuffle_max_merge_fanin < 2) {
    return Status::InvalidArgument("shuffle_max_merge_fanin must be >= 2");
  }
  // A finite budget switches the shuffle to its external (spill-to-disk)
  // mode; outputs and logical counters are byte-identical either way.
  const bool external = opts.shuffle_memory_bytes != kUnlimitedShuffleMemory;
  SpillDirGuard spill_dir;
  if (external) {
    HAMMING_ASSIGN_OR_RETURN(spill_dir.dir,
                             CreateJobSpillDir(opts.shuffle_dir));
  }
  JobResult result;
  Stopwatch total_watch;
  EventLog events(&result.trace, opts.observer, &total_watch);
  const PartitionFn& partition = opts.partition_fn;
  const FaultInjector* fault = opts.fault.get();

  // ---- Map phase -------------------------------------------------------
  Stopwatch map_watch;
  events.Phase(JobEventType::kPhaseStart, "map");
  const std::size_t num_maps = spec.input_splits.size();
  // Per map task (winning attempt only): either buffered partitions
  // (in-memory mode) or the task's spill files (external mode).
  std::vector<std::vector<std::vector<Record>>> map_outputs(num_maps);
  std::vector<std::vector<SpillFileRef>> map_spills(num_maps);

  AttemptFn map_attempt = [&](std::size_t m, int attempt, CancelToken* token,
                              AttemptOutput* out) -> Status {
    const FaultDecision fd =
        fault ? fault->OnAttempt(TaskKind::kMap, m, attempt)
              : FaultDecision{};
    if (fd.delay_seconds > 0.0 && !token->SleepFor(fd.delay_seconds)) {
      return CancelledStatus(TaskKind::kMap);
    }
    const auto& split = spec.input_splits[m];
    // Injected failures fire midway, after the attempt has buffered
    // emissions and counters (and, externally, written spill files) that
    // the runner must then discard.
    const std::size_t fail_after =
        fd.fail ? split.size() / 2 : static_cast<std::size_t>(-1);
    auto count = [&](CounterId id, int64_t delta) {
      out->counts.Add(id, delta);
    };
    std::unique_ptr<ShuffleWriter> writer;
    if (external) {
      ShuffleWriterOptions wopts;
      wopts.num_partitions = opts.num_reducers;
      wopts.memory_budget_bytes = opts.shuffle_memory_bytes;
      wopts.dir = spill_dir.dir;
      // Attempt-unique stem: racing attempts of one task never share
      // spill files.
      wopts.file_stem = "m" + std::to_string(m) + "-a" + std::to_string(attempt);
      wopts.combine_fn = spec.combine_fn;
      writer = std::make_unique<ShuffleWriter>(
          std::move(wopts), [&events, m, attempt](uint64_t bytes,
                                                  uint64_t records) {
            events.Attempt(JobEventType::kSpill, TaskKind::kMap, m, attempt,
                           0.0,
                           std::to_string(bytes) + " bytes, " +
                               std::to_string(records) + " records");
          });
    } else {
      out->map_partitions.assign(opts.num_reducers, {});
    }
    Emitter emitter;  // reused across records; keeps its capacity
    std::size_t processed = 0;
    for (const Record& rec : split) {
      if (token->cancelled()) return CancelledStatus(TaskKind::kMap);
      if (processed == fail_after) {
        return Status::ExecutionError(
            InjectedFaultMessage(TaskKind::kMap, m, attempt));
      }
      count(CounterId::kMapInputRecords, 1);
      emitter.records().clear();
      HAMMING_RETURN_NOT_OK(spec.map_fn(rec, &emitter));
      for (Record& o : emitter.records()) {
        // Logical shuffle counters are charged at emission, before any
        // combining or spilling, so they are identical at every budget.
        count(CounterId::kMapOutputRecords, 1);
        count(CounterId::kShuffleBytes,
              static_cast<int64_t>(o.SerializedBytes()));
        std::size_t p = partition(o.key, opts.num_reducers);
        if (writer) {
          HAMMING_RETURN_NOT_OK(writer->Add(p, std::move(o)));
        } else {
          out->map_partitions[p].push_back(std::move(o));
        }
      }
      ++processed;
    }
    if (fd.fail && split.empty()) {
      return Status::ExecutionError(
          InjectedFaultMessage(TaskKind::kMap, m, attempt));
    }
    if (writer) {
      HAMMING_RETURN_NOT_OK(writer->Flush());
      count(CounterId::kShuffleSpills, writer->spill_count());
      count(CounterId::kShuffleSpilledBytes, writer->spilled_bytes());
      count(CounterId::kCombineInputRecords, writer->combine_input_records());
      count(CounterId::kCombineOutputRecords,
            writer->combine_output_records());
      out->spills = writer->TakeSpills();
    } else if (spec.combine_fn) {
      // In-memory mode applies the combiner once, to the whole partition
      // buffer — the single-spill limit of the external path.
      int64_t combine_in = 0;
      int64_t combine_out = 0;
      for (auto& partition_buf : out->map_partitions) {
        HAMMING_RETURN_NOT_OK(SortAndCombine(&partition_buf, spec.combine_fn,
                                             &combine_in, &combine_out));
      }
      count(CounterId::kCombineInputRecords, combine_in);
      count(CounterId::kCombineOutputRecords, combine_out);
    }
    return Status::OK();
  };
  CommitFn map_commit = [&](std::size_t m, AttemptOutput* out) {
    map_outputs[m] = std::move(out->map_partitions);
    map_spills[m] = std::move(out->spills);
    result.counters.MergeLocal(out->counts);
  };
  {
    PhaseRunner runner(cluster->pool(), TaskKind::kMap, num_maps, opts,
                       &events);
    Status st = runner.Run(map_attempt, map_commit);
    result.map_seconds = map_watch.ElapsedSeconds();
    events.Phase(JobEventType::kPhaseFinish, "map", result.map_seconds);
    if (!st.ok()) return st;
  }

  // ---- Shuffle phase ---------------------------------------------------
  // In-memory: gather per reducer and sort by key (reducer r's gather
  // touches only slot r of every map output, so the chains run in
  // parallel). External: just enumerate reducer r's spill segments in
  // (map task, spill sequence) order — the stable order the merge's
  // tie-break relies on; actual merging streams inside reduce attempts.
  Stopwatch shuffle_watch;
  events.Phase(JobEventType::kPhaseStart, "shuffle");
  std::vector<std::vector<Record>> reducer_inputs;
  std::vector<std::vector<SegmentSource>> reducer_sources;
  // Per-reducer input load, from committed map output only (spill
  // segment metadata externally, the gathered partitions in memory), so
  // the report — and the metrics derived from it — is byte-identical
  // across retries, speculation and fault injection.
  result.reducer_load.records.assign(opts.num_reducers, 0);
  result.reducer_load.bytes.assign(opts.num_reducers, 0);
  if (external) {
    reducer_sources.resize(opts.num_reducers);
    for (const auto& spills : map_spills) {
      for (const SpillFileRef& file : spills) {
        for (std::size_t r = 0; r < opts.num_reducers; ++r) {
          result.reducer_load.records[r] += file->segments()[r].records;
          // Logical serialized bytes, not the on-disk segment size: the
          // load report must agree with the in-memory path, which never
          // pays spill-page framing.
          result.reducer_load.bytes[r] += file->logical_bytes()[r];
          if (file->segments()[r].records == 0) continue;  // empty run
          reducer_sources[r].push_back(SegmentSource{file, r});
        }
      }
    }
  } else {
    reducer_inputs.resize(opts.num_reducers);
    ParallelFor(cluster->pool(), opts.num_reducers, [&](std::size_t r) {
      auto& dst = reducer_inputs[r];
      std::size_t total = 0;
      for (const auto& per_map : map_outputs) total += per_map[r].size();
      dst.reserve(total);
      for (auto& per_map : map_outputs) {
        dst.insert(dst.end(), std::make_move_iterator(per_map[r].begin()),
                   std::make_move_iterator(per_map[r].end()));
      }
      std::stable_sort(dst.begin(), dst.end(),
                       [](const Record& a, const Record& b) {
                         return a.key < b.key;
                       });
      uint64_t bytes = 0;
      for (const Record& rec : dst) bytes += rec.SerializedBytes();
      // Slot r is this task's alone; no synchronization needed.
      result.reducer_load.records[r] = dst.size();
      result.reducer_load.bytes[r] = bytes;
    });
    map_outputs.clear();
  }
  result.reducer_load.records_skew = SkewCoefficient(result.reducer_load.records);
  result.reducer_load.bytes_skew = SkewCoefficient(result.reducer_load.bytes);
  if (opts.metrics != nullptr) {
    const obs::MetricId rec_hist =
        opts.metrics->Histogram(obs::metric_names::kMrReduceInputRecords);
    const obs::MetricId byte_hist =
        opts.metrics->Histogram(obs::metric_names::kMrReduceInputBytes);
    for (std::size_t r = 0; r < opts.num_reducers; ++r) {
      HAMMING_METRIC_OBSERVE(opts.metrics, rec_hist,
                             result.reducer_load.records[r]);
      HAMMING_METRIC_OBSERVE(opts.metrics, byte_hist,
                             result.reducer_load.bytes[r]);
    }
  }
  result.shuffle_seconds = shuffle_watch.ElapsedSeconds();
  events.Phase(JobEventType::kPhaseFinish, "shuffle", result.shuffle_seconds);

  // Builds a reduce-side merger for partition r (shared by the reduce
  // attempts and the map-only materialization below).
  auto make_merger = [&](std::size_t r, int attempt,
                         std::vector<SegmentSource> sources) {
    ShuffleMergerOptions mopts;
    mopts.max_fanin = opts.shuffle_max_merge_fanin;
    mopts.dir = spill_dir.dir;
    mopts.file_stem = "r" + std::to_string(r) + "-a" + std::to_string(attempt);
    mopts.combine_fn = spec.combine_fn;
    mopts.on_spill = [&events, r, attempt](uint64_t bytes, uint64_t records) {
      events.Attempt(JobEventType::kSpill, TaskKind::kReduce, r, attempt, 0.0,
                     std::to_string(bytes) + " bytes, " +
                         std::to_string(records) + " records");
    };
    return ShuffleMerger(std::move(sources), std::move(mopts));
  };

  // ---- Reduce phase ----------------------------------------------------
  Stopwatch reduce_watch;
  events.Phase(JobEventType::kPhaseStart, "reduce");
  result.outputs.resize(opts.num_reducers);
  if (!spec.reduce_fn) {
    // Map-only job: partitioned map outputs are the result.
    if (external) {
      Mutex mo_mu;
      Status mo_error;
      ParallelFor(cluster->pool(), opts.num_reducers, [&](std::size_t r) {
        LocalCounters counts;
        Status st = [&]() -> Status {
          ShuffleMerger merger =
              make_merger(r, 0, std::move(reducer_sources[r]));
          HAMMING_RETURN_NOT_OK(merger.Open());
          events.Attempt(JobEventType::kMergePass, TaskKind::kReduce, r, 0,
                         0.0, "fan-in " + std::to_string(merger.fanin()));
          auto& dst = result.outputs[r];
          dst.reserve(merger.records());
          Record rec;
          bool done = false;
          HAMMING_RETURN_NOT_OK(merger.Next(&rec, &done));
          while (!done) {
            dst.push_back(std::move(rec));
            HAMMING_RETURN_NOT_OK(merger.Next(&rec, &done));
          }
          counts.Add(CounterId::kShuffleMergeFanIn, merger.fanin());
          counts.Add(CounterId::kShuffleSpills, merger.spill_count());
          counts.Add(CounterId::kShuffleSpilledBytes, merger.spilled_bytes());
          counts.Add(CounterId::kCombineInputRecords,
                     merger.combine_input_records());
          counts.Add(CounterId::kCombineOutputRecords,
                     merger.combine_output_records());
          return Status::OK();
        }();
        MutexLock lock(&mo_mu);
        if (!st.ok()) {
          if (mo_error.ok()) mo_error = st;
          return;
        }
        result.counters.MergeLocal(counts);
      });
      if (!mo_error.ok()) return mo_error;
    } else {
      result.outputs = std::move(reducer_inputs);
    }
  } else {
    // An attempt may be re-run, so reduce input values are copied per
    // attempt when the attempt layer is active; the single-attempt fast
    // path moves them out as before. (External attempts re-stream from
    // the spill files, which re-running cannot corrupt.)
    const bool destructive = opts.max_attempts == 1 &&
                             !opts.speculation.enabled && fault == nullptr;
    AttemptFn reduce_attempt = [&](std::size_t r, int attempt,
                                   CancelToken* token,
                                   AttemptOutput* out) -> Status {
      const FaultDecision fd =
          fault ? fault->OnAttempt(TaskKind::kReduce, r, attempt)
                : FaultDecision{};
      if (fd.delay_seconds > 0.0 && !token->SleepFor(fd.delay_seconds)) {
        return CancelledStatus(TaskKind::kReduce);
      }
      auto count = [&](CounterId id, int64_t delta) {
        out->counts.Add(id, delta);
      };
      Emitter emitter;
      if (external) {
        ShuffleMerger merger = make_merger(r, attempt, reducer_sources[r]);
        HAMMING_RETURN_NOT_OK(merger.Open());
        events.Attempt(JobEventType::kMergePass, TaskKind::kReduce, r,
                       attempt, 0.0,
                       "fan-in " + std::to_string(merger.fanin()) +
                           ", intermediate passes " +
                           std::to_string(merger.merge_passes()));
        const uint64_t total = merger.records();
        const uint64_t fail_after =
            fd.fail ? total / 2 : static_cast<uint64_t>(-1);
        if (fd.fail && total == 0) {
          return Status::ExecutionError(
              InjectedFaultMessage(TaskKind::kReduce, r, attempt));
        }
        Record cur;
        bool done = false;
        HAMMING_RETURN_NOT_OK(merger.Next(&cur, &done));
        uint64_t pulled = done ? 0 : 1;
        bool have = !done;
        while (have) {
          if (token->cancelled()) return CancelledStatus(TaskKind::kReduce);
          // Same midpoint semantics as the in-memory path: the injected
          // failure fires at the first group starting at or past half the
          // reducer's input.
          if (pulled - 1 >= fail_after) {
            return Status::ExecutionError(
                InjectedFaultMessage(TaskKind::kReduce, r, attempt));
          }
          std::vector<uint8_t> key = std::move(cur.key);
          std::vector<std::vector<uint8_t>> values;
          values.push_back(std::move(cur.value));
          for (;;) {
            HAMMING_RETURN_NOT_OK(merger.Next(&cur, &done));
            if (done) {
              have = false;
              break;
            }
            ++pulled;
            if (cur.key != key) break;
            values.push_back(std::move(cur.value));
          }
          count(CounterId::kReduceInputGroups, 1);
          HAMMING_RETURN_NOT_OK(spec.reduce_fn(key, values, &emitter));
        }
        count(CounterId::kShuffleMergeFanIn, merger.fanin());
        count(CounterId::kShuffleSpills, merger.spill_count());
        count(CounterId::kShuffleSpilledBytes, merger.spilled_bytes());
        count(CounterId::kCombineInputRecords,
              merger.combine_input_records());
        count(CounterId::kCombineOutputRecords,
              merger.combine_output_records());
      } else {
        auto& input = reducer_inputs[r];
        const std::size_t fail_after =
            fd.fail ? input.size() / 2 : static_cast<std::size_t>(-1);
        std::size_t i = 0;
        while (i < input.size()) {
          if (token->cancelled()) return CancelledStatus(TaskKind::kReduce);
          if (i >= fail_after) {
            return Status::ExecutionError(
                InjectedFaultMessage(TaskKind::kReduce, r, attempt));
          }
          std::size_t j = i;
          std::vector<std::vector<uint8_t>> values;
          while (j < input.size() && input[j].key == input[i].key) {
            if (destructive) {
              values.push_back(std::move(input[j].value));
            } else {
              values.push_back(input[j].value);
            }
            ++j;
          }
          count(CounterId::kReduceInputGroups, 1);
          HAMMING_RETURN_NOT_OK(
              spec.reduce_fn(input[i].key, values, &emitter));
          i = j;
        }
        if (fd.fail && input.empty()) {
          return Status::ExecutionError(
              InjectedFaultMessage(TaskKind::kReduce, r, attempt));
        }
      }
      count(CounterId::kReduceOutputRecords,
            static_cast<int64_t>(emitter.records().size()));
      out->reduce_records = std::move(emitter.records());
      return Status::OK();
    };
    CommitFn reduce_commit = [&](std::size_t r, AttemptOutput* out) {
      result.outputs[r] = std::move(out->reduce_records);
      result.counters.MergeLocal(out->counts);
    };
    PhaseRunner runner(cluster->pool(), TaskKind::kReduce, opts.num_reducers,
                       opts, &events);
    Status st = runner.Run(reduce_attempt, reduce_commit);
    if (!st.ok()) return st;
  }
  result.reduce_seconds = reduce_watch.ElapsedSeconds();
  events.Phase(JobEventType::kPhaseFinish, "reduce", result.reduce_seconds);
  result.total_seconds = total_watch.ElapsedSeconds();

  if (opts.metrics != nullptr) {
    // Wall-clock phase breakdowns. The "time." prefix marks them as
    // non-deterministic: tests asserting retry-identical metrics filter
    // these names out, everything else in the registry must match.
    auto observe_micros = [&](const char* name, double seconds) {
      const obs::MetricId id = opts.metrics->Histogram(name);
      HAMMING_METRIC_OBSERVE(opts.metrics, id,
                             static_cast<uint64_t>(seconds * 1e6));
    };
    observe_micros("time.map_micros", result.map_seconds);
    observe_micros("time.shuffle_micros", result.shuffle_seconds);
    observe_micros("time.reduce_micros", result.reduce_seconds);
    observe_micros("time.job_total_micros", result.total_seconds);
  }

  cluster->cumulative_counters()->Merge(result.counters);
  return result;
}

}  // namespace hamming::mr
