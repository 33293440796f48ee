// Shared pieces of the benchmark: results, timing helpers, seeded workload
// schedules, the training recipe and the single-threaded layer walks used by
// traced runs.  Every workload builds its inputs from the seed alone and
// talks to the library only through its public headers.
#pragma once

#include "core/model_trainer.hpp"
#include "hpas/anomalies.hpp"
#include "stream/ingestor.hpp"
#include "stream/sample_batch.hpp"
#include "telemetry/generator.hpp"
#include "util/thread_pool.hpp"

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using namespace prodigy;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and sub-second phases: runs every check in seconds.
  bool short_mode = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check (printed to stderr) and clears `correct`.
  void check(bool ok, const std::string& what);
};

Result run_stream_deep(const Args& args);
Result run_fleet_wide(const Args& args);
Result run_dashboard(const Args& args);

// ---------------------------------------------------------------- timing

double seconds_between(Clock::time_point a, Clock::time_point b);
double process_cpu_seconds();
double peak_rss_mb();
/// Quantile by linear interpolation between order statistics.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double median(std::vector<double> values);
/// Keeps every hardware thread busy for `seconds`: the host runs at reduced
/// speed for the first second or two after an idle spell.
void spin_warmup(double seconds);

/// Runs the calling thread at real-time FIFO priority while alive, when the
/// process is allowed to (a no-op otherwise).  Paced load generators use it:
/// they stand in for another machine, so their schedule must not slip when
/// the system under test keeps every core busy.
class GeneratorPriority {
 public:
  GeneratorPriority();
  ~GeneratorPriority();
  GeneratorPriority(const GeneratorPriority&) = delete;
  GeneratorPriority& operator=(const GeneratorPriority&) = delete;

 private:
  bool raised_ = false;
  int policy_ = 0;
  sched_param param_{};
};

// ---------------------------------------------------------------- inputs

/// One job of a workload schedule: its nodes send one row per tick from
/// `start_tick` for `length` ticks; `bad_nodes` carry `anomaly`.
struct JobPlan {
  std::int64_t job_id = 0;
  std::int64_t first_component = 0;
  std::size_t nodes = 0;
  std::int64_t start_tick = 0;
  std::size_t length = 0;
  hpas::AnomalySpec anomaly = hpas::healthy_spec();
  std::vector<std::size_t> bad_nodes;
  std::uint64_t seed = 0;
  /// Sample group of the job's lane: its rows travel in that group's frame.
  std::size_t group = 0;

  bool node_anomalous(std::size_t node) const;
};

/// Shape of a churning job mix: `slots` independent lanes each run jobs back
/// to back (lengths and gaps vary by lane and job, in whole hops); lane k
/// starts at a tick that differs mod H from its neighbours so node windows
/// do not complete in lockstep.
struct ScheduleShape {
  std::size_t slots = 1;
  std::size_t nodes_per_job = 2;
  std::size_t min_length = 64;
  std::size_t max_length = 64;
  std::size_t max_gap = 0;        // idle ticks between a lane's jobs
  std::size_t ticks = 0;          // schedule horizon; later jobs are cut off
  std::size_t phase_step = 5;     // lane k starts at tick (k * phase_step) % hop
  std::size_t hop = 16;
  /// Nodes send their samples in this many groups of consecutive lanes, a
  /// 1/groups tick apart (samplers are not synchronised across a fleet).
  std::size_t groups = 1;
  double anomalous_share = 0.25;  // share of jobs with anomalous nodes
  std::vector<hpas::AnomalySpec> anomalies;
  std::int64_t first_job_id = 1;
};

std::vector<JobPlan> plan_schedule(const ScheduleShape& shape, std::uint64_t seed);
/// Seeded telemetry of one planned job (deterministic: regenerating a plan
/// gives the same rows).
telemetry::JobTelemetry generate_job(const JobPlan& plan);
/// `groups` frames per tick, frame `tick * groups + g` holding the row of
/// every node of sample group g active at that tick; timestamps are absolute
/// ticks.
std::vector<stream::SampleBatch> batches_for(const std::vector<JobPlan>& plans,
                                             std::size_t ticks, std::size_t groups = 1);
std::uint64_t windows_in(std::size_t rows, std::size_t window, std::size_t hop);
/// The Table-2 anomaly kinds the workloads inject.
std::vector<hpas::AnomalySpec> anomaly_kinds();

/// Traced runs only: sits in front of an ingestor's row sink (or replaces
/// a missing one) and stamps when each row of a planned job leaves the
/// ingestor.  `offered[tick]` must be written before that tick is offered.
class TimingSink : public stream::RowSink {
 public:
  TimingSink(stream::RowSink* next, const std::vector<Clock::time_point>& offered,
             const std::vector<JobPlan>& plans);

  void on_rows(std::int64_t job_id, std::int64_t component_id, const std::string& app,
               std::span<const std::int64_t> timestamps, const tensor::Matrix& rows) override;

  /// When row `ts` of the node reached the sink.
  Clock::time_point arrival(std::int64_t job_id, std::int64_t component_id,
                            std::int64_t ts) const;
  /// offer -> sink, per row.  Read after the ingestor stopped.
  const std::vector<double>& ingest_wait_ms() const { return ingest_wait_ms_; }

 private:
  stream::RowSink* next_;
  const std::vector<Clock::time_point>& offered_;
  const std::vector<JobPlan>& plans_;
  std::unordered_map<std::int64_t, std::size_t> plan_of_;
  // [plan][node][row]; written by the ingestor's consumer thread before the
  // rows are handed on, so a verdict's reader always sees its stamp.
  std::vector<std::vector<std::vector<Clock::time_point>>> arrivals_;
  std::vector<double> ingest_wait_ms_;
};

// ---------------------------------------------------------------- training

struct TrainRecipe {
  std::size_t top_k = 64;
  std::size_t epochs = 120;
};

/// The VAE recipe shared by every bundle (24-8 encoder, 3 latent dims).
core::ProdigyConfig model_config(const TrainRecipe& recipe);

double f1_score(std::uint64_t tp, std::uint64_t fp, std::uint64_t fn);

// ---------------------------------------------------------------- walks

/// Runs `fn` as one task of the global pool and waits for it: nested
/// parallel_for calls inside then run inline, as they do in a scoring task.
template <typename Fn>
void on_pool_worker(Fn&& fn) {
  util::ThreadPool::global().submit(std::forward<Fn>(fn)).get();
}

/// Per-call costs of the stream layers, from a single-threaded walk.
struct StreamWalk {
  double append_us = 0.0;         // DsosStore::append_node, one row
  double window_push_us = 0.0;    // WindowState::push_row + pop_delta per row
  double extract_first_us = 0.0;  // absorb_and_extract, node's first window
  double extract_hop_us = 0.0;    // absorb_and_extract, steady hop
  double fallbacks_per_1k = 0.0;  // exact fallbacks per 1000 metric-windows
  double transform_us = 0.0;      // ModelBundle::transform_full, one window
  double score_us = 0.0;          // ProdigyDetector::score, one window
  double publish_us = 0.0;        // EventBus::publish
};
/// Walks the first `frames` frames through append -> window -> extract ->
/// transform -> score -> publish in pipeline order, inside one task of the
/// global pool so nested parallel loops run inline as they do in the scorer.
/// Without a bundle only the store appends are walked (a scorer-less feed).
StreamWalk walk_stream(const std::vector<stream::SampleBatch>& batches,
                       std::size_t frames, const core::ModelBundle* bundle,
                       std::size_t window, std::size_t hop);

}  // namespace perfbench
