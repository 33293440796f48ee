// The alert path of the streaming subsystem: the online scorer publishes one
// VerdictEvent per scored window; subscribers receive either the raw verdict
// stream or the debounced state-transition stream.  Debouncing collapses K
// consecutive identical verdicts into a single transition event, so a node
// flapping around the threshold (healthy, anomalous, healthy, ...) raises no
// alert until one state holds for K windows.
//
// Thread-safety: publish() may be called from any thread (scoring tasks run
// on the pool).  Sinks are invoked outside the bus lock and must be
// thread-safe themselves; per-node event order is preserved as long as the
// publisher serializes per-node publishes (the OnlineScorer does).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace prodigy::util {
class Counter;
}

namespace prodigy::stream {

/// One scored window of one node.
struct VerdictEvent {
  std::int64_t job_id = 0;
  std::int64_t component_id = 0;
  std::string app;
  std::uint64_t window_index = 0;
  std::int64_t window_start_ts = 0;
  std::int64_t window_end_ts = 0;
  double score = 0.0;
  double threshold = 0.0;
  bool anomalous = false;
  /// Generation of the model that scored this window.  0 = the scorer's own
  /// frozen bundle (no adaptation); adaptive providers stamp >= 1 and bump
  /// on every hot-swap.  Debouncing is generation-scoped: a candidate streak
  /// never carries across a swap (see publish()).
  std::uint64_t model_generation = 0;
};

/// A debounced change of a node's health state, confirmed by `consecutive`
/// identical verdicts ending at the carried window.  `initial` marks the
/// first state a node ever settles into (node came online).
struct TransitionEvent {
  std::int64_t job_id = 0;
  std::int64_t component_id = 0;
  std::string app;
  bool anomalous = false;  // the new state
  bool initial = false;
  std::uint64_t window_index = 0;  // window that confirmed the transition
  std::int64_t window_start_ts = 0;
  std::int64_t window_end_ts = 0;
  double score = 0.0;
  double threshold = 0.0;
  std::uint64_t consecutive = 0;  // debounce depth that confirmed it (== K)
  std::uint64_t model_generation = 0;  // generation of the confirming verdict
};

/// Lifecycle event of the online-adaptation loop (adapt/model_manager.cpp):
/// drift flagged on the score stream, a candidate model hot-swapped in, or a
/// candidate refused by validation.
struct DriftEvent {
  enum class Kind : std::uint8_t { DriftDetected, ModelSwapped, SwapRefused };
  Kind kind = Kind::DriftDetected;
  /// Provider scope ("" for a single scorer, "shard<k>" in a fleet).
  std::string scope;
  /// Active model generation when the event fired (the NEW generation for
  /// ModelSwapped).
  std::uint64_t generation = 0;
  double statistic = 0.0;  // Page–Hinkley statistic at detection
  double threshold = 0.0;  // active detector threshold
  std::uint64_t reservoir_samples = 0;  // healthy rows held at event time
};

struct EventBusConfig {
  /// Consecutive identical verdicts required to change a node's debounced
  /// state.  1 = every verdict flip is a transition (no debouncing).
  std::size_t debounce_windows = 3;
};

class EventBus {
 public:
  using VerdictSink = std::function<void(const VerdictEvent&)>;
  using TransitionSink = std::function<void(const TransitionEvent&)>;
  using DriftSink = std::function<void(const DriftEvent&)>;

  explicit EventBus(EventBusConfig config = {});

  /// Subscribes to every scored window.  Returns an id for unsubscribe().
  std::uint64_t subscribe(VerdictSink sink);
  /// Subscribes to debounced state transitions only.
  std::uint64_t subscribe_transitions(TransitionSink sink);
  /// Subscribes to adaptation lifecycle events (drift / swap / refusal).
  std::uint64_t subscribe_drift(DriftSink sink);
  void unsubscribe(std::uint64_t id);

  /// Dispatches to raw subscribers, folds the verdict into the node's
  /// debounce state, and dispatches a TransitionEvent when the state flips.
  /// A verdict whose model_generation differs from the node's last seen one
  /// breaks any pending candidate streak first: pre-swap near-transitions
  /// must neither suppress nor cheapen the first post-swap transition (the
  /// settled state itself is kept — a swap is not a health change).
  void publish(const VerdictEvent& event);

  /// Dispatches an adaptation event to drift subscribers.
  void publish(const DriftEvent& event);

  /// Debounced state of one node, if it has settled yet.
  std::optional<bool> node_state(std::int64_t job_id,
                                 std::int64_t component_id) const;

  std::uint64_t verdicts_published() const;
  std::uint64_t transitions_published() const;
  std::uint64_t drift_events_published() const;
  /// Verdicts absorbed by debouncing: identical to the current state, or a
  /// candidate flip that had not yet reached K when it broke.
  std::uint64_t suppressed() const;

 private:
  struct NodeState {
    std::optional<bool> state;    // settled debounced state
    std::optional<bool> candidate;
    std::size_t candidate_count = 0;
    std::uint64_t model_generation = 0;  // generation of the last verdict
  };

  EventBusConfig config_;
  // Registry-owned counters, resolved once at construction.
  util::Counter* verdicts_total_;
  util::Counter* transitions_total_;
  util::Counter* suppressed_total_;
  util::Counter* drift_total_;

  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const VerdictSink>> verdict_sinks_;
  std::map<std::uint64_t, std::shared_ptr<const TransitionSink>> transition_sinks_;
  std::map<std::uint64_t, std::shared_ptr<const DriftSink>> drift_sinks_;
  std::map<std::pair<std::int64_t, std::int64_t>, NodeState> nodes_;
  std::uint64_t next_id_ = 1;
  std::uint64_t verdicts_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t drift_events_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace prodigy::stream
