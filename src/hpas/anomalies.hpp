// HPAS-equivalent synthetic performance anomalies (Ates et al., ICPP'19).
//
// The real HPAS runs a contention process next to the application; what the
// monitoring stack observes is the contention's *metric signature*.  Each
// injector here perturbs the simulated ResourceState the way the
// corresponding HPAS anomaly perturbs a real node, parameterized by the same
// command-line knobs the paper lists in Table 2.
#pragma once

#include "telemetry/resource_state.hpp"
#include "util/rng.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace prodigy::hpas {

// 64-bit so that AnomalySpec has no padding between `kind` and `intensity`.
// gtest prints a parameter that has no PrintTo as its raw bytes, and that
// text is part of the test name: with 4 uninitialized padding bytes there,
// the names of the Table-2 property tests changed from run to run.
enum class AnomalyKind : std::int64_t {
  None,
  Memleak,    // -s <alloc size> -p <period scale>
  Membw,      // -s <copy block size>
  Cpuoccupy,  // -u <utilization>
  Cachecopy,  // -c <cache level> -m <multiplier>
  Iobw,       // I/O bandwidth contention (runs terminated by admins in the paper)
  Netoccupy,  // network contention (needs >=2 nodes; excluded from paper runs)
};

std::string to_string(AnomalyKind kind);
AnomalyKind anomaly_kind_from_string(const std::string& name);

/// One configured anomaly instance, e.g. {Memleak, "-s 10M -p 1"}.
struct AnomalySpec {
  AnomalyKind kind = AnomalyKind::None;
  /// Primary size/utilization knob, normalized to [0, 1] intensity.
  double intensity = 1.0;
  /// Human-readable configuration string (mirrors Table 2).
  std::string config;

  bool is_anomalous() const noexcept { return kind != AnomalyKind::None; }
};

/// The exact anomaly configurations of Table 2 of the paper.
std::vector<AnomalySpec> table2_configurations();

/// Expected runtime inflation caused by the anomaly (>= 1.0): contention
/// slows the victim, so an anomalous run of the same input deck takes longer
/// (the paper's §1 cites >70-100% execution-time increases; its Empire runs
/// took 10-30% longer).  The dataset builder stretches anomalous run
/// durations by this factor.
double expected_slowdown(const AnomalySpec& spec) noexcept;

/// The healthy (no-anomaly) spec.
AnomalySpec healthy_spec();

/// Stateful per-run injector.  Created once per (run, node); perturb() is
/// called once per simulated second with t_frac = t / duration in [0, 1).
class AnomalyInjector {
 public:
  virtual ~AnomalyInjector() = default;
  virtual void perturb(double t_frac, telemetry::ResourceState& state,
                       util::Rng& rng) = 0;
};

/// Factory.  Returns nullptr for AnomalyKind::None.
std::unique_ptr<AnomalyInjector> make_injector(const AnomalySpec& spec,
                                               util::Rng& rng);

}  // namespace prodigy::hpas
