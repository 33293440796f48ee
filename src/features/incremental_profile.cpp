#include "features/incremental_profile.hpp"

#include "features/kernels.hpp"
#include "features/registry.hpp"
#include "features/series_preprocess.hpp"
#include "tensor/stats.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace prodigy::features {

// ---------------------------------------------------------------------------
// SortedWindow

void SortedWindow::insert(double value) {
  if (blocks_.empty()) {
    blocks_.emplace_back().push_back(value);
    ++size_;
    return;
  }
  // First block whose largest element is >= value; earlier blocks hold only
  // smaller values, so inserting here keeps the concatenation sorted.
  auto bit = std::lower_bound(
      blocks_.begin(), blocks_.end(), value,
      [](const std::vector<double>& b, double v) { return b.back() < v; });
  if (bit == blocks_.end()) --bit;
  bit->insert(std::upper_bound(bit->begin(), bit->end(), value), value);
  ++size_;
  if (bit->size() > 2 * kTargetBlock) {
    const std::size_t half = bit->size() / 2;
    std::vector<double> hi(bit->begin() + static_cast<std::ptrdiff_t>(half),
                           bit->end());
    bit->resize(half);
    blocks_.insert(bit + 1, std::move(hi));
  }
}

bool SortedWindow::erase(double value) {
  // The first block with back() >= value must contain the value if any
  // block does: a preceding block with back() >= value would sandwich its
  // back between value occurrences, forcing back() == value.
  auto bit = std::lower_bound(
      blocks_.begin(), blocks_.end(), value,
      [](const std::vector<double>& b, double v) { return b.back() < v; });
  if (bit == blocks_.end()) return false;
  const auto it = std::lower_bound(bit->begin(), bit->end(), value);
  if (it == bit->end() || *it != value) return false;
  bit->erase(it);
  if (bit->empty()) blocks_.erase(bit);
  --size_;
  return true;
}

void SortedWindow::clear() {
  blocks_.clear();
  size_ = 0;
}

void SortedWindow::rebuild(std::span<const double> values) {
  clear();
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); i += kTargetBlock) {
    const std::size_t count = std::min(kTargetBlock, sorted.size() - i);
    blocks_.emplace_back(sorted.begin() + static_cast<std::ptrdiff_t>(i),
                         sorted.begin() + static_cast<std::ptrdiff_t>(i + count));
  }
  size_ = sorted.size();
}

void SortedWindow::copy_sorted(util::AlignedVec<double>& out) const {
  out.clear();
  out.reserve(size_);
  for (const auto& block : blocks_) {
    out.insert(out.end(), block.begin(), block.end());
  }
}

// ---------------------------------------------------------------------------
// IncrementalNodeExtractor

namespace {

/// Copies `count` consecutive ring entries starting at global index
/// `start` into `out`.
void copy_ring(std::span<const double> ring, std::uint64_t start,
               std::size_t count, double* out) {
  const std::size_t cap = ring.size();
  const std::size_t slot = static_cast<std::size_t>(start % cap);
  const std::size_t first = std::min(count, cap - slot);
  std::copy_n(ring.data() + slot, first, out);
  std::copy_n(ring.data(), count - first, out + first);
}

struct ExtremaScan {
  double min = 0.0, max = 0.0;
  std::size_t first_max = 0, last_max = 0, first_min = 0, last_min = 0;
};

/// The SeriesProfile pass-1 extrema loop, verbatim, so incremental rescans
/// reproduce the batch tie rules (first strict, last loose) bit for bit.
ExtremaScan scan_extrema(std::span<const double> xs) {
  ExtremaScan r;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] > xs[r.first_max]) r.first_max = i;
    if (xs[i] < xs[r.first_min]) r.first_min = i;
    if (!(xs[r.last_max] > xs[i])) r.last_max = i;
    if (!(xs[r.last_min] < xs[i])) r.last_min = i;
  }
  if (!xs.empty()) {
    r.min = xs[r.first_min];
    r.max = xs[r.first_max];
  }
  return r;
}

}  // namespace

struct IncrementalNodeExtractor::MetricState {
  // The plan's groups for this metric; they select the rolling parts kept.
  // An unplanned metric (groups == 0) keeps only the raw/tainted ring.
  // `origin` is the global index of the first row the rolling state
  // absorbed: 0, or the ring start when a new plan seeded it.
  GroupMask groups = 0;
  std::uint64_t origin = 0;

  // Rings indexed by global row index modulo capacity.  `raw` (capacity W)
  // feeds the exact fallback; `pre` (capacity W + 1, so the retiring pair
  // is still readable) holds the streaming-cleaned value g[t]: the
  // gap-interpolated gauge value, or the first difference of the
  // gap-interpolated raws for counters.  `tainted` flags rows whose raw
  // value was non-finite (raw-indexed; written at arrival, never by gap
  // resolution).
  std::vector<double> raw;
  std::vector<double> pre;
  std::vector<std::uint8_t> tainted;

  // Gap resolution.  Non-finite raw rows are held out of the accumulators
  // (only their positions are remembered) until the next finite sample
  // arrives; the run is then filled with the batch linear_interpolate
  // arithmetic and pushed.  Interpolation is local — a gap's filled values
  // depend only on its two finite anchors — so every window that contains
  // the whole gap sees values bit-identical to the batch cleaning, and only
  // windows where the gap straddles the window start (left anchor expired:
  // the batch back-fill rule applies) or is still unresolved at emission
  // need the exact fallback.  While a gap is open the accumulator cursor
  // trails the raw cursor by the run length.
  bool in_gap = false;
  std::uint64_t gap_start = 0;
  double last_raw = 0.0;  // last resolved raw: gap anchor + counter diff base
  bool has_raw = false;
  std::uint64_t hard_until = 0;  // emissions with end <= this must fall back

  // Rolling shifted sum over the window's g values: the drift sentinel
  // that cross-checks push/retire consistency against the exact
  // per-emission sum.  (All linear aggregates — sum, energy, successive
  // differences — are recomputed exactly per emission; only the sorted
  // window, the extrema, and the sliding DFT carry state, because those
  // are the structures whose from-scratch rebuild is super-linear.)
  double k_shift = 0.0;    // K: re-centered at each rebuild
  double sum_shift = 0.0;  // sum of (g - K)
  SortedWindow sorted;
  bool needs_rebuild = false;

  // Extrema over g with global indices (gauges only; counter windows
  // rescan at emission because their first element differs from g).
  bool extrema_valid = false;
  double min_v = 0.0, max_v = 0.0;
  std::uint64_t first_max = 0, last_max = 0, first_min = 0, last_min = 0;

  // Sliding DFT: bin k = sum over the frame of g[u] * w^{ku} (global
  // phase, w = e^{-2*pi*i/W}), stored planar (separate re/im arrays, both
  // 64-byte aligned) so the kernel TU's apply loop runs unit-stride vector
  // loads.  `pending` holds (g[u] - g[u-W]) deltas not yet applied;
  // `synced` is the frame end the bins represent.
  util::AlignedVec<double> bin_re;
  util::AlignedVec<double> bin_im;
  util::AlignedVec<double> pending;
  std::uint64_t synced = 0;
  bool sdft_resync = true;

  // Rolling integer window statistics.  Bit b of peak_flags[t % W] records
  // whether position t is a strict local maximum within kPeakSupports[b]
  // neighbours on each side of the g sequence; the bit for support s is
  // written when row t + s arrives (the last neighbour it needs), so at
  // emission every position the batch extractor would count has its flag.
  // digit_counts is the Benford first-digit histogram of the window's g
  // values.  Both slide as integers — bit-exact by construction — and
  // counter windows apply the f[0] = f[1] substitution as an O(support)
  // flag recheck / O(1) digit swap at emission.
  std::vector<std::uint8_t> peak_flags;
  std::array<std::uint32_t, 9> digit_counts{};
  std::uint32_t digit_counted = 0;  // finite, non-zero g in the window

  std::uint64_t emissions_since_rebuild = 0;

  // Per-metric stats (summed by stats()).
  std::uint64_t exact_fallbacks = 0;
  std::uint64_t scheduled_recomputes = 0;
  std::uint64_t drift_recomputes = 0;
};

struct IncrementalNodeExtractor::Impl {
  std::size_t cols = 0;
  IncrementalConfig config;
  std::shared_ptr<const ScoringPlan> plan;
  std::vector<std::uint8_t> is_counter;
  bool use_sdft = false;
  // Exact twiddle table w^j, j in [0, W), planar for the kernel TU.
  util::AlignedVec<double> tw_re;
  util::AlignedVec<double> tw_im;
  std::vector<MetricState> states;
  std::uint64_t pushed = 0;
  std::uint64_t windows = 0;
  bool poisoned = false;
  // Registry-owned, resolved once; bumped where the per-metric stats are.
  util::Counter* windows_total = nullptr;
  util::Counter* fallbacks_total = nullptr;
  util::Counter* scheduled_total = nullptr;
  util::Counter* drift_total = nullptr;

  /// Fresh rolling state for `groups` starting at global row `origin`; the
  /// raw/tainted ring and the per-metric stats survive.
  void init_state(MetricState& st, GroupMask groups, std::uint64_t origin) const {
    const std::size_t W = config.window;
    MetricState fresh;
    fresh.raw = std::move(st.raw);
    fresh.tainted = std::move(st.tainted);
    fresh.raw.resize(W, 0.0);
    fresh.tainted.resize(W, 0);
    fresh.exact_fallbacks = st.exact_fallbacks;
    fresh.scheduled_recomputes = st.scheduled_recomputes;
    fresh.drift_recomputes = st.drift_recomputes;
    fresh.groups = groups;
    fresh.origin = origin;
    if (groups != 0) fresh.pre.assign(W + 1, 0.0);
    if ((groups & group_bit(kPeaks)) != 0) fresh.peak_flags.assign(W, 0);
    st = std::move(fresh);
  }

  /// Seeds a metric's rolling state for `groups` from the raw ring, exactly
  /// as a node's first window fills it.
  void seed_state(MetricState& st, std::size_t m, GroupMask groups) {
    const std::size_t W = config.window;
    const std::uint64_t origin = pushed > W ? pushed - W : 0;
    init_state(st, groups, origin);
    for (std::uint64_t q = origin; q < pushed; ++q) {
      push_raw(st, m, st.raw[static_cast<std::size_t>(q % W)], q);
    }
  }

  void push_raw(MetricState& st, std::size_t m, double x, std::uint64_t p);
  void push_resolved(MetricState& st, std::size_t m, double value,
                     std::uint64_t q);
  void rebuild_state(MetricState& st, std::uint64_t end) const;
  void extract_metric(MetricState& st, std::size_t m, std::span<double> out,
                      FeatureScratch& scratch, std::uint64_t end);
  void compute_spectral(MetricState& st, SeriesProfile& p,
                        std::span<const double> f, double f0, double g_s,
                        std::uint64_t start, std::uint64_t end, bool counter,
                        FeatureScratch& scratch);
  IncrementalStats sum_stats() const;
};

void IncrementalNodeExtractor::Impl::push_raw(MetricState& st, std::size_t m,
                                              double x, std::uint64_t p) {
  const std::size_t W = config.window;
  st.raw[static_cast<std::size_t>(p % W)] = x;
  st.tainted[static_cast<std::size_t>(p % W)] = std::isfinite(x) ? 0 : 1;
  if (st.groups == 0) return;
  if (!std::isfinite(x)) {
    if (!st.in_gap) {
      st.in_gap = true;
      st.gap_start = p;
    }
    return;
  }
  if (st.in_gap) {
    // Resolve the run [gap_start, p) with the batch linear_interpolate
    // arithmetic.  The offsets below are the same small integers the batch
    // pass forms from window-relative indices, so the filled values are
    // bit-identical in any window containing both anchors.  Without a left
    // anchor (the stream opened with a gap) the batch back-fill rule
    // applies; every window where that rule could be window-dependent has
    // a tainted first row and falls back anyway.
    const double lo = st.last_raw;
    const bool anchored = st.has_raw;
    for (std::uint64_t q = st.gap_start; q < p; ++q) {
      double value = x;
      if (anchored) {
        const double t = static_cast<double>(q - st.gap_start + 1) /
                         static_cast<double>(p - st.gap_start + 1);
        value = lo + (x - lo) * t;
      }
      push_resolved(st, m, value, q);
    }
    st.in_gap = false;
  }
  push_resolved(st, m, x, p);
}

void IncrementalNodeExtractor::Impl::push_resolved(MetricState& st,
                                                   std::size_t m, double value,
                                                   std::uint64_t q) {
  const std::size_t W = config.window;
  double g_old = 0.0;
  if (q >= st.origin + W) {
    // Retire row q - W: read everything before this push overwrites slots.
    g_old = st.pre[static_cast<std::size_t>((q - W) % (W + 1))];
    st.sum_shift -= g_old - st.k_shift;
    if ((st.groups & kSortedGroups) != 0 && !st.sorted.erase(g_old)) {
      st.needs_rebuild = true;
    }
    if ((st.groups & group_bit(kEntropy)) != 0) {
      if (const int d = benford_first_digit(g_old); d != 0) {
        --st.digit_counts[static_cast<std::size_t>(d - 1)];
        --st.digit_counted;
      }
    }
  }

  double g = is_counter[m] ? (st.has_raw ? value - st.last_raw : 0.0) : value;
  if (!std::isfinite(g)) {
    // Finite raws can still produce a non-finite g (counter diff overflow,
    // or an interpolated overflow): keep the accumulators poison-free and
    // force the exact path for every window that contains this row.
    g = 0.0;
    st.hard_until = std::max(st.hard_until, q + W);
  }
  st.last_raw = value;
  st.has_raw = true;

  st.pre[static_cast<std::size_t>(q % (W + 1))] = g;
  st.sum_shift += g - st.k_shift;
  if ((st.groups & kSortedGroups) != 0) st.sorted.insert(g);
  if ((st.groups & group_bit(kEntropy)) != 0) {
    if (const int d = benford_first_digit(g); d != 0) {
      ++st.digit_counts[static_cast<std::size_t>(d - 1)];
      ++st.digit_counted;
    }
  }

  // Peak flags: this row is the last right-neighbour position q - s needs,
  // so evaluate each support's flag there with the batch comparison rule
  // (strictly greater than every neighbour within the support radius).
  // The pre ring (capacity W + 1) still holds all 2s + 1 rows involved
  // whenever the support is usable at all (W >= 2s + 1).
  if ((st.groups & group_bit(kPeaks)) != 0) {
    const std::size_t cap = W + 1;
    for (std::size_t b = 0; b < kPeakSupportCount; ++b) {
      const std::size_t s = kPeakSupports[b];
      if (W < 2 * s + 1 || q < st.origin + 2 * s) continue;
      const std::uint64_t t = q - s;
      const std::size_t tc = static_cast<std::size_t>(t % cap);
      const double centre = st.pre[tc];
      bool is_peak = true;
      std::size_t li = tc, ri = tc;
      for (std::size_t k = 1; k <= s; ++k) {
        li = li == 0 ? cap - 1 : li - 1;
        ri = ri + 1 == cap ? 0 : ri + 1;
        if (centre <= st.pre[li] || centre <= st.pre[ri]) {
          is_peak = false;
          break;
        }
      }
      auto& slot = st.peak_flags[static_cast<std::size_t>(t % W)];
      const auto bit = static_cast<std::uint8_t>(1u << b);
      slot = static_cast<std::uint8_t>((slot & ~bit) | (is_peak ? bit : 0u));
    }
  }

  if (use_sdft && (st.groups & group_bit(kSpectral)) != 0 && !st.sdft_resync) {
    if (st.pending.size() >= W) {
      // Caller fell more than a full window behind; resync from the ring.
      st.sdft_resync = true;
      st.pending.clear();
    } else {
      st.pending.push_back(g - g_old);
    }
  }

  if (!is_counter[m] && (st.groups & kExtremaGroups) != 0) {
    if (!st.extrema_valid) {
      st.extrema_valid = true;
      st.min_v = st.max_v = g;
      st.first_max = st.last_max = st.first_min = st.last_min = q;
    } else {
      if (g > st.max_v) {
        st.max_v = g;
        st.first_max = st.last_max = q;
      } else if (!(st.max_v > g)) {
        st.last_max = q;
      }
      if (g < st.min_v) {
        st.min_v = g;
        st.first_min = st.last_min = q;
      } else if (!(st.min_v < g)) {
        st.last_min = q;
      }
    }
  }
}

void IncrementalNodeExtractor::Impl::rebuild_state(MetricState& st,
                                                   std::uint64_t end) const {
  const std::size_t W = config.window;
  const std::uint64_t start = end - W;

  std::vector<double> window(W);
  copy_ring(st.pre, start, W, window.data());

  double sum = 0.0;
  for (double g : window) sum += g;
  st.k_shift = sum / static_cast<double>(W);  // re-center at the window mean
  st.sum_shift = 0.0;
  for (double g : window) st.sum_shift += g - st.k_shift;
  if ((st.groups & kSortedGroups) != 0) st.sorted.rebuild(window);

  if ((st.groups & kExtremaGroups) != 0) {
    const ExtremaScan ex = scan_extrema(window);
    st.extrema_valid = true;
    st.min_v = ex.min;
    st.max_v = ex.max;
    st.first_max = start + ex.first_max;
    st.last_max = start + ex.last_max;
    st.first_min = start + ex.first_min;
    st.last_min = start + ex.last_min;
  }

  st.sdft_resync = true;
  st.pending.clear();
  st.needs_rebuild = false;
}

void IncrementalNodeExtractor::Impl::compute_spectral(
    MetricState& st, SeriesProfile& p, std::span<const double> f, double f0,
    double g_s, std::uint64_t start, std::uint64_t end, bool counter,
    FeatureScratch& scratch) {
  const std::size_t W = config.window;
  if (!use_sdft) {
    // The cost model picked the per-emission FFT: identical arithmetic to
    // the batch path, so the spectral family stays bit-exact.
    power_spectrum(f, scratch.fft, scratch.power);
    p.power = scratch.power;
    p.spectral = spectral_summary_from_power(scratch.power);
    return;
  }

  const std::size_t half = W / 2;
  const std::size_t bins = half + 1;
  bool fft_path = st.sdft_resync || st.pending.size() != end - st.synced;

  if (!fft_path) {
    // Apply the pending deltas with the fixed global phase: each sample at
    // global index u contributes delta * w^{ku}; the exact twiddle table
    // means the phase itself never drifts, only the bin accumulations.
    // The kernel keeps the delta loop outer and vectorizes across bins
    // (each bin still sees its deltas in ascending order), computing the
    // twiddle index as the low bits of k * u — zero deltas are skipped
    // inside, so constant stretches still cost nothing.
    kernels::sdft_apply(st.bin_re.data(), st.bin_im.data(), bins,
                        tw_re.data(), tw_im.data(),
                        static_cast<std::uint32_t>(W),
                        static_cast<std::size_t>(st.synced % W), st.pending);
    st.pending.clear();
    st.synced = end;

    // Corrected one-sided spectrum + Parseval drift check against the
    // exactly-known window energy (variance * W, mean-removed).  The
    // counter correction and |.|^2 are the componentwise expansion of the
    // complex ops used before the planar split.
    scratch.power.resize(bins);
    const double delta_c = f0 - g_s;  // counter boundary rule, 0 for gauges
    const std::size_t s_idx = static_cast<std::size_t>(start % W);
    double e_spec = 0.0;
    for (std::size_t k = 1; k < bins; ++k) {
      double br = st.bin_re[k];
      double bi = st.bin_im[k];
      if (counter) {
        const std::size_t idx = (k * s_idx) % W;
        br += delta_c * tw_re[idx];
        bi += delta_c * tw_im[idx];
      }
      const double pw = br * br + bi * bi;
      scratch.power[k] = pw;
      e_spec += (k == half) ? pw : 2.0 * pw;
    }
    e_spec /= static_cast<double>(W);
    const double dc = p.sum - static_cast<double>(W) * p.mean;
    scratch.power[0] = dc * dc;
    const double e_time = p.variance * static_cast<double>(W);
    if (std::abs(e_spec - e_time) > config.drift_tolerance * e_time) {
      // Covers both accumulated SDFT drift and the degenerate
      // near-constant window (e_time ~ 0), where the sliding bins hold
      // only rounding noise and the exact FFT must decide the spectrum.
      fft_path = true;
      ++st.drift_recomputes;
      drift_total->increment();
    }
  }

  if (fft_path) {
    power_spectrum(f, scratch.fft, scratch.power);  // exact batch spectrum
    // Resync the sliding bins from the mean-removed transform F (the FFT
    // left it in scratch.fft; padded == W since W is a power of two here):
    // for k >= 1 the mean term vanishes (sum of w^{kj} over a full period
    // is zero), so  A_k = w^{k*start} * (F_k + (g_s - f0)), expanded here
    // as the planar complex multiply.
    const std::size_t s_idx = static_cast<std::size_t>(start % W);
    st.bin_re.resize(bins);
    st.bin_im.resize(bins);
    const double back_c = g_s - f0;  // undo the counter boundary rule
    for (std::size_t k = 1; k < bins; ++k) {
      const std::size_t idx = (k * s_idx) % W;
      const double fr = scratch.fft[k].real() + back_c;
      const double fi = scratch.fft[k].imag();
      st.bin_re[k] = tw_re[idx] * fr - tw_im[idx] * fi;
      st.bin_im[k] = tw_re[idx] * fi + tw_im[idx] * fr;
    }
    double sum_g = p.sum;
    if (counter) sum_g += g_s - f0;
    st.bin_re[0] = sum_g;
    st.bin_im[0] = 0.0;
    st.pending.clear();
    st.synced = end;
    st.sdft_resync = false;
  }

  p.power = scratch.power;
  p.spectral = spectral_summary_from_power(scratch.power);
}

void IncrementalNodeExtractor::Impl::extract_metric(MetricState& st,
                                                    std::size_t m,
                                                    std::span<double> out,
                                                    FeatureScratch& scratch,
                                                    std::uint64_t end) {
  const std::size_t W = config.window;
  const std::uint64_t start = end - W;
  const bool counter = is_counter[m] != 0;

  // Interior gaps interpolate identically in every window that contains
  // them, so they stay on the incremental path.  The batch cleaning is
  // window-local only at the edges: fall back exactly when (a) a gap is
  // still unresolved (its tail reaches the window end and the batch
  // forward-fill rule applies), (b) the window's first row was non-finite
  // (the gap's left anchor expired and the batch back-fill rule applies),
  // or (c) a row in the window produced a non-finite cleaned value.
  if (st.in_gap || st.tainted[static_cast<std::size_t>(start % W)] != 0 ||
      end <= st.hard_until) {
    // Run the exact batch cleaning over the raw ring (window-local, like
    // preprocess_node) and the full profile.  Bit-identical to the batch
    // path by construction.
    ++st.exact_fallbacks;
    fallbacks_total->increment();
    scratch.column.resize(W);
    copy_ring(st.raw, start, W, scratch.column.data());
    if (config.interpolate) linear_interpolate(scratch.column);
    if (counter) counter_to_rate_inplace(scratch.column);
    compute_all_features(scratch.column, out, scratch, st.groups);
    return;
  }

  // Materialize the cleaned window f.  For counters the stream keeps
  // global diffs, so only f[0] differs (the batch window-local boundary
  // rule rates[0] = rates[1]); everything carried incrementally over g is
  // corrected for that single element in O(1) below.
  scratch.column.resize(W);
  copy_ring(st.pre, start, W, scratch.column.data());
  const double g_s = scratch.column[0];
  if (counter) scratch.column[0] = scratch.column[1];
  const std::span<const double> f(scratch.column.data(), W);
  const double f0 = f[0];

  // Exact linear aggregates: the same lane kernel the batch profile's
  // pass 1 uses, so every feature derived from sum/energy is bit-exact
  // against it.  The rolling-sum drift sentinel cross-checks the carried
  // structures against the exact sum.
  const auto se = kernels::sum_energy(f);
  const double sum_f = se.sum;
  const double energy_f = se.energy;
  double sum_g = sum_f;
  if (counter) sum_g += g_s - f0;
  const double rolling_sum =
      st.sum_shift + static_cast<double>(W) * st.k_shift;
  const double scale =
      std::sqrt(std::max(0.0, energy_f) * static_cast<double>(W));

  bool rebuild = st.needs_rebuild;
  if (++st.emissions_since_rebuild >= config.recompute_interval) {
    rebuild = true;
    ++st.scheduled_recomputes;
    scheduled_total->increment();
  } else if (std::abs(rolling_sum - sum_g) >
             config.drift_tolerance * std::max(scale, 1e-12)) {
    rebuild = true;
    ++st.drift_recomputes;
    drift_total->increment();
  }
  if (rebuild) {
    rebuild_state(st, end);
    st.emissions_since_rebuild = 0;
  }

  const GroupMask groups = st.groups;
  SeriesProfile p;
  p.xs = f;
  p.n = W;
  p.sum = sum_f;
  p.mean = sum_f / static_cast<double>(W);
  p.variance = kernels::centered_sq_sum(f, p.mean) / static_cast<double>(W);
  p.stddev = std::sqrt(p.variance);

  // Exact pass 3 through the batch profile's kernel: f already carries the
  // counter-mode f[0] = f[1] substitution, so no boundary corrections are
  // needed and the result is bit-identical to the batch profile.
  p.abs_energy = energy_f;
  if ((groups & group_bit(kChanges)) != 0) {
    p.abs_change_sum = kernels::abs_change_sum(f);
  }

  // Extrema: incremental state with expiry-aware rescan (counters always
  // rescan because their f[0] differs from the tracked g[start]).
  const bool extrema = (st.groups & kExtremaGroups) != 0;
  if (extrema && (counter || !st.extrema_valid || st.first_max < start ||
                  st.first_min < start)) {
    const ExtremaScan ex = scan_extrema(f);
    p.min = ex.min;
    p.max = ex.max;
    p.first_max = ex.first_max;
    p.last_max = ex.last_max;
    p.first_min = ex.first_min;
    p.last_min = ex.last_min;
    if (!counter) {
      st.extrema_valid = true;
      st.min_v = ex.min;
      st.max_v = ex.max;
      st.first_max = start + ex.first_max;
      st.last_max = start + ex.last_max;
      st.first_min = start + ex.first_min;
      st.last_min = start + ex.last_min;
    }
  } else if (extrema) {
    p.min = st.min_v;
    p.max = st.max_v;
    p.first_max = static_cast<std::size_t>(st.first_max - start);
    p.last_max = static_cast<std::size_t>(st.last_max - start);
    p.first_min = static_cast<std::size_t>(st.first_min - start);
    p.last_min = static_cast<std::size_t>(st.last_min - start);
  }

  // Mean-relative run statistics: the batch profile's kernel (integer
  // counts, bit-exact under any vector width).
  if ((groups & group_bit(kMeanRuns)) != 0) {
    const auto rstats = kernels::run_stats(f, p.mean);
    p.count_above = rstats.count_above;
    p.count_below = rstats.count_below;
    p.longest_above = rstats.longest_above;
    p.longest_below = rstats.longest_below;
    p.crossings = rstats.crossings;
  }

  // Order statistics: O(W) concatenation of the sorted chunks reproduces
  // std::sort(f) bit-exactly (plus the one-element counter swap).
  if ((st.groups & kSortedGroups) != 0) {
    st.sorted.copy_sorted(scratch.sorted);
    if (counter) {
      const auto rm = std::lower_bound(scratch.sorted.begin(),
                                       scratch.sorted.end(), g_s);
      scratch.sorted.erase(rm);
      const auto at = std::lower_bound(scratch.sorted.begin(),
                                       scratch.sorted.end(), f0);
      scratch.sorted.insert(at, f0);
    }
    p.sorted = scratch.sorted;
  }
  p.nan_count = 0;  // untainted by definition of this path

  // Rolling integer window statistics.  The counts below are the exact
  // integers the batch extractors would tally over f: for gauges f == g on
  // the whole window; for counters only f[0] differs, which moves at most
  // one peak flag (position start + s is the only counted position with
  // start in its neighbourhood) and swaps one Benford digit.  Integer
  // counts make the derived features bit-exact, so the registry skips its
  // O(support * W) peak rescans and the digit loop.
  RollingStats rs;
  rs.has_peaks = (st.groups & group_bit(kPeaks)) != 0;
  const std::size_t s0 = static_cast<std::size_t>(start % W);
  for (std::size_t b = 0; rs.has_peaks && b < kPeakSupportCount; ++b) {
    const std::size_t s = kPeakSupports[b];
    std::size_t peaks = 0;
    if (W >= 2 * s + 1) {
      const auto bit = static_cast<std::uint8_t>(1u << b);
      // Ring slots (s0 + i) mod W for i in [s, W - s) form at most two
      // contiguous byte runs; tally each with the vector popcount kernel.
      const std::size_t lo = s0 + s;       // unwrapped first slot
      const std::size_t hi = s0 + W - s;   // unwrapped one-past-last slot
      const std::span<const std::uint8_t> flags(st.peak_flags);
      if (hi <= W) {
        peaks = kernels::count_flag_bits(flags.subspan(lo, hi - lo), bit);
      } else if (lo >= W) {
        peaks =
            kernels::count_flag_bits(flags.subspan(lo - W, hi - lo), bit);
      } else {
        peaks = kernels::count_flag_bits(flags.subspan(lo, W - lo), bit) +
                kernels::count_flag_bits(flags.subspan(0, hi - W), bit);
      }
      if (counter) {
        // Recheck the one flag whose neighbourhood includes f[0].
        bool is_peak = true;
        for (std::size_t k = 1; k <= s && is_peak; ++k) {
          if (f[s] <= f[s - k] || f[s] <= f[s + k]) is_peak = false;
        }
        const std::size_t slot = s0 + s < W ? s0 + s : s0 + s - W;
        const bool carried = (st.peak_flags[slot] & bit) != 0;
        if (is_peak && !carried) {
          ++peaks;
        } else if (!is_peak && carried) {
          --peaks;
        }
      }
    }
    rs.peaks[b] = static_cast<double>(peaks) / static_cast<double>(W);
  }
  std::array<std::uint32_t, 9> digits = st.digit_counts;
  std::uint32_t counted = st.digit_counted;
  if (counter && (st.groups & group_bit(kEntropy)) != 0) {
    if (const int d = benford_first_digit(g_s); d != 0) {
      --digits[static_cast<std::size_t>(d - 1)];
      --counted;
    }
    if (const int d = benford_first_digit(f0); d != 0) {
      ++digits[static_cast<std::size_t>(d - 1)];
      ++counted;
    }
  }
  rs.has_benford = (st.groups & group_bit(kEntropy)) != 0;
  if (rs.has_benford) {
    rs.benford = benford_correlation_from_counts(digits, counted);
  }
  p.rolling = &rs;

  if ((st.groups & group_bit(kSpectral)) != 0) {
    compute_spectral(st, p, f, f0, g_s, start, end, counter, scratch);
  }
  if ((groups & group_bit(kLinearTrend)) != 0) p.trend = linear_trend(f);

  compute_features_from_profile(p, out, groups);
}

SpectralCostModel spectral_cost_model(std::size_t window,
                                      std::size_t hop) noexcept {
  SpectralCostModel m;
  const double W = static_cast<double>(window);
  // Per-emission complex-op counts, weighted by measured throughput.  The
  // SDFT applies `hop` deltas to each of W/2 + 1 bins; the FFT recompute
  // runs (W/2)*log2(W) butterflies plus the O(W) buffer fill, with a ~1.5x
  // constant for bit reversal and twiddle recurrences.  kSdftVectorFactor
  // converts SDFT bin-updates into FFT model units and is calibrated from
  // bench/feature_extraction on the reference avx512 host:
  //   * BM_SdftApply: 8.46us for 16 deltas x 513 bins at W=1024 and 0.55us
  //     for 16 x 33 at W=64 — ~1.04ns per bin-update (the gathered-twiddle
  //     vector path; gather-bound, so nearly width-independent).
  //   * power_spectrum: 1.72us at W=64 (352 units), 43.7us at W=1024
  //     (8704 units) — ~5.0ns per FFT model unit (serial std::complex
  //     butterflies).
  //   => factor = 1.04 / 5.0 ~= 0.21.  Crossover at W=64 lands at hop 51
  //      (0.21 * 51 * 33 > 352), matching the measured per-emission times.
  // Pick whichever is cheaper for the shape; the FFT side is also bit-exact
  // with the batch path, so it doubles as the drift/rebuild fallback.
  constexpr double kSdftVectorFactor = 0.21;
  m.sdft_cost =
      kSdftVectorFactor * static_cast<double>(hop) * (W / 2.0 + 1.0);
  m.fft_cost = 1.5 * (W / 2.0) * std::log2(W) + W;
  const bool pow2 = window >= 2 && (window & (window - 1)) == 0;
  m.use_sdft = pow2 && m.sdft_cost < m.fft_cost;
  return m;
}

IncrementalStats IncrementalNodeExtractor::Impl::sum_stats() const {
  IncrementalStats s;
  s.windows = windows;
  for (const auto& st : states) {
    s.exact_fallbacks += st.exact_fallbacks;
    s.scheduled_recomputes += st.scheduled_recomputes;
    s.drift_recomputes += st.drift_recomputes;
  }
  return s;
}

IncrementalNodeExtractor::IncrementalNodeExtractor(
    std::size_t cols, std::vector<ColumnKind> kinds, IncrementalConfig config)
    : IncrementalNodeExtractor(std::move(kinds), config,
                               ScoringPlan::all_columns(cols)) {}

IncrementalNodeExtractor::IncrementalNodeExtractor(
    std::vector<ColumnKind> kinds, IncrementalConfig config,
    std::shared_ptr<const ScoringPlan> plan)
    : impl_(std::make_unique<Impl>()) {
  if (!plan || plan->metric_count() == 0) {
    throw std::invalid_argument("IncrementalNodeExtractor: cols must be > 0");
  }
  if (config.window < 2 || config.hop == 0) {
    throw std::invalid_argument(
        "IncrementalNodeExtractor: window must be >= 2 and hop >= 1");
  }
  if (config.recompute_interval == 0) config.recompute_interval = 1;
  Impl& im = *impl_;
  const std::size_t cols = plan->metric_count();
  im.cols = cols;
  im.config = config;
  im.is_counter.assign(cols, 0);
  for (std::size_t m = 0; m < cols && m < kinds.size(); ++m) {
    im.is_counter[m] =
        (config.diff_counters && kinds[m] == ColumnKind::kCounter) ? 1 : 0;
  }

  const std::size_t W = config.window;
  im.use_sdft = spectral_cost_model(W, config.hop).use_sdft;
  if (im.use_sdft) {
    im.tw_re.resize(W);
    im.tw_im.resize(W);
    for (std::size_t j = 0; j < W; ++j) {
      const double angle =
          -2.0 * std::numbers::pi * static_cast<double>(j) / static_cast<double>(W);
      im.tw_re[j] = std::cos(angle);
      im.tw_im[j] = std::sin(angle);
    }
  }

  const auto counter = [](const char* what) {
    return &util::MetricsRegistry::global().counter(
        std::string("prodigy_features_incremental_") + what + "_total");
  };
  im.windows_total = counter("windows");
  im.fallbacks_total = counter("exact_fallbacks");
  im.scheduled_total = counter("scheduled_recomputes");
  im.drift_total = counter("drift_recomputes");

  im.states.resize(cols);
  im.plan = std::move(plan);
  for (std::size_t m = 0; m < cols; ++m) {
    const ScoringPlan::Metric* metric = im.plan->metric(m);
    im.init_state(im.states[m], metric ? metric->groups : 0, 0);
  }
}

IncrementalNodeExtractor::~IncrementalNodeExtractor() = default;

void IncrementalNodeExtractor::set_plan(std::shared_ptr<const ScoringPlan> plan) {
  Impl& im = *impl_;
  if (!plan || plan->metric_count() != im.cols) {
    throw std::invalid_argument(
        "IncrementalNodeExtractor::set_plan: plan width differs from " +
        std::to_string(im.cols) + " columns");
  }
  for (std::size_t m = 0; m < im.cols; ++m) {
    const ScoringPlan::Metric* metric = plan->metric(m);
    const GroupMask groups = metric ? metric->groups : 0;
    if (groups != im.states[m].groups) im.seed_state(im.states[m], m, groups);
  }
  im.plan = std::move(plan);
}

const ScoringPlan& IncrementalNodeExtractor::plan() const noexcept {
  return *impl_->plan;
}

bool IncrementalNodeExtractor::absorb_and_extract(const tensor::Matrix& delta,
                                                  std::span<double> out) {
  Impl& im = *impl_;
  if (im.poisoned) {
    throw std::logic_error(
        "IncrementalNodeExtractor: a previous absorb failed mid-update; "
        "reset() before feeding more rows");
  }
  if (delta.cols() != im.cols) {
    throw std::invalid_argument("IncrementalNodeExtractor: delta width " +
                                std::to_string(delta.cols()) + " != " +
                                std::to_string(im.cols));
  }
  const ScoringPlan& plan = *im.plan;
  if (out.size() != plan.output_size()) {
    throw std::invalid_argument(
        "IncrementalNodeExtractor: bad output size");
  }

  const std::size_t per_metric = features_per_metric();
  const std::size_t rows = delta.rows();
  const std::uint64_t base = im.pushed;
  const std::uint64_t end = base + rows;
  const bool emit = end >= im.config.window;

  // Any exception below leaves some metrics half-absorbed; poison the
  // extractor so the caller must reset() (and refill) before continuing.
  im.poisoned = true;
  util::parallel_for(0, im.cols, [&](std::size_t m) {
    thread_local FeatureScratch scratch;
    thread_local std::vector<double> block;
    MetricState& st = im.states[m];
    for (std::size_t r = 0; r < rows; ++r) {
      im.push_raw(st, m, delta(r, m), base + r);
    }
    if (emit && st.groups != 0) {
      block.resize(per_metric);
      im.extract_metric(st, m, block, scratch, end);
      ScoringPlan::emit(*plan.metric(m), block.data(), out);
    }
  });
  im.pushed = end;
  im.poisoned = false;

  if (emit) {
    ++im.windows;
    im.windows_total->increment();
  }
  return emit;
}

void IncrementalNodeExtractor::reset() {
  Impl& im = *impl_;
  for (auto& st : im.states) im.init_state(st, st.groups, 0);
  im.pushed = 0;
  im.poisoned = false;
}

std::size_t IncrementalNodeExtractor::cols() const noexcept {
  return impl_->cols;
}

std::size_t IncrementalNodeExtractor::window() const noexcept {
  return impl_->config.window;
}

bool IncrementalNodeExtractor::window_complete() const noexcept {
  return impl_->pushed >= impl_->config.window;
}

bool IncrementalNodeExtractor::uses_sliding_dft() const noexcept {
  return impl_->use_sdft;
}

IncrementalStats IncrementalNodeExtractor::stats() const {
  return impl_->sum_stats();
}

}  // namespace prodigy::features
