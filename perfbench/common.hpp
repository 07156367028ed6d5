// Shared machinery of the end-to-end benchmark: run options, the span
// recorder, sample statistics, failure accounting and the per-workload
// result that main.cpp turns into the final JSON line.
//
// Every layer is timed from outside, around calls into its public
// functions.  The program's own ADSYNTH_SPAN capture stays unarmed.
#pragma once

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system, all threads) from getrusage.
inline double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// Peak resident set size of the process so far, in MB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch files (snapshots, WALs)
  std::string out_dir;    // span dumps and result records
  /// Estate sizes are multiplied by this; only the self-test shrinks them.
  double scale = 1.0;
  /// Planted wrong outputs, set only by the self-test to prove that each
  /// output check counts a failure.
  struct Plant {
    bool fingerprint = false;  // estate 0's loaded fingerprint
    bool digest = false;       // the first width-1 scenario digest
    bool read = false;         // the first sampled read answer
  } plant;
};

/// Width of the thread pool in every workload.  Two, not four: on a 4-vCPU
/// host shared with other load, a parallel region waits until every worker
/// has been scheduled, so at width 4 the figures swung with the neighbours
/// (estate_pipeline op_ms_p90 spread 0.20 of its median over five seeds at
/// width 4, 0.06 at width 2, runs interleaved).  1 and 4 threads ran
/// defender_whatif equally fast.
constexpr std::size_t kPoolWidth = 2;

// --- statistics -------------------------------------------------------------

/// Quantile q in [0, 1] of `values` by linear interpolation between order
/// statistics; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// The highest percentile of {50, 90, 99, 99.9} that leaves at least ten
/// of `n` samples beyond it; 50 when even the median leaves fewer.
double tail_percentile(std::size_t n);

// --- spans ------------------------------------------------------------------

/// One timed interval.  `op` groups the spans of one estate, scenario,
/// request or set-up; `parent` indexes the enclosing span in the same
/// thread's recorder (-1 for an operation's root span).
struct Span {
  const char* name = "";
  std::uint64_t op = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double cpu_s = 0.0;  // process CPU consumed inside the span (traced only)
};

/// Per-thread span recorder.  Untraced, only operation root spans are kept
/// (the end-to-end latencies need them); traced, every layer call is
/// recorded, with its process-CPU delta unless it is a wall-only span.
/// Spans stay in memory until the run ends.
class Recorder {
 public:
  explicit Recorder(bool traced) : traced_(traced) { spans_.reserve(1 << 16); }

  /// Opens the root span of a new operation and returns its index.
  std::int32_t begin_op(const char* name, std::uint64_t op);
  void end_op(std::int32_t index);

  /// Runs fn() inside a layer span and returns its result.
  template <typename Fn>
  decltype(auto) time(const char* name, Fn&& fn) {
    return timed(name, true, fn);
  }

  /// time() for calls of a few microseconds.  getrusage(RUSAGE_SELF) sums
  /// every thread and costs about as much as such a call, so these spans
  /// record wall time only.
  template <typename Fn>
  decltype(auto) time_wall(const char* name, Fn&& fn) {
    return timed(name, false, fn);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  /// Opens a layer span under the innermost open span (traced only;
  /// returns -1 untraced).  `read_cpu` false leaves its CPU delta at 0.
  std::int32_t begin(const char* name, bool read_cpu);
  void end(std::int32_t index);

  template <typename Fn>
  decltype(auto) timed(const char* name, bool read_cpu, Fn& fn) {
    struct Closer {
      Recorder* rec;
      std::int32_t index;
      ~Closer() { rec->end(index); }
    } closer{this, begin(name, read_cpu)};
    return fn();
  }

  struct Open {
    std::int32_t index;
    bool read_cpu;
    double cpu_start;
  };
  bool traced_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

// --- results ----------------------------------------------------------------

/// Counts attempted and failed operations, from any thread.  A thrown
/// exception or a wrong answer is one failure; the first few are printed
/// to stderr.
class Failures {
 public:
  void attempt() { attempted_.fetch_add(1); }
  void fail(const std::string& what);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<int> reported_{0};
};

/// A wrong answer from a layer; counted like any other exception.
class WrongAnswer : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void expect(bool ok, const std::string& what) {
  if (!ok) throw WrongAnswer(what);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload hands back: the measured operations, the set-up
/// times, and the recorders of every thread.
struct WorkloadResult {
  double seconds = 0.0;            // measured wall time
  std::size_t ops = 0;             // operations completed in it
  std::vector<double> latency_ms;  // latencies reported as op_ms_*
  std::vector<double> setup_s;    // one entry per repeated set-up
  std::map<std::string, Metric> extra;   // workload-named end-to-end figures
  std::map<std::string, double> counts;  // per-layer counts
  std::vector<Recorder> recorders;
  std::map<std::string, std::string> env;  // like-for-like fields
};

/// Repeats `setup` `times` times, recording each duration, and returns
/// the last result (earlier ones are destroyed before the next starts, so
/// peak memory is that of one set-up).
template <typename Fn>
auto repeated_setup(int times, std::vector<double>& durations, Fn&& setup) {
  using T = decltype(setup());
  std::vector<T> keep;
  for (int i = 0; i < times; ++i) {
    keep.clear();
    const std::int64_t t0 = now_ns();
    keep.push_back(setup());
    durations.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return std::move(keep.back());
}

/// Durations, multiplied by `scale` from ns, of the root spans named
/// `names`.
std::vector<double> op_latencies(const std::vector<Recorder>& recorders,
                                 std::initializer_list<std::string_view> names,
                                 double scale);

/// Seed derivation so that every estate, scenario and request stream of a
/// run follows from the one --seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return adsynth::util::mix64(seed ^ adsynth::util::mix64(salt));
}

// --- workloads ----------------------------------------------------------------

WorkloadResult run_estate_pipeline(const Options& options, Failures& failures);
WorkloadResult run_defender_whatif(const Options& options, Failures& failures);
WorkloadResult run_bloodhound_serving(const Options& options,
                                      Failures& failures);

/// Self-test of the benchmark's own code; returns the number of failed
/// checks.
int run_selftest(const Options& options);

}  // namespace perfbench
