// Self-test of the benchmark's own code: the statistics it reports and
// the output checks it relies on.  Each output check is proven live by
// planting one wrong value into a shrunken run of its workload and
// requiring exactly one counted failure (and none without the plant).
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

int g_failed = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failed;
}

void check_stats() {
  check(tail_percentile(19) == 50.0, "tail rule: 19 samples -> p50");
  check(tail_percentile(99) == 50.0, "tail rule: 99 samples -> p50");
  check(tail_percentile(100) == 90.0, "tail rule: 100 samples -> p90");
  check(tail_percentile(999) == 90.0, "tail rule: 999 samples -> p90");
  check(tail_percentile(1000) == 99.0, "tail rule: 1000 samples -> p99");
  check(tail_percentile(9999) == 99.0, "tail rule: 9999 samples -> p99");
  check(tail_percentile(10000) == 99.9, "tail rule: 10000 samples -> p99.9");
  check(quantile({}, 0.5) == 0.0, "quantile of an empty sample is 0");
  check(quantile({4, 1, 3, 2}, 0.5) == 2.5, "median interpolates");
  check(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9) == 10.0,
        "p90 of 1..11 is 10");
}

void check_recorder() {
  Recorder rec(true);
  const std::int32_t op = rec.begin_op("estate", 7);
  rec.time("a", [] {});
  rec.time("b", [&] { rec.time("c", [] {}); });
  rec.end_op(op);
  const auto& s = rec.spans();
  check(s.size() == 4 && s[1].parent == 0 && s[2].parent == 0 &&
            s[3].parent == 2 && s[3].op == 7,
        "spans nest under their op and share its id");
  Recorder wall(true);
  const std::int32_t wall_op = wall.begin_op("estate", 1);
  wall.time_wall("a", [] {
    volatile double x = 1;
    for (int i = 0; i < 1'000'000; ++i) x = x * 1.0000001;
  });
  wall.end_op(wall_op);
  check(wall.spans().size() == 2 && wall.spans()[1].cpu_s == 0.0 &&
            wall.spans()[1].end_ns > wall.spans()[1].start_ns,
        "wall-only spans record wall time and no CPU");
  Recorder untraced(false);
  untraced.end_op(untraced.begin_op("estate", 1));
  untraced.time("a", [] {});
  check(untraced.spans().size() == 1, "untraced runs keep only op spans");
}

/// Runs a shrunken workload, optionally with one planted wrong output, and
/// checks the failure count.
void check_plant(const Options& base, const std::string& workload,
                 double scale, void (*plant)(Options&)) {
  for (const bool planted : {false, true}) {
    Options options = base;
    options.workload = workload;
    options.seconds = 0.01;
    options.scale = scale;
    options.work_dir = (std::filesystem::path(base.work_dir) /
                        ("selftest-" + workload))
                           .string();
    std::filesystem::remove_all(options.work_dir);
    std::filesystem::create_directories(options.work_dir);
    if (planted) plant(options);
    Failures failures;
    try {
      if (workload == "estate_pipeline") {
        run_estate_pipeline(options, failures);
      } else if (workload == "defender_whatif") {
        run_defender_whatif(options, failures);
      } else {
        run_bloodhound_serving(options, failures);
      }
    } catch (const std::exception& e) {
      check(false, workload + " threw: " + e.what());
    }
    std::filesystem::remove_all(options.work_dir);
    const std::uint64_t expected = planted ? 1 : 0;
    check(failures.attempted() > 0 && failures.failed() == expected,
          workload + (planted ? " with a planted wrong output" : " clean") +
              ": " + std::to_string(failures.failed()) + " of " +
              std::to_string(failures.attempted()) + " failed, expected " +
              std::to_string(expected));
  }
}

}  // namespace

int run_selftest(const Options& options) {
  check_stats();
  check_recorder();
  check_plant(options, "estate_pipeline", 0.1,
              [](Options& o) { o.plant.fingerprint = true; });
  check_plant(options, "defender_whatif", 0.05,
              [](Options& o) { o.plant.digest = true; });
  check_plant(options, "bloodhound_serving", 0.2,
              [](Options& o) { o.plant.read = true; });
  std::printf("%s: %d check(s) failed\n", g_failed == 0 ? "PASS" : "FAIL",
              g_failed);
  return g_failed == 0 ? 0 : 1;
}

}  // namespace perfbench
