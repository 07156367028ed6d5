// End-to-end benchmark of the ADSynth path.  Usage:
//
//   adsynth_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     --work-dir <dir> --out-dir <dir>
//   adsynth_perfbench --self-test
//
// Workloads: estate_pipeline, defender_whatif, bloodhound_serving (see
// their source files).  The last stdout line is one JSON object with the
// keys correct, attempted, failed and metrics: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics.  A traced run
// measures an untraced half and a traced half of the time, so it can
// report its own overhead per operation class; end-to-end figures come
// only from --trace 0.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "util/metrics.hpp"  // ADSYNTH_TRACE_ENABLED

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Layer spans: per-call median in `unit` (set-up calls included), self
/// time as a share of the summed duration of every operation of the traced
/// half (all threads, set-up included), and process CPU over wall time.
/// Phases in "us" are recorded with Recorder::time_wall and have no
/// CPU/wall figure.
struct Phase {
  const char* name;
  const char* unit;  // "ms" or "us"
  bool has_cpu() const { return std::string_view(unit) == "ms"; }
};
constexpr Phase kPhases[] = {
    {"core.generate", "ms"},
    {"adcore.to_store", "ms"},
    {"analytics.users_to_da", "ms"},
    {"analytics.rp_rate", "ms"},
    {"analytics.attack_paths", "ms"},
    {"defense.edge_block", "ms"},
    {"graphdb.persist.save", "ms"},
    {"graphdb.persist.load", "ms"},
    {"graphdb.persist.fingerprint", "ms"},
    {"graphdb.persist.recover", "ms"},
    {"graphdb.create_index", "ms"},
    {"graphdb.checkpoint", "ms"},
    {"graphdb.snapshot.acquire", "us"},
    {"graphdb.snapshot.release", "us"},
    {"graphdb.cypher.lookup", "us"},
    {"graphdb.cypher.expand", "ms"},
    {"graphdb.cypher.admins", "us"},
    {"graphdb.cypher.write", "us"},
    {"graphdb.commit", "us"},
    {"scenario.mask", "us"},
    {"scenario.digest", "ms"},
    {"setup.inputs", "ms"},
    {"teardown", "ms"},
};

/// Operation classes (root spans): coverage by layer spans, CPU/wall, and
/// tracing overhead (traced over untraced median latency, minus 1).
constexpr const char* kOps[] = {
    "estate",         "scenario",       "request.lookup", "request.expand",
    "request.admins", "request.commit", "recovery",
};

/// Counts each workload may report (0 where a workload has no such thing).
constexpr const char* kCounts[] = {
    "estate.nodes",
    "estate.rels",
    "estate.snapshot_bytes",
    "defense.cut_size",
    "defense.attacker_success",
    "analytics.rp_evaluated_sources",
    "analytics.rp_contributing_sources",
    "analytics.users_with_path",
    "analytics.traffic_edges",
    "graphdb.wal.records_per_commit",
    "graphdb.wal.bytes_per_commit",
    "graphdb.wal.replayed_records",
    "graphdb.snapshot.published",
    "graphdb.snapshot.reclaimed",
    "graphdb.snapshot.reroots",
    "graphdb.plan_cache.hit_ratio",
    "util.bfs.runs",
};

const char* count_unit(std::string_view name) {
  if (name == "defense.attacker_success" ||
      name == "graphdb.plan_cache.hit_ratio") {
    return "ratio";
  }
  if (name == "estate.snapshot_bytes" || name == "graphdb.wal.bytes_per_commit") {
    return "bytes";
  }
  return "count";
}

using MetricList = std::vector<std::pair<std::string, Metric>>;

MetricList end_to_end_names() {
  return {{"setup_s", {0, "s"}},
          {"peak_rss_mb", {0, "MB"}},
          {"ops_per_s", {0, "1/s"}},
          {"op_ms_p50", {0, "ms"}},
          {"op_ms_p90", {0, "ms"}}};
}

MetricList per_layer_names() {
  MetricList out;
  for (const Phase& p : kPhases) {
    out.push_back({std::string(p.name) + "_" + p.unit, {0, p.unit}});
    out.push_back({std::string(p.name) + ".share", {0, "share"}});
    if (p.has_cpu()) {
      out.push_back({std::string(p.name) + ".cpu_per_wall", {0, "ratio"}});
    }
  }
  out.push_back({"graphdb.snapshot.acquire_us_p99", {0, "us"}});
  for (const char* op : kOps) {
    out.push_back({std::string(op) + ".coverage", {0, "share"}});
    out.push_back({std::string(op) + ".cpu_per_wall", {0, "ratio"}});
    out.push_back({std::string(op) + ".overhead", {0, "share"}});
  }
  out.push_back({"trace.coverage_min", {0, "share"}});
  out.push_back({"trace.overhead", {0, "share"}});
  out.push_back({"trace.spans", {0, "count"}});
  for (const char* c : kCounts) out.push_back({c, {0, count_unit(c)}});
  return out;
}

double op_p50(const WorkloadResult& r) { return quantile(r.latency_ms, 0.5); }

/// Median latency of each operation class, in ns.
std::map<std::string, double, std::less<>> class_p50(const WorkloadResult& r) {
  std::map<std::string, double, std::less<>> out;
  for (const char* op : kOps) {
    const std::vector<double> d = op_latencies(r.recorders, {op}, 1.0);
    if (!d.empty()) out[op] = quantile(d, 0.5);
  }
  return out;
}

MetricList end_to_end(const WorkloadResult& r) {
  MetricList m = end_to_end_names();
  const auto set = [&](std::string_view name, double v) {
    for (auto& [k, metric] : m) {
      if (k == name) metric.value = v;
    }
  };
  set("setup_s", quantile(r.setup_s, 0.5));
  set("peak_rss_mb", peak_rss_mb());
  set("ops_per_s", static_cast<double>(r.ops) / r.seconds);
  set("op_ms_p50", op_p50(r));
  set("op_ms_p90", quantile(r.latency_ms, 0.9));
  return m;
}

struct PhaseStats {
  std::vector<double> durations_ns;
  double self_ns = 0, dur_ns = 0, cpu_s = 0, child_ns = 0;
};

/// Self times, coverage and overheads from the traced recorders, against
/// the untraced half's medians.
MetricList per_layer(
    const WorkloadResult& traced, double untraced_p50,
    const std::map<std::string, double, std::less<>>& untraced_class_p50) {
  std::map<std::string, PhaseStats, std::less<>> stats;
  double total_ns = 0;
  std::size_t spans = 0;
  for (const Recorder& rec : traced.recorders) {
    const std::vector<Span>& s = rec.spans();
    spans += s.size();
    std::vector<double> child(s.size(), 0.0);
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i].parent >= 0) {
        child[static_cast<std::size_t>(s[i].parent)] +=
            static_cast<double>(s[i].end_ns - s[i].start_ns);
      }
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      const double dur = static_cast<double>(s[i].end_ns - s[i].start_ns);
      PhaseStats& p = stats[s[i].name];
      p.durations_ns.push_back(dur);
      p.dur_ns += dur;
      p.child_ns += child[i];
      p.self_ns += dur - child[i];
      p.cpu_s += s[i].cpu_s;
      if (s[i].parent == -1) total_ns += dur;
    }
  }
  MetricList m = per_layer_names();
  const auto set = [&](const std::string& name, double v) {
    for (auto& [k, metric] : m) {
      if (k == name) metric.value = v;
    }
  };
  const auto find = [&](std::string_view name) -> const PhaseStats* {
    const auto it = stats.find(name);
    return it == stats.end() ? nullptr : &it->second;
  };
  for (const Phase& ph : kPhases) {
    const PhaseStats* p = find(ph.name);
    if (p == nullptr) continue;
    const double scale = std::string_view(ph.unit) == "ms" ? 1e-6 : 1e-3;
    const std::string base = ph.name;
    set(base + "_" + ph.unit, quantile(p->durations_ns, 0.5) * scale);
    set(base + ".share", total_ns > 0 ? p->self_ns / total_ns : 0.0);
    if (ph.has_cpu()) {
      set(base + ".cpu_per_wall",
          p->dur_ns > 0 ? p->cpu_s * 1e9 / p->dur_ns : 0.0);
    }
  }
  if (const PhaseStats* p = find("graphdb.snapshot.acquire")) {
    set("graphdb.snapshot.acquire_us_p99", quantile(p->durations_ns, 0.99) * 1e-3);
  }
  double coverage_min = 1.0;
  for (const char* op : kOps) {
    const PhaseStats* p = find(op);
    if (p == nullptr || p->dur_ns <= 0) continue;
    const double coverage = p->child_ns / p->dur_ns;
    coverage_min = std::min(coverage_min, coverage);
    set(std::string(op) + ".coverage", coverage);
    set(std::string(op) + ".cpu_per_wall", p->cpu_s * 1e9 / p->dur_ns);
    const auto base = untraced_class_p50.find(op);
    if (base != untraced_class_p50.end() && base->second > 0) {
      set(std::string(op) + ".overhead",
          quantile(p->durations_ns, 0.5) / base->second - 1.0);
    }
  }
  set("trace.coverage_min", coverage_min);
  set("trace.overhead",
      untraced_p50 > 0 ? op_p50(traced) / untraced_p50 - 1.0 : 0.0);
  set("trace.spans", static_cast<double>(spans));
  for (const auto& [name, value] : traced.counts) set(name, value);
  return m;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_metrics(const MetricList& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string json_env(const std::map<std::string, std::string>& env) {
  std::string out = "{";
  for (const auto& [k, v] : env) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + json_string(v);
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

void write_spans(const WorkloadResult& r, const std::string& path) {
  std::ofstream out(path);
  for (std::size_t t = 0; t < r.recorders.size(); ++t) {
    for (const Span& s : r.recorders[t].spans()) {
      out << "{\"thread\": " << t << ", \"op\": " << s.op
          << ", \"name\": " << json_string(s.name)
          << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns
          << ", \"cpu_s\": " << json_number(s.cpu_s) << "}\n";
    }
  }
}

WorkloadResult run_workload(const Options& options, Failures& failures) {
  if (options.workload == "estate_pipeline") {
    return run_estate_pipeline(options, failures);
  }
  if (options.workload == "defender_whatif") {
    return run_defender_whatif(options, failures);
  }
  return run_bloodhound_serving(options, failures);
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "adsynth_perfbench: %s\nusage: adsynth_perfbench --workload "
               "<estate_pipeline|defender_whatif|bloodhound_serving> --seed "
               "<n> --seconds <s> --trace <0|1> --work-dir <dir> --out-dir "
               "<dir>\n       adsynth_perfbench --self-test\n",
               why.c_str());
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false, self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (options.work_dir.empty() || options.out_dir.empty()) {
    usage("--work-dir and --out-dir are required");
  }
  if (self_test) return run_selftest(options);
  static const std::set<std::string> kWorkloads = {
      "estate_pipeline", "defender_whatif", "bloodhound_serving"};
  if (!have_workload || kWorkloads.count(options.workload) == 0) {
    usage("unknown or missing --workload");
  }
  if (!(options.seconds > 0)) usage("--seconds must be positive");

  const fs::path work = fs::path(options.work_dir) /
                        (options.workload + "-" + std::to_string(options.seed));
  options.work_dir = work.string();
  fs::remove_all(work);
  fs::create_directories(work);
  fs::create_directories(options.out_dir);

  Failures failures;
  std::map<std::string, std::string> env;
  std::string result_line;
  try {
    MetricList metrics;
    MetricList extra;  // workload-named figures, reported but not gated
    if (!options.trace) {
      const WorkloadResult r = run_workload(options, failures);
      metrics = end_to_end(r);
      extra.assign(r.extra.begin(), r.extra.end());
      // The highest percentile the sample supports (ten samples beyond it),
      // next to the fixed p90 that is gated.
      const double p = tail_percentile(r.latency_ms.size());
      extra.push_back(
          {"op_samples", {static_cast<double>(r.latency_ms.size()), "count"}});
      extra.push_back({"op_ms_tail_percentile", {p, "%"}});
      extra.push_back({"op_ms_tail", {quantile(r.latency_ms, p / 100.0), "ms"}});
      env = r.env;
    } else {
      Options half = options;
      half.seconds = options.seconds / 2;
      half.trace = false;
      double untraced_p50 = 0;
      std::map<std::string, double, std::less<>> untraced_class_p50;
      {
        const WorkloadResult r = run_workload(half, failures);
        untraced_p50 = op_p50(r);
        untraced_class_p50 = class_p50(r);
      }
      half.trace = true;
      const WorkloadResult r = run_workload(half, failures);
      metrics = per_layer(r, untraced_p50, untraced_class_p50);
      env = r.env;
      write_spans(r, (fs::path(options.out_dir) /
                      ("spans-" + options.workload + "-seed" +
                       std::to_string(options.seed) + ".jsonl"))
                         .string());
    }
    env["workload"] = options.workload;
    env["seed"] = std::to_string(options.seed);
    env["seconds"] = json_number(options.seconds);
    env["trace"] = options.trace ? "1" : "0";
    env["nproc"] = std::to_string(std::thread::hardware_concurrency());
    env["cpu_model"] = cpu_model();
    env["compiler"] = PERFBENCH_COMPILER;
    env["build_type"] = PERFBENCH_BUILD_TYPE;
    env["adsynth_trace"] = ADSYNTH_TRACE_ENABLED ? "ON" : "OFF";
    const char* rev = std::getenv("PERFBENCH_GIT_REV");
    env["git_rev"] = rev != nullptr ? rev : "unknown";

    std::printf("# env %s\n", json_env(env).c_str());
    for (const auto& [name, m] : extra) {
      std::printf("# %s %s = %s %s\n", options.workload.c_str(), name.c_str(),
                  json_number(m.value).c_str(), m.unit.c_str());
    }
    result_line = "{\"correct\": " +
                  std::string(failures.failed() == 0 ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(failures.attempted()) +
                  ", \"failed\": " + std::to_string(failures.failed()) +
                  ", \"metrics\": " + json_metrics(metrics) + "}";
    std::ofstream record(fs::path(options.out_dir) /
                         ("result-" + options.workload + "-seed" +
                          std::to_string(options.seed) + "-trace" +
                          env["trace"] + ".json"));
    record << "{\"env\": " << json_env(env) << ", \"workload_metrics\": "
           << json_metrics(extra) << ", \"result\": " << result_line << "}\n";
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adsynth_perfbench: %s aborted: %s\n",
                 options.workload.c_str(), e.what());
    fs::remove_all(work);
    return 1;
  }
  fs::remove_all(work);
  std::printf("%s\n", result_line.c_str());
  return 0;
}
