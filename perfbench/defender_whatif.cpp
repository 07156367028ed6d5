// defender_whatif: one 100k-node `vulnerable` estate (about 1.67M edges,
// far beyond the CPU cache) is built during set-up.  A closed loop then
// runs what-if scenarios: each blocks a seeded set of 8 edges drawn from
// the edges that carry RP-rate traffic and recomputes users-to-DA, RP-rate
// and shortest attack paths under that mask.  Analytics and the thread
// pool do nearly all the timed work; there is no generation and no graphdb
// work inside the loop.
#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytics/attack_paths.hpp"
#include "analytics/reachability.hpp"
#include "analytics/rp_rate.hpp"
#include "common.hpp"
#include "core/generator.hpp"
#include "util/binio.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace adsynth;

constexpr std::size_t kEstateNodes = 100'000;
constexpr std::size_t kBlockedPerScenario = 8;
constexpr std::size_t kScenarioSpecs = 4096;
/// Counts are summed over this fixed prefix of scenarios, which every run
/// completes; the width-1 determinism sample is drawn from it too.
constexpr std::size_t kCountedScenarios = 8;
constexpr std::size_t kVerifiedScenarios = 3;
/// Untimed scenarios before the measured window; the first one after
/// set-up often ran 1.3-1.7x the median.  They use the last specs, so the
/// counted prefix is unchanged.
constexpr std::size_t kWarmupScenarios = 2;

using EdgeSet = std::vector<analytics::EdgeIndex>;

struct Estate {
  core::GeneratedAd ad;
  EdgeSet candidates;  // edges carrying RP-rate traffic
  std::size_t baseline_users_with_path = 0;
};

analytics::RpOptions rp_options() {
  analytics::RpOptions options;
  options.max_sources = 400;
  options.seed = 1;
  return options;
}

struct ScenarioOutput {
  analytics::DaReachability da;
  analytics::RpResult rp;
  std::vector<analytics::AttackPath> paths;

  /// Order-sensitive FNV-1a over everything the scenario computed.
  std::uint64_t digest() const {
    util::Fnv1a d;
    const auto add = [&](std::uint64_t v) { d.update(&v, sizeof v); };
    add(da.users_with_path);
    for (const std::int32_t x : da.distances) {
      add(static_cast<std::uint32_t>(x));
    }
    add(rp.contributing_sources);
    add(rp.evaluated_sources);
    for (const double r : rp.rate) add(std::bit_cast<std::uint64_t>(r));
    for (const analytics::AttackPath& p : paths) {
      add(p.source);
      for (const analytics::AttackHop& hop : p.hops) add(hop.edge);
    }
    return d.digest();
  }
};

Estate build_estate(const Options& options, Recorder& rec,
                    std::uint64_t setup_id) {
  const std::int32_t op = rec.begin_op("setup", setup_id);
  Estate estate;
  const auto nodes = static_cast<std::size_t>(kEstateNodes * options.scale);
  rec.time("core.generate", [&] {
    estate.ad = core::generate_ad(core::GeneratorConfig::vulnerable(
        nodes, derive_seed(options.seed, 0xd5)));
  });
  const analytics::AttackGraph& graph = estate.ad.graph;
  estate.baseline_users_with_path =
      rec.time("analytics.users_to_da",
               [&] { return analytics::users_reaching_da(graph); })
          .users_with_path;
  analytics::RpOptions traffic = rp_options();
  traffic.edge_traffic = true;
  const analytics::RpResult baseline = rec.time(
      "analytics.rp_rate",
      [&] { return analytics::route_penetration(graph, traffic); });
  for (std::size_t e = 0; e < baseline.edge_traffic.size(); ++e) {
    if (baseline.edge_traffic[e] > 0.0) {
      estate.candidates.push_back(static_cast<analytics::EdgeIndex>(e));
    }
  }
  rec.end_op(op);
  return estate;
}

/// Seeded scenario inputs: each a set of distinct candidate edges.
std::vector<EdgeSet> make_scenarios(const Estate& estate, std::uint64_t seed) {
  util::Rng rng(derive_seed(seed, 0x5c));
  const std::size_t pick =
      std::min(kBlockedPerScenario, estate.candidates.size());
  std::vector<EdgeSet> specs(kScenarioSpecs);
  for (EdgeSet& spec : specs) {
    while (spec.size() < pick) {
      const analytics::EdgeIndex e =
          estate.candidates[rng.index(estate.candidates.size())];
      if (std::find(spec.begin(), spec.end(), e) == spec.end()) {
        spec.push_back(e);
      }
    }
  }
  return specs;
}

ScenarioOutput evaluate(const analytics::AttackGraph& graph,
                        const std::vector<bool>& mask, Recorder& rec) {
  ScenarioOutput out;
  rec.time("analytics.users_to_da",
           [&] { out.da = analytics::users_reaching_da(graph, &mask); });
  rec.time("analytics.rp_rate", [&] {
    out.rp = analytics::route_penetration(graph, rp_options(), &mask);
  });
  rec.time("analytics.attack_paths", [&] {
    analytics::AttackPathOptions paths;
    paths.blocked = &mask;
    out.paths = analytics::shortest_attack_paths(graph, paths);
  });
  return out;
}

void set_mask(std::vector<bool>& mask, const EdgeSet& spec, bool value) {
  for (const analytics::EdgeIndex e : spec) mask[e] = value;
}

}  // namespace

WorkloadResult run_defender_whatif(const Options& options,
                                   Failures& failures) {
  WorkloadResult result;
  result.recorders.emplace_back(options.trace);
  Recorder& rec = result.recorders.front();

  std::uint64_t setup_id = 1'000'000;
  const Estate estate = repeated_setup(3, result.setup_s, [&] {
    util::set_global_threads(kPoolWidth);
    return build_estate(options, rec, setup_id++);
  });
  const analytics::AttackGraph& graph = estate.ad.graph;
  const std::vector<EdgeSet> specs = make_scenarios(estate, options.seed);
  std::vector<bool> mask(graph.edge_count(), false);

  util::Rng sample_rng(derive_seed(options.seed, 0x5a));
  std::vector<std::size_t> verified;
  while (verified.size() < kVerifiedScenarios) {
    const std::size_t i = sample_rng.index(kCountedScenarios);
    if (std::find(verified.begin(), verified.end(), i) == verified.end()) {
      verified.push_back(i);
    }
  }
  std::vector<std::uint64_t> digests(kCountedScenarios, 0);

  util::Counter& bfs_runs =
      util::MetricsRegistry::instance().counter("util.bfs.runs");
  const std::uint64_t bfs_start = bfs_runs.value();
  std::uint64_t bfs_prefix = 0;
  double users_with_path = 0, rp_evaluated = 0, rp_contributing = 0;

  Recorder untimed(false);
  for (std::size_t w = 0; w < kWarmupScenarios; ++w) {
    const EdgeSet& spec = specs[specs.size() - 1 - w];
    failures.attempt();
    try {
      set_mask(mask, spec, true);
      evaluate(graph, mask, untimed);
    } catch (const std::exception& e) {
      failures.fail("warm-up scenario: " + std::string(e.what()));
    }
    set_mask(mask, spec, false);
  }

  const std::int64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::size_t i = 0; i < kCountedScenarios || now_ns() < deadline; ++i) {
    failures.attempt();
    const EdgeSet& spec = specs[i % specs.size()];
    const std::int32_t op = rec.begin_op("scenario", i);
    try {
      rec.time_wall("scenario.mask", [&] { set_mask(mask, spec, true); });
      std::optional<ScenarioOutput> out;
      out.emplace(evaluate(graph, mask, rec));
      if (i < kCountedScenarios) {
        digests[i] = rec.time("scenario.digest", [&] { return out->digest(); });
        users_with_path += static_cast<double>(out->da.users_with_path);
        rp_evaluated += static_cast<double>(out->rp.evaluated_sources);
        rp_contributing += static_cast<double>(out->rp.contributing_sources);
      }
      expect(out->da.users_with_path <= estate.baseline_users_with_path,
             "blocking edges added users with a path");
      expect(out->rp.contributing_sources == out->da.users_with_path,
             "RP-rate sources disagree with users-to-DA");
      expect((out->da.users_with_path == 0) == out->paths.empty(),
             "attack paths disagree with users-to-DA");
      rec.time("teardown", [&] {
        out.reset();
        set_mask(mask, spec, false);
      });
    } catch (const std::exception& e) {
      set_mask(mask, spec, false);
      failures.fail("scenario " + std::to_string(i) + ": " + e.what());
    }
    rec.end_op(op);
    if (i + 1 == kCountedScenarios) bfs_prefix = bfs_runs.value() - bfs_start;
  }
  const std::int64_t end = now_ns();

  // Determinism: a sample of scenarios recomputed at pool width 1 must be
  // bit-identical (DESIGN.md, parallel execution model).  Outside the
  // measured window.
  util::set_global_threads(1);
  for (const std::size_t i : verified) {
    try {
      set_mask(mask, specs[i], true);
      std::uint64_t serial = evaluate(graph, mask, untimed).digest();
      set_mask(mask, specs[i], false);
      if (options.plant.digest && i == verified.front()) serial ^= 1;
      if (serial != digests[i]) {
        failures.fail("scenario " + std::to_string(i) +
                      ": width-1 digest differs from width-2");
      }
    } catch (const std::exception& e) {
      failures.fail("scenario " + std::to_string(i) + " at width 1: " +
                    e.what());
    }
  }
  util::set_global_threads(kPoolWidth);

  result.seconds = static_cast<double>(end - start) * 1e-9;
  result.latency_ms = op_latencies(result.recorders, {"scenario"}, 1e-6);
  result.ops = result.latency_ms.size();
  result.extra["scenarios_per_s"] = {
      static_cast<double>(result.ops) / result.seconds, "1/s"};
  result.extra["scenario_ms_p50"] = {quantile(result.latency_ms, 0.5), "ms"};
  result.extra["scenario_ms_p90"] = {quantile(result.latency_ms, 0.9), "ms"};

  result.counts["estate.nodes"] = static_cast<double>(graph.node_count());
  result.counts["estate.rels"] = static_cast<double>(graph.edge_count());
  result.counts["analytics.users_with_path"] = users_with_path;
  result.counts["analytics.rp_evaluated_sources"] = rp_evaluated;
  result.counts["analytics.rp_contributing_sources"] = rp_contributing;
  result.counts["analytics.traffic_edges"] =
      static_cast<double>(estate.candidates.size());
  result.counts["util.bfs.runs"] = static_cast<double>(bfs_prefix);
  result.env["pool_width"] = std::to_string(kPoolWidth);
  result.env["readers"] = "0";
  result.env["writers"] = "0";
  return result;
}

}  // namespace perfbench
