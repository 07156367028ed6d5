// estate_pipeline: dataset generation.  A closed loop over fresh 10k-node
// estates, alternating the `vulnerable` and `secure` presets, each taken
// through the paper's whole path: generate, to_store, users-to-DA, RP-rate,
// attack paths, greedy edge blocking (budget 4), save, load, fingerprint
// check and destruction.  The only workload where generation, conversion
// and persistence dominate; its parallel regions are small.
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>

#include "adcore/convert.hpp"
#include "analytics/attack_paths.hpp"
#include "analytics/reachability.hpp"
#include "analytics/rp_rate.hpp"
#include "common.hpp"
#include "core/generator.hpp"
#include "defense/edge_block.hpp"
#include "graphdb/persist.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace adsynth;

constexpr std::size_t kEstateNodes = 10'000;
constexpr std::size_t kBlockBudget = 4;
/// Counts are summed over this fixed prefix of estates, which every run
/// completes, so they repeat exactly for a seed.
constexpr std::size_t kCountedEstates = 8;

struct EstateCounts {
  double nodes = 0, rels = 0, snapshot_bytes = 0, cut_size = 0,
         attacker_success = 0, rp_evaluated = 0, rp_contributing = 0,
         users_with_path = 0;
};

core::GeneratorConfig estate_config(std::uint64_t seed, std::uint64_t index,
                                    double scale) {
  const std::uint64_t s = derive_seed(seed, index);
  const auto nodes = static_cast<std::size_t>(kEstateNodes * scale);
  return index % 2 == 0 ? core::GeneratorConfig::vulnerable(nodes, s)
                        : core::GeneratorConfig::secure(nodes, s);
}

/// One estate through the whole path.  Every statement between the op's
/// begin and end runs inside a layer span, destruction included.
void run_estate(const Options& options, std::uint64_t index,
                const fs::path& dir, const char* op_name, Recorder& rec,
                Failures& failures, EstateCounts* counts) {
  failures.attempt();
  const std::int32_t op = rec.begin_op(op_name, index);
  try {
    const core::GeneratorConfig config =
        estate_config(options.seed, index, options.scale);
    const std::string path =
        (dir / ("estate-" + std::to_string(index) + ".adsg")).string();
    std::optional<core::GeneratedAd> ad;
    std::optional<graphdb::GraphStore> store;
    std::optional<graphdb::GraphStore> loaded;
    rec.time("core.generate",
             [&] { ad.emplace(core::generate_ad(config)); });
    const adcore::AttackGraph& graph = ad->graph;
    rec.time("adcore.to_store", [&] {
      store.emplace(adcore::to_store(graph, config.domain_fqdn));
    });
    const analytics::DaReachability da = rec.time(
        "analytics.users_to_da", [&] { return analytics::users_reaching_da(graph); });
    const analytics::RpResult rp = rec.time(
        "analytics.rp_rate", [&] { return analytics::route_penetration(graph); });
    const std::vector<analytics::AttackPath> paths =
        rec.time("analytics.attack_paths",
                 [&] { return analytics::shortest_attack_paths(graph); });
    const defense::LiveEdgeBlockResult cut = rec.time("defense.edge_block", [&] {
      return defense::block_edges_snapshot(*store, kBlockBudget);
    });
    const std::uint64_t fp_before = rec.time(
        "graphdb.persist.fingerprint",
        [&] { return graphdb::persist::fingerprint(*store); });
    rec.time("graphdb.persist.save",
             [&] { graphdb::persist::save_snapshot(*store, path); });
    rec.time("graphdb.persist.load",
             [&] { loaded.emplace(graphdb::persist::load_snapshot(path)); });
    std::uint64_t fp_after = rec.time(
        "graphdb.persist.fingerprint",
        [&] { return graphdb::persist::fingerprint(*loaded); });
    if (options.plant.fingerprint && index == 0) fp_after ^= 1;

    // Checks on values already computed; no layer work.
    expect(store->node_count() == graph.node_count() &&
               store->rel_count() == graph.edge_count(),
           "to_store changed the node or relationship count");
    expect(da.users_with_path <= da.regular_users,
           "more users with a path than regular users");
    expect((da.users_with_path == 0) == paths.empty(),
           "attack paths disagree with users-to-DA");
    expect(rp.evaluated_sources <= rp.contributing_sources,
           "RP-rate evaluated more sources than contribute");
    expect(cut.blocked_rels.size() <= kBlockBudget &&
               cut.attacker_success >= 0.0 && cut.attacker_success <= 1.0,
           "edge blocking exceeded its budget or success range");
    expect(fp_before == fp_after,
           "save -> load changed the fingerprint of estate " +
               std::to_string(index));

    if (counts != nullptr) {
      counts->nodes += static_cast<double>(graph.node_count());
      counts->rels += static_cast<double>(graph.edge_count());
      counts->snapshot_bytes += static_cast<double>(fs::file_size(path));
      counts->cut_size += static_cast<double>(cut.blocked_rels.size());
      counts->attacker_success += cut.attacker_success;
      counts->rp_evaluated += static_cast<double>(rp.evaluated_sources);
      counts->rp_contributing += static_cast<double>(rp.contributing_sources);
      counts->users_with_path += static_cast<double>(da.users_with_path);
    }
    rec.time("teardown", [&] {
      loaded.reset();
      store.reset();
      ad.reset();
      fs::remove(path);
    });
  } catch (const std::exception& e) {
    failures.fail("estate " + std::to_string(index) + ": " + e.what());
  }
  rec.end_op(op);
}

}  // namespace

WorkloadResult run_estate_pipeline(const Options& options,
                                   Failures& failures) {
  WorkloadResult result;
  result.recorders.emplace_back(options.trace);
  Recorder& rec = result.recorders.front();
  const fs::path dir = fs::path(options.work_dir) / "estates";

  // Set-up: start the pool and take one warm-up estate through the path,
  // so allocator growth and lazy initialisation are not charged to the
  // measured estates.
  std::uint64_t setup_index = 1'000'000;
  repeated_setup(5, result.setup_s, [&] {
    util::set_global_threads(kPoolWidth);
    fs::create_directories(dir);
    run_estate(options, setup_index++, dir, "setup", rec, failures, nullptr);
    return 0;
  });

  util::Counter& bfs_runs =
      util::MetricsRegistry::instance().counter("util.bfs.runs");
  EstateCounts counts;
  std::uint64_t bfs_prefix = 0;
  const std::uint64_t bfs_start = bfs_runs.value();
  const std::int64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::uint64_t index = 0;
  for (; index < kCountedEstates || now_ns() < deadline; ++index) {
    const bool counted = index < kCountedEstates;
    run_estate(options, index, dir, "estate", rec, failures,
               counted ? &counts : nullptr);
    if (index + 1 == kCountedEstates) bfs_prefix = bfs_runs.value() - bfs_start;
  }
  result.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  fs::remove_all(dir);

  result.latency_ms = op_latencies(result.recorders, {"estate"}, 1e-6);
  result.ops = result.latency_ms.size();
  result.extra["estates_per_min"] = {
      static_cast<double>(result.ops) / result.seconds * 60.0, "1/min"};
  result.extra["estate_ms_p50"] = {quantile(result.latency_ms, 0.5), "ms"};
  result.extra["estate_ms_p90"] = {quantile(result.latency_ms, 0.9), "ms"};

  result.counts["estate.nodes"] = counts.nodes;
  result.counts["estate.rels"] = counts.rels;
  result.counts["estate.snapshot_bytes"] = counts.snapshot_bytes / kCountedEstates;
  result.counts["defense.cut_size"] = counts.cut_size;
  result.counts["defense.attacker_success"] = counts.attacker_success / kCountedEstates;
  result.counts["analytics.rp_evaluated_sources"] = counts.rp_evaluated;
  result.counts["analytics.rp_contributing_sources"] = counts.rp_contributing;
  result.counts["analytics.users_with_path"] = counts.users_with_path;
  result.counts["util.bfs.runs"] = static_cast<double>(bfs_prefix);
  result.env["pool_width"] = std::to_string(util::global_threads());
  result.env["readers"] = "0";
  result.env["writers"] = "0";
  return result;
}

}  // namespace perfbench
