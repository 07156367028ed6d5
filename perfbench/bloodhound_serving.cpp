// bloodhound_serving: one live estate under directory churn.  A 2x10k-node
// forest (a secure and a vulnerable domain, with cross-domain leaks) is
// indexed on :User/:Group/:Computer(name), checkpointed and booted through
// Durability::recover.  Each round then boots a copy of that checkpoint
// and runs two reader threads in a closed loop of snapshot() +
// execute_read (60% name lookups, 30% MemberOf*1..3 counts, 10% AdminTo
// counts anchored on a computer) while one writer commits a fixed number
// of two-statement transactions with the WAL attached and an
// auto-checkpoint every 1000 commits.  After the writer finishes, recovery
// is timed.  Rounds repeat until the run's time is up.
//
// A round is bounded by its commit count, not by a timer: per-commit cost
// grows with the commits since the last snapshot re-root, so a fixed count
// keeps every round the same work and ends well before the first re-root.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adcore/convert.hpp"
#include "common.hpp"
#include "core/forest.hpp"
#include "graphdb/cypher.hpp"
#include "graphdb/persist.hpp"
#include "graphdb/snapshot.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace adsynth;

constexpr std::size_t kDomainNodes = 10'000;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kCommitsPerRound = 1500;
constexpr std::size_t kCheckpointEvery = 1000;
constexpr std::size_t kRecoveriesPerRound = 5;
constexpr std::size_t kRequestsPerReader = 1 << 13;
/// Set-up builds this many forests, each from its own seed; rounds cycle
/// through them, so one run's figures average over several estates.
constexpr std::size_t kForests = 5;
/// Every this many reads, the answer is kept for re-checking against the
/// snapshot pinned before the writer started.
constexpr std::size_t kSampleEvery = 16;

/// Read statements; the first three are name lookups.
enum Stmt : std::uint8_t { kUserLookup, kGroupLookup, kComputerLookup,
                           kExpand, kAdmins, kStmtCount };
constexpr const char* kReadQueries[kStmtCount] = {
    "MATCH (n:User {name: $name}) RETURN count(n)",
    "MATCH (n:Group {name: $name}) RETURN count(n)",
    "MATCH (n:Computer {name: $name}) RETURN count(n)",
    "MATCH (u:User {name: $name})-[:MemberOf*1..3]->(g:Group) "
    "RETURN count(g)",
    "MATCH (g:Group)-[:AdminTo]->(c:Computer {name: $name}) RETURN count(g)",
};
constexpr const char* kReadOps[kStmtCount] = {
    "request.lookup", "request.lookup", "request.lookup", "request.expand",
    "request.admins"};
constexpr const char* kReadSpans[kStmtCount] = {
    "graphdb.cypher.lookup", "graphdb.cypher.lookup", "graphdb.cypher.lookup",
    "graphdb.cypher.expand", "graphdb.cypher.admins"};
constexpr const char* kCreateUser = "CREATE (u:User {name: $name})";
constexpr const char* kJoinGroup =
    "MATCH (u:User {name: $name}), (g:Group {name: $group}) "
    "CREATE (u)-[:MemberOf]->(g)";

struct Request {
  Stmt stmt = kUserLookup;
  graphdb::Params params;
};

struct Write {
  std::string user;
  std::string group;
};

/// What set-up leaves behind: the checkpoint directory plus the seeded
/// request streams (the program receives only these inputs).
struct Base {
  fs::path dir;                              // the checkpoint
  std::vector<std::vector<Request>> reads;  // one stream per reader
  std::vector<Write> writes;                // the same for every round
  double nodes = 0, rels = 0, snapshot_bytes = 0;
};

struct ReadSample {
  std::size_t request = 0;
  std::int64_t count = 0;
};

core::ForestConfig forest_config(std::uint64_t seed, double scale) {
  core::ForestConfig cfg;
  const auto nodes = static_cast<std::size_t>(kDomainNodes * scale);
  core::GeneratorConfig secure =
      core::GeneratorConfig::secure(nodes, derive_seed(seed, 0xf0));
  secure.domain_fqdn = "d0.forest.local";
  core::GeneratorConfig vulnerable =
      core::GeneratorConfig::vulnerable(nodes, derive_seed(seed, 0xf1));
  vulnerable.domain_fqdn = "d1.forest.local";
  cfg.domains = {std::move(secure), std::move(vulnerable)};
  cfg.topology = core::TrustTopology::kHubAndSpoke;
  cfg.cross_domain_leaks = 10;
  cfg.seed = derive_seed(seed, 0xf2);
  return cfg;
}

std::vector<std::string> names_with_label(const graphdb::GraphStore& store,
                                          std::string_view label) {
  std::vector<std::string> names;
  for (const graphdb::NodeId id : store.nodes_with_label(label)) {
    const graphdb::PropertyValue* name = store.node_property(id, "name");
    if (name != nullptr && name->is_string()) names.push_back(name->as_string());
  }
  return names;
}

/// Builds the seeded read streams and writer plan from the live store.
Base make_inputs(const graphdb::GraphStore& store, std::uint64_t seed) {
  Base base;
  const std::vector<std::string> users = names_with_label(store, "User");
  const std::vector<std::string> groups = names_with_label(store, "Group");
  const std::vector<std::string> computers =
      names_with_label(store, "Computer");
  std::vector<std::string> admin_targets;
  if (const auto admin_to = store.find_rel_type("AdminTo")) {
    for (graphdb::RelId r = 0; r < store.rel_capacity(); ++r) {
      const graphdb::RelRecord& rel = store.rel(r);
      if (rel.deleted || rel.type != *admin_to) continue;
      const graphdb::PropertyValue* name =
          store.node_property(rel.target, "name");
      if (name != nullptr && name->is_string()) {
        admin_targets.push_back(name->as_string());
      }
    }
  }
  std::sort(admin_targets.begin(), admin_targets.end());
  admin_targets.erase(std::unique(admin_targets.begin(), admin_targets.end()),
                      admin_targets.end());
  std::vector<std::string> unique_groups = groups;
  std::sort(unique_groups.begin(), unique_groups.end());
  std::vector<std::string> single_groups;
  for (std::size_t i = 0; i < unique_groups.size(); ++i) {
    const bool dup = (i > 0 && unique_groups[i] == unique_groups[i - 1]) ||
                     (i + 1 < unique_groups.size() &&
                      unique_groups[i] == unique_groups[i + 1]);
    if (!dup) single_groups.push_back(unique_groups[i]);
  }
  if (users.empty() || groups.empty() || computers.empty() ||
      admin_targets.empty() || single_groups.empty()) {
    throw std::runtime_error("bloodhound_serving: forest lacks query targets");
  }

  const auto pick = [](util::Rng& rng, const std::vector<std::string>& v) {
    return graphdb::PropertyValue(v[rng.index(v.size())]);
  };
  for (std::size_t t = 0; t < kReaders; ++t) {
    util::Rng rng(derive_seed(seed, 0x4ead + t));
    std::vector<Request> stream(kRequestsPerReader);
    for (Request& rq : stream) {
      const std::uint64_t roll = rng.index(100);
      if (roll < 30) {
        rq.stmt = kUserLookup;
        rq.params["name"] = pick(rng, users);
      } else if (roll < 45) {
        rq.stmt = kGroupLookup;
        rq.params["name"] = pick(rng, groups);
      } else if (roll < 60) {
        rq.stmt = kComputerLookup;
        rq.params["name"] = pick(rng, computers);
      } else if (roll < 90) {
        rq.stmt = kExpand;
        rq.params["name"] = pick(rng, users);
      } else {
        rq.stmt = kAdmins;
        rq.params["name"] = pick(rng, admin_targets);
      }
    }
    base.reads.push_back(std::move(stream));
  }
  util::Rng rng(derive_seed(seed, 0x3717));
  for (std::size_t i = 0; i < kCommitsPerRound; ++i) {
    base.writes.push_back({"PERFBENCH-NEW-" + std::to_string(i),
                           single_groups[rng.index(single_groups.size())]});
  }
  base.nodes = static_cast<double>(store.node_count());
  base.rels = static_cast<double>(store.rel_count());
  return base;
}

/// Generate, convert, index, checkpoint, then boot through recovery —
/// what a server does before it can take its first request.
Base build_base(const Options& options, const fs::path& base_dir,
                std::uint64_t seed, Recorder& rec, std::uint64_t setup_id) {
  const std::int32_t op = rec.begin_op("setup", setup_id);
  fs::remove_all(base_dir);
  fs::create_directories(base_dir);
  std::optional<core::GeneratedForest> forest;
  std::optional<graphdb::GraphStore> store;
  rec.time("core.generate", [&] {
    forest.emplace(core::generate_forest(forest_config(seed, options.scale)));
  });
  rec.time("adcore.to_store",
           [&] { store.emplace(adcore::to_store(forest->graph)); });
  rec.time("graphdb.create_index", [&] {
    graphdb::CypherSession session(*store);
    session.run("CREATE INDEX ON :User(name)");
    session.run("CREATE INDEX ON :Group(name)");
    session.run("CREATE INDEX ON :Computer(name)");
  });
  graphdb::persist::Durability durability(base_dir.string());
  rec.time("graphdb.checkpoint", [&] { durability.checkpoint(*store); });
  Base base =
      rec.time("setup.inputs", [&] { return make_inputs(*store, seed); });
  base.dir = base_dir;
  base.snapshot_bytes =
      static_cast<double>(fs::file_size(durability.snapshot_path()));
  rec.time("teardown", [&] {
    store.reset();
    forest.reset();
  });
  std::optional<graphdb::GraphStore> booted;
  rec.time("graphdb.persist.recover",
           [&] { booted.emplace(durability.recover()); });
  rec.time_wall("graphdb.snapshot.acquire", [&] { booted->snapshot(); });
  rec.time("teardown", [&] { booted.reset(); });
  rec.end_op(op);
  return base;
}

struct RoundCounts {
  double wal_records_per_commit = 0, wal_bytes_per_commit = 0,
         wal_replayed = 0, published = 0, reclaimed = 0,
         plan_cache_hit_ratio = 0;
};

class Server {
 public:
  Server(const Options& options, const std::vector<Base>& bases,
         Failures& failures, std::vector<Recorder>& recorders)
      : options_(options), bases_(bases), failures_(failures),
        recorders_(recorders) {}

  /// One round; returns the [start, end) of the time during which readers
  /// and the writer ran together.
  std::pair<std::int64_t, std::int64_t> round(std::size_t index,
                                              RoundCounts* counts);

 private:
  void reader(std::size_t t, const Base& base, graphdb::GraphStore& store,
              const std::vector<graphdb::PreparedStatement>& stmts,
              const std::atomic<bool>& stop,
              std::vector<ReadSample>& samples);

  const Options& options_;
  const std::vector<Base>& bases_;
  Failures& failures_;
  std::vector<Recorder>& recorders_;
  std::uint64_t next_op_ = 0;
};

void Server::reader(std::size_t t, const Base& base,
                    graphdb::GraphStore& store,
                    const std::vector<graphdb::PreparedStatement>& stmts,
                    const std::atomic<bool>& stop,
                    std::vector<ReadSample>& samples) {
  Recorder& rec = recorders_[1 + t];
  const std::vector<Request>& stream = base.reads[t];
  std::uint64_t op_id = (static_cast<std::uint64_t>(t) + 1) << 48 |
                        static_cast<std::uint64_t>(rec.spans().size());
  for (std::size_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
    const std::size_t slot = k % stream.size();
    const Request& rq = stream[slot];
    failures_.attempt();
    std::int64_t count = -1;
    const std::int32_t op = rec.begin_op(kReadOps[rq.stmt], op_id++);
    try {
      graphdb::Snapshot snap = rec.time_wall(
          "graphdb.snapshot.acquire", [&] { return store.snapshot(); });
      const auto execute = [&] {
        return graphdb::CypherSession::execute_read(snap, stmts[rq.stmt],
                                                    rq.params)
            .count;
      };
      // Expansions take milliseconds; lookups and admin counts take
      // microseconds, too short for a CPU reading.
      count = rq.stmt == kExpand ? rec.time(kReadSpans[rq.stmt], execute)
                                 : rec.time_wall(kReadSpans[rq.stmt], execute);
      rec.time_wall("graphdb.snapshot.release", [&] { snap.reset(); });
    } catch (const std::exception& e) {
      failures_.fail(std::string("read: ") + e.what());
    }
    rec.end_op(op);
    if (k % kSampleEvery == 0 && count >= 0) samples.push_back({slot, count});
  }
}

std::pair<std::int64_t, std::int64_t> Server::round(std::size_t index,
                                                    RoundCounts* counts) {
  Recorder& rec = recorders_[0];
  const Base& base = bases_[index % bases_.size()];
  const fs::path dir =
      fs::path(options_.work_dir) / ("round-" + std::to_string(index));
  fs::remove_all(dir);
  fs::copy(base.dir, dir, fs::copy_options::recursive);

  graphdb::persist::Durability durability(dir.string());
  graphdb::GraphStore store = durability.recover();
  durability.attach(store);
  graphdb::CypherSession session(store);
  std::uintmax_t wal_bytes_base = fs::file_size(durability.wal_path());
  std::size_t commits_since_checkpoint = 0;
  session.set_checkpoint_handler([&] {
    rec.time("graphdb.checkpoint", [&] { durability.checkpoint(store); });
    wal_bytes_base = fs::file_size(durability.wal_path());
    commits_since_checkpoint = 0;
  });
  session.set_auto_checkpoint(kCheckpointEvery);
  std::vector<graphdb::PreparedStatement> stmts;
  for (const char* q : kReadQueries) stmts.push_back(session.prepare(q));
  // The first publish happens here, before any reader exists: a reader
  // calling snapshot() with nothing published while the writer holds a
  // transaction open would throw.
  const graphdb::Snapshot pinned = store.snapshot();

  std::atomic<bool> stop{false};
  std::vector<std::vector<ReadSample>> samples(kReaders);
  std::vector<bool> committed(base.writes.size(), false);
  const std::int64_t start = now_ns();
  std::int64_t end = start;
  {
    std::vector<std::jthread> readers;
    // Declared after `readers`, so it runs first on every way out of this
    // block and the joins that follow cannot wait forever.
    struct StopReaders {
      std::atomic<bool>& stop;
      ~StopReaders() { stop.store(true, std::memory_order_release); }
    } stop_readers{stop};
    for (std::size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        reader(t, base, store, stmts, stop, samples[t]);
      });
    }
    for (std::size_t i = 0; i < base.writes.size(); ++i) {
      const Write& w = base.writes[i];
      failures_.attempt();
      const std::int32_t op = rec.begin_op("request.commit", next_op_++);
      try {
        graphdb::QueryResult created, joined;
        rec.time_wall("graphdb.cypher.write", [&] {
          session.begin_transaction();
          created = session.run(kCreateUser,
                                {{"name", graphdb::PropertyValue(w.user)}});
          joined = session.run(kJoinGroup,
                               {{"name", graphdb::PropertyValue(w.user)},
                                {"group", graphdb::PropertyValue(w.group)}});
        });
        ++commits_since_checkpoint;
        rec.time_wall("graphdb.commit", [&] { session.commit(); });
        if (created.nodes_created != 1 || joined.rels_created != 1) {
          throw WrongAnswer("transaction created " +
                            std::to_string(created.nodes_created) +
                            " users and " +
                            std::to_string(joined.rels_created) + " edges");
        }
        committed[i] = true;
      } catch (const std::exception& e) {
        if (session.in_transaction()) session.rollback();
        failures_.fail("commit " + std::to_string(i) + ": " + e.what());
      }
      rec.end_op(op);
    }
    end = now_ns();
  }  // readers stopped and joined

  // --- output checks, outside the measured window -------------------------
  {
    const graphdb::Snapshot last = store.snapshot();
    for (std::size_t i = 0; i < base.writes.size(); ++i) {
      if (!committed[i]) continue;
      if (last->find_nodes("User", "name",
                           graphdb::PropertyValue(base.writes[i].user))
              .size() != 1) {
        failures_.fail("committed user " + base.writes[i].user +
                       " missing from the final snapshot");
      }
    }
  }
  bool planted = !(options_.plant.read && index == 0);
  for (std::size_t t = 0; t < kReaders; ++t) {
    for (const ReadSample& s : samples[t]) {
      const Request& rq = base.reads[t][s.request];
      std::int64_t expected = -2;
      try {
        expected = graphdb::CypherSession::execute_read(pinned, stmts[rq.stmt],
                                                        rq.params)
                       .count;
      } catch (const std::exception&) {
      }
      std::int64_t got = s.count;
      if (!planted) {
        got += 1;
        planted = true;
      }
      if (got != expected) {
        failures_.fail("read answer " + std::to_string(got) +
                       " differs from the pinned snapshot's " +
                       std::to_string(expected));
      }
    }
  }
  if (counts != nullptr) {
    const double commits =
        static_cast<double>(std::max<std::size_t>(1, commits_since_checkpoint));
    counts->wal_records_per_commit =
        static_cast<double>(durability.wal_records_appended()) / commits;
    counts->wal_bytes_per_commit =
        static_cast<double>(fs::file_size(durability.wal_path()) -
                            wal_bytes_base) /
        commits;
    const std::size_t lookups =
        session.plan_cache_hits() + session.plan_cache_misses();
    counts->plan_cache_hit_ratio =
        lookups == 0 ? 0.0
                     : static_cast<double>(session.plan_cache_hits()) /
                           static_cast<double>(lookups);
    const graphdb::SnapshotStats stats = store.snapshot_stats();
    counts->published = static_cast<double>(stats.published_views);
    counts->reclaimed = static_cast<double>(stats.reclaimed_views);
  }
  durability.detach();
  const std::uint64_t live_fp = graphdb::persist::fingerprint(store);

  // --- recovery: boot the round's directory again, several times ---------
  for (std::size_t r = 0; r < kRecoveriesPerRound; ++r) {
    failures_.attempt();
    graphdb::persist::Durability again(dir.string());
    graphdb::persist::RecoveryReport report;
    std::optional<graphdb::GraphStore> recovered;
    const std::int32_t op = rec.begin_op("recovery", next_op_++);
    try {
      rec.time("graphdb.persist.recover",
               [&] { recovered.emplace(again.recover(&report)); });
    } catch (const std::exception& e) {
      failures_.fail(std::string("recovery: ") + e.what());
    }
    rec.end_op(op);
    if (recovered && graphdb::persist::fingerprint(*recovered) != live_fp) {
      failures_.fail("recovered fingerprint differs from the live store");
    }
    if (counts != nullptr && r == 0) {
      counts->wal_replayed = static_cast<double>(report.wal_records_replayed);
    }
  }
  fs::remove_all(dir);
  return {start, end};
}

}  // namespace

WorkloadResult run_bloodhound_serving(const Options& options,
                                      Failures& failures) {
  WorkloadResult result;
  for (std::size_t t = 0; t < 1 + kReaders; ++t) {
    result.recorders.emplace_back(options.trace);
  }
  util::MetricsRegistry& registry = util::MetricsRegistry::instance();
  const std::uint64_t reroots_start =
      registry.counter("graphdb.snapshot.reroots").value();

  std::vector<Base> bases;
  for (std::size_t f = 0; f < kForests; ++f) {
    const std::int64_t t0 = now_ns();
    util::set_global_threads(kPoolWidth);
    bases.push_back(build_base(options,
                               fs::path(options.work_dir) /
                                   ("base-" + std::to_string(f)),
                               derive_seed(options.seed, f),
                               result.recorders[0], 1'000'000 + f));
    result.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  Server server(options, bases, failures, result.recorders);
  RoundCounts counts;
  std::vector<std::pair<std::int64_t, std::int64_t>> rounds;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::size_t round = 0; round < kForests || now_ns() < deadline;
       ++round) {
    rounds.push_back(server.round(round, round == 0 ? &counts : nullptr));
  }
  for (const Base& b : bases) fs::remove_all(b.dir);

  // Throughput counts reads and commits, so a read gain that costs commits
  // (or the reverse) shows.  Latencies are the commits', whose work is the
  // same in every round; read latency swings with lock contention and is
  // reported per kind below.
  for (const auto& [lo, hi] : rounds) {
    result.seconds += static_cast<double>(hi - lo) * 1e-9;
  }
  const double seconds = result.seconds;
  const std::vector<double> reads = op_latencies(
      result.recorders, {"request.lookup", "request.expand", "request.admins"},
      1e-6);
  const std::vector<double> commits =
      op_latencies(result.recorders, {"request.commit"}, 1e-6);
  result.latency_ms = commits;
  result.ops = reads.size() + commits.size();
  result.extra["reads_per_s"] = {static_cast<double>(reads.size()) / seconds,
                                 "1/s"};
  result.extra["lookup_us_p50"] = {
      quantile(op_latencies(result.recorders, {"request.lookup"}, 1e-3), 0.5),
      "us"};
  result.extra["expand_ms_p50"] = {
      quantile(op_latencies(result.recorders, {"request.expand"}, 1e-6), 0.5),
      "ms"};
  result.extra["read_ms_p99"] = {quantile(reads, 0.99), "ms"};
  result.extra["commits_per_s"] = {
      static_cast<double>(commits.size()) / seconds, "1/s"};
  result.extra["commit_ms_p50"] = {quantile(commits, 0.5), "ms"};
  result.extra["commit_ms_p99"] = {quantile(commits, 0.99), "ms"};
  result.extra["recover_ms"] = {
      quantile(op_latencies(result.recorders, {"recovery"}, 1e-6), 0.5), "ms"};

  for (const Base& b : bases) {
    result.counts["estate.nodes"] += b.nodes;
    result.counts["estate.rels"] += b.rels;
    result.counts["estate.snapshot_bytes"] += b.snapshot_bytes / kForests;
  }
  result.counts["graphdb.wal.records_per_commit"] = counts.wal_records_per_commit;
  result.counts["graphdb.wal.bytes_per_commit"] = counts.wal_bytes_per_commit;
  result.counts["graphdb.wal.replayed_records"] = counts.wal_replayed;
  result.counts["graphdb.snapshot.published"] = counts.published;
  result.counts["graphdb.snapshot.reclaimed"] = counts.reclaimed;
  result.counts["graphdb.snapshot.reroots"] = static_cast<double>(
      registry.counter("graphdb.snapshot.reroots").value() - reroots_start);
  result.counts["graphdb.plan_cache.hit_ratio"] = counts.plan_cache_hit_ratio;
  result.env["pool_width"] = std::to_string(util::global_threads());
  result.env["readers"] = std::to_string(kReaders);
  result.env["writers"] = "1";
  return result;
}

}  // namespace perfbench
