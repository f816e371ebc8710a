/// \file bench_serve.cpp
/// Flow-service bench: drives a live in-process m3d_serve server over its
/// Unix-domain socket and measures the three serving regimes against one
/// shared stage cache:
///   - cold    : first job of a spec (computes + publishes all 7 stages),
///   - warm    : repeat of the same spec (replays the full prefix),
///   - ECO     : a coalesced batch of 4 bump-pitch ECOs (3-stage prefix
///               replay + seeded ECO reroute each),
/// plus warm-replay throughput (jobs/s) under concurrent clients and the
/// shared cache's hit/miss/write/eviction census from the stats op.
///
/// Writes BENCH_serve.json (BENCH_serve_smoke.json with --smoke; the smoke
/// variant runs the tiny test tile and is gated against bench/baselines/ by
/// scripts/quickcheck.sh -- every scalar except wall clock and jobs/s is a
/// pure function of the deterministic flows, so it must match exactly).

#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace m3d {
namespace {

namespace fs = std::filesystem;
using namespace m3d::serve;

JobSpec benchSpec(bool smoke) {
  JobSpec spec;
  spec.flow = "macro3d";
  spec.tile = smoke ? "tiny" : "small";
  spec.maxFreqRounds = smoke ? 2 : 4;
  spec.optMaxPasses = smoke ? 6 : 0;
  spec.threads = 1;
  return spec;
}

int benchServeMain(bool smoke) {
  bench::BenchJson bj(smoke ? "serve_smoke" : "serve");
  bj.config("mode", smoke ? "smoke" : "full");

  const std::string dir =
      (fs::temp_directory_path() / (smoke ? "m3d_bench_serve_smoke" : "m3d_bench_serve"))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  ServerOptions sopt;
  sopt.socketPath = dir + "/serve.sock";
  sopt.cacheDir = dir + "/cache";
  sopt.executors = 4;
  sopt.jobThreads = 1;
  sopt.reportPath = dir + "/report.json";
  Server server(std::move(sopt));
  std::string err;
  if (!server.start(&err)) {
    std::cerr << "bench_serve: server start failed: " << err << "\n";
    return 1;
  }
  const std::string socket = server.options().socketPath;
  bj.config("tile", benchSpec(smoke).tile);
  bj.config("executors", "4");

  Client c;
  if (!c.connect(socket, &err)) {
    std::cerr << "bench_serve: connect failed: " << err << "\n";
    return 1;
  }

  // Cold: first sight of the spec, computes + publishes every stage.
  JobSpec spec = benchSpec(smoke);
  spec.label = "cold";
  JobResult cold;
  if (!c.runJob(spec, &cold, &err)) {
    std::cerr << "bench_serve: cold job failed: " << err << "\n";
    return 1;
  }
  bj.scalar("cold_wall_ms", cold.wallMs);
  bj.scalar("cold_prefix_stages", cold.cachePrefixStages);
  bj.addFlow("cold", cold.metrics);

  // Warm: identical spec replays the full 7-stage prefix from the cache.
  spec.label = "warm";
  JobResult warm;
  if (!c.runJob(spec, &warm, &err)) {
    std::cerr << "bench_serve: warm job failed: " << err << "\n";
    return 1;
  }
  bj.scalar("warm_wall_ms", warm.wallMs);
  bj.scalar("warm_prefix_stages", warm.cachePrefixStages);
  bj.addFlow("warm", warm.metrics);

  // Coalesced ECO batch: 4 bump-pitch perturbations of the base design,
  // submitted at once. The queue serializes them behind the shared baseKey;
  // each replays the place/pre_route_opt/cts prefix and ECO-reroutes from
  // the base flow job's signoff checkpoint.
  const double scales[4] = {1.25, 1.5, 1.75, 2.0};
  std::vector<std::uint64_t> ecoIds;
  for (const double s : scales) {
    JobSpec eco = benchSpec(smoke);
    eco.kind = JobKind::kEco;
    eco.f2fPitchScale = s;
    eco.label = "eco-x" + std::to_string(s).substr(0, 4);
    std::uint64_t id = 0;
    if (!c.submit(eco, &id, &err)) {
      std::cerr << "bench_serve: eco submit failed: " << err << "\n";
      return 1;
    }
    ecoIds.push_back(id);
  }
  double ecoWallSum = 0.0;
  int ecoPrefixMin = 7;
  int ecoCoalesced = 0;
  std::int64_t ecoRippedTotal = 0;
  std::int64_t ecoReusedTotal = 0;
  bool firstEco = true;
  for (const std::uint64_t id : ecoIds) {
    JobState state = JobState::kQueued;
    if (!c.waitJob(id, 0, &state, &err) || state != JobState::kDone) {
      std::cerr << "bench_serve: eco job " << id << " did not complete: " << err << "\n";
      return 1;
    }
    JobResult r;
    if (!c.result(id, &r, &err)) {
      std::cerr << "bench_serve: eco result failed: " << err << "\n";
      return 1;
    }
    ecoWallSum += r.wallMs;
    ecoPrefixMin = std::min(ecoPrefixMin, r.cachePrefixStages);
    ecoCoalesced += r.coalesced ? 1 : 0;
    if (r.ecoRipped >= 0) ecoRippedTotal += r.ecoRipped;
    if (r.ecoReused >= 0) ecoReusedTotal += r.ecoReused;
    if (firstEco) {
      bj.addFlow("eco", r.metrics);
      firstEco = false;
    }
  }
  bj.scalar("eco_mean_wall_ms", ecoWallSum / 4.0);
  bj.scalar("eco_prefix_stages_min", ecoPrefixMin);
  bj.scalar("eco_coalesced_jobs", ecoCoalesced);
  bj.scalar("eco_nets_ripped_total", static_cast<double>(ecoRippedTotal));
  bj.scalar("eco_nets_reused_total", static_cast<double>(ecoReusedTotal));

  // Warm-replay throughput: 4 concurrent clients draining 8/16 repeats of
  // the (now fully warm) base spec. They share a baseKey, so this measures
  // the serialized coalesced-replay path end to end (socket + queue +
  // 7-stage restore), not parallel compute.
  const int throughputJobs = smoke ? 8 : 16;
  std::vector<std::uint64_t> hashes(static_cast<std::size_t>(throughputJobs), 0);
  std::vector<int> oks(static_cast<std::size_t>(throughputJobs), 0);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> clients;
    for (int ci = 0; ci < 4; ++ci) {
      clients.emplace_back([&, ci] {
        Client cc;
        std::string cerrs;
        if (!cc.connect(socket, &cerrs)) return;
        for (int j = ci; j < throughputJobs; j += 4) {
          JobSpec s = benchSpec(smoke);
          s.label = "tp-" + std::to_string(j);
          JobResult r;
          if (cc.runJob(s, &r, &cerrs)) {
            oks[static_cast<std::size_t>(j)] = 1;
            hashes[static_cast<std::size_t>(j)] = r.artifactHash;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double tpWallS = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  int identical = 1;
  for (int j = 0; j < throughputJobs; ++j) {
    if (oks[static_cast<std::size_t>(j)] != 1 ||
        hashes[static_cast<std::size_t>(j)] != cold.artifactHash) {
      identical = 0;
    }
  }
  bj.scalar("throughput_jobs", throughputJobs);
  bj.scalar("throughput_wall_ms", tpWallS * 1000.0);
  bj.scalar("jobs_per_s", tpWallS > 0.0 ? throughputJobs / tpWallS : 0.0);
  bj.scalar("identical_artifacts", identical);

  // Shared-cache census straight from the stats op.
  obs::JsonValue stats;
  if (!c.request(encodeOp("stats"), &stats, &err)) {
    std::cerr << "bench_serve: stats failed: " << err << "\n";
    return 1;
  }
  if (const obs::JsonValue* cache = stats.find("cache")) {
    bj.scalar("cache_hits", cache->numberOr("hits", -1));
    bj.scalar("cache_misses", cache->numberOr("misses", -1));
    bj.scalar("cache_writes", cache->numberOr("writes", -1));
    bj.scalar("cache_evictions", cache->numberOr("evictions", -1));
  }
  if (const obs::JsonValue* jobs = stats.find("jobs")) {
    bj.scalar("jobs_done", jobs->numberOr("done", -1));
    bj.scalar("jobs_failed", jobs->numberOr("failed", -1));
    bj.scalar("jobs_coalesced", jobs->numberOr("coalesced", -1));
  }

  if (!c.shutdownServer(&err)) {
    std::cerr << "bench_serve: shutdown failed: " << err << "\n";
    return 1;
  }
  c.close();
  const int failed = server.wait();

  std::cout << "bench_serve (" << (smoke ? "smoke" : "full") << ")\n"
            << "  cold        " << Table::num(cold.wallMs, 1) << " ms (prefix "
            << cold.cachePrefixStages << ")\n"
            << "  warm        " << Table::num(warm.wallMs, 1) << " ms (prefix "
            << warm.cachePrefixStages << ")\n"
            << "  eco (mean)  " << Table::num(ecoWallSum / 4.0, 1) << " ms (prefix >= "
            << ecoPrefixMin << ", " << ecoCoalesced << "/4 coalesced)\n"
            << "  throughput  " << Table::num(tpWallS > 0.0 ? throughputJobs / tpWallS : 0.0, 1)
            << " warm jobs/s (" << throughputJobs << " jobs, identical="
            << identical << ")\n";

  bj.write();
  fs::remove_all(dir);

  if (failed > 0) {
    std::cerr << "bench_serve: " << failed << " job(s) failed\n";
    return 1;
  }
  if (identical != 1) {
    std::cerr << "bench_serve: artifact hashes diverged across serving modes\n";
    return 1;
  }
  if (warm.cachePrefixStages != 7 || ecoPrefixMin < 3 || ecoCoalesced != 4) {
    std::cerr << "bench_serve: cache-reuse contract violated (warm prefix "
              << warm.cachePrefixStages << ", eco prefix min " << ecoPrefixMin
              << ", coalesced " << ecoCoalesced << "/4)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace m3d

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return m3d::benchServeMain(smoke);
}
