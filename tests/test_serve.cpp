#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/macro3d.hpp"
#include "db/stage_cache.hpp"
#include "flows/flows.hpp"
#include "io/fsutil.hpp"
#include "netlist/openpiton.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/job_queue.hpp"
#include "serve/job_runner.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

/// Flow-service tests.
///  - Serve* suites (ctest label "serve"): protocol round trips, queue
///    scheduling/coalescing semantics, spec -> options mapping. No flows run.
///  - ServeSocket (label "serve"): socket-path ownership between daemons,
///    the request-line cap and connection-thread cleanup.
///  - ServeFlow* suites (labels "serve;slow"): end-to-end -- concurrent
///    same-key stage-cache races, torn-entry self-healing, LRU eviction,
///    and a full in-process daemon exercised by concurrent clients
///    (including the coalesced-ECO-batch acceptance scenario).

namespace m3d {
namespace {

namespace fs = std::filesystem;
using namespace m3d::serve;

std::string tempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

JobSpec tinySpec() {
  JobSpec spec;
  spec.flow = "macro3d";
  spec.tile = "tiny";
  spec.maxFreqRounds = 2;
  spec.optMaxPasses = 6;
  spec.threads = 1;
  return spec;
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ServeProtocol, SpecJsonRoundTrip) {
  JobSpec spec = tinySpec();
  spec.kind = JobKind::kEco;
  spec.f2fPitchScale = 2.5;
  spec.priority = 7;
  spec.resume = false;
  spec.signoff = false;
  spec.macroDieMetals = 4;
  spec.placeEngine = "analytic";
  spec.label = "pitch-study \"quoted\"";

  const std::string line = encodeSubmit(spec);
  std::string err;
  const auto doc = obs::parseJson(line, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const obs::JsonValue* job = doc->find("job");
  ASSERT_NE(job, nullptr);

  JobSpec back;
  ASSERT_TRUE(JobSpec::fromJson(*job, &back, &err)) << err;
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.flow, spec.flow);
  EXPECT_EQ(back.tile, spec.tile);
  EXPECT_EQ(back.shrink, spec.shrink);
  EXPECT_EQ(back.threads, spec.threads);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_EQ(back.maxFreqRounds, spec.maxFreqRounds);
  EXPECT_EQ(back.optMaxPasses, spec.optMaxPasses);
  EXPECT_EQ(back.signoff, spec.signoff);
  EXPECT_EQ(back.resume, spec.resume);
  EXPECT_EQ(back.macroDieMetals, spec.macroDieMetals);
  EXPECT_EQ(back.f2fPitchScale, spec.f2fPitchScale);
  EXPECT_EQ(back.placeEngine, spec.placeEngine);
  EXPECT_EQ(back.label, spec.label);
}

TEST(ServeProtocol, SpecValidationRejectsBadFields) {
  JobSpec spec = tinySpec();
  EXPECT_EQ(spec.validate(), "");

  JobSpec bad = spec;
  bad.flow = "4d";
  EXPECT_NE(bad.validate(), "");
  bad = spec;
  bad.tile = "huge";
  EXPECT_NE(bad.validate(), "");
  bad = spec;
  bad.shrink = 0;
  EXPECT_NE(bad.validate(), "");
  bad = spec;
  bad.f2fPitchScale = 0.0;
  EXPECT_NE(bad.validate(), "");
  bad = spec;
  bad.macroDieMetals = 5;
  EXPECT_NE(bad.validate(), "");
  bad = spec;
  bad.placeEngine = "quadratic";
  EXPECT_NE(bad.validate(), "");
  // ECO against a flow with no F2F interface is meaningless.
  bad = spec;
  bad.kind = JobKind::kEco;
  bad.flow = "2d";
  EXPECT_NE(bad.validate(), "");
}

TEST(ServeProtocol, HashHexRoundTrip) {
  for (const std::uint64_t h :
       {0ull, 1ull, 0xDEADBEEFCAFEBABEull, ~0ull, 0x00000000FFFFFFFFull}) {
    std::uint64_t back = 0;
    ASSERT_TRUE(hexToHash(hashToHex(h), &back));
    EXPECT_EQ(back, h);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(hexToHash("", &out));
  EXPECT_FALSE(hexToHash("xyz", &out));
  EXPECT_FALSE(hexToHash("00112233445566778", &out));  // 17 digits
}

TEST(ServeProtocol, BaseKeyIgnoresEcoAndSchedulingKnobs) {
  const JobSpec base = tinySpec();
  // Knobs that must NOT change the base design identity (they are exactly
  // what a coalesced batch varies).
  JobSpec same = base;
  same.kind = JobKind::kEco;
  same.f2fPitchScale = 3.0;
  same.threads = 8;
  same.priority = -5;
  same.resume = false;
  same.label = "other";
  EXPECT_EQ(same.baseKey(), base.baseKey());

  // Knobs that DO shape the place/opt/cts prefix must re-key.
  JobSpec diff = base;
  diff.tile = "small";
  EXPECT_NE(diff.baseKey(), base.baseKey());
  diff = base;
  diff.flow = "2d";
  EXPECT_NE(diff.baseKey(), base.baseKey());
  diff = base;
  diff.shrink = 2;
  EXPECT_NE(diff.baseKey(), base.baseKey());
  diff = base;
  diff.maxFreqRounds = 3;
  EXPECT_NE(diff.baseKey(), base.baseKey());
  // The place engine shapes the place-stage prefix, so it must re-key.
  diff = base;
  diff.placeEngine = "analytic";
  EXPECT_NE(diff.baseKey(), base.baseKey());
}

TEST(ServeProtocol, ResultJsonRoundTrip) {
  JobResult r;
  r.metrics.flow = "Macro-3D";
  r.metrics.tileName = "tiny";
  r.metrics.fclkMhz = 1050.5;
  r.metrics.f2fBumps = 913;
  r.metrics.verifyViolations = 0;
  r.cachePrefixStages = 3;
  r.ecoRipped = 807;
  r.ecoReused = 2132;
  r.coalesced = true;
  r.artifactHash = 0x15A874F7E641B97Full;
  r.artifactSource = "checkpoint";
  r.wallMs = 183.5;
  r.finalCheckpoint = "/tmp/cache/stage6_signoff_00.m3ddb";

  std::ostringstream os;
  obs::JsonWriter w(os, /*pretty=*/false);
  r.writeJson(w);
  std::string err;
  const auto doc = obs::parseJson(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  JobResult back;
  ASSERT_TRUE(JobResult::fromJson(*doc, &back, &err)) << err;
  EXPECT_EQ(back.metrics.flow, r.metrics.flow);
  EXPECT_EQ(back.metrics.fclkMhz, r.metrics.fclkMhz);
  EXPECT_EQ(back.metrics.f2fBumps, r.metrics.f2fBumps);
  EXPECT_EQ(back.cachePrefixStages, r.cachePrefixStages);
  EXPECT_EQ(back.ecoRipped, r.ecoRipped);
  EXPECT_EQ(back.ecoReused, r.ecoReused);
  EXPECT_EQ(back.coalesced, r.coalesced);
  // The 64-bit hash survives exactly (it crosses the wire as hex, not as a
  // double, which would round past 2^53).
  EXPECT_EQ(back.artifactHash, r.artifactHash);
  EXPECT_EQ(back.artifactSource, r.artifactSource);
  EXPECT_EQ(back.finalCheckpoint, r.finalCheckpoint);
}

// ---------------------------------------------------------------------------
// Queue scheduling

TEST(ServeQueue, PriorityThenFifoOrder) {
  JobQueue q;
  JobSpec a = tinySpec();
  a.label = "a";
  JobSpec b = tinySpec();
  b.shrink = 2;  // distinct baseKey, so coalescing does not interfere
  b.priority = 5;
  b.label = "b";
  JobSpec c = tinySpec();
  c.shrink = 3;
  c.priority = 5;
  c.label = "c";
  const std::uint64_t ia = q.submit(a);
  const std::uint64_t ib = q.submit(b);
  const std::uint64_t ic = q.submit(c);

  // Highest priority first; FIFO between the two priority-5 jobs.
  auto j1 = q.dequeue();
  ASSERT_NE(j1, nullptr);
  EXPECT_EQ(j1->id, ib);
  auto j2 = q.dequeue();
  ASSERT_NE(j2, nullptr);
  EXPECT_EQ(j2->id, ic);
  auto j3 = q.dequeue();
  ASSERT_NE(j3, nullptr);
  EXPECT_EQ(j3->id, ia);
}

TEST(ServeQueue, CancelOnlyQueuedJobs) {
  JobQueue q;
  const std::uint64_t id = q.submit(tinySpec());
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // already terminal
  EXPECT_FALSE(q.cancel(999));

  const std::uint64_t id2 = q.submit(tinySpec());
  auto job = q.dequeue();
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->id, id2);
  EXPECT_FALSE(q.cancel(id2));  // running jobs do not cancel
  q.complete(id2, true, JobResult{}, "");
  EXPECT_EQ(q.find(id2)->state, JobState::kDone);
}

// find() and waitJob() hand out snapshots: an executor updates the live job
// under the queue lock, so a status or result reader must not see it change
// under its feet (reading the live job raced with dequeue and complete).
TEST(ServeQueue, FindAndWaitReturnSnapshots) {
  JobQueue q;
  const std::uint64_t id = q.submit(tinySpec());
  const std::shared_ptr<const Job> queued = q.find(id);
  ASSERT_NE(queued, nullptr);
  ASSERT_NE(q.dequeue(), nullptr);
  const std::shared_ptr<const Job> running = q.waitJob(id, 1);
  q.complete(id, true, JobResult{}, "");
  EXPECT_EQ(queued->state, JobState::kQueued);
  EXPECT_EQ(running->state, JobState::kRunning);
  EXPECT_EQ(q.find(id)->state, JobState::kDone);
}

TEST(ServeQueue, CloseCancelsQueuedAndUnblocksDequeue) {
  // A worker blocked in dequeue() on an empty queue is released by close().
  {
    JobQueue q;
    std::atomic<bool> gotNull{false};
    std::thread worker([&] { gotNull.store(q.dequeue() == nullptr); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    q.close();
    worker.join();
    EXPECT_TRUE(gotNull.load());
  }
  // close() cancels jobs still queued while leaving running ones alone. Two
  // same-baseKey jobs pin the second in the queue (its batch is busy), so
  // there is no race with a hungry worker here.
  JobQueue q;
  const std::uint64_t id1 = q.submit(tinySpec());
  const std::uint64_t id2 = q.submit(tinySpec());
  auto running = q.dequeue();
  ASSERT_NE(running, nullptr);
  ASSERT_EQ(running->id, id1);
  q.close();
  EXPECT_EQ(q.find(id1)->state, JobState::kRunning);
  EXPECT_EQ(q.find(id2)->state, JobState::kCancelled);
  EXPECT_EQ(q.dequeue(), nullptr);
  // The drained in-flight job still completes normally after close().
  q.complete(id1, true, JobResult{}, "");
  EXPECT_EQ(q.find(id1)->state, JobState::kDone);
  // Submitting against a closed queue yields an instantly-cancelled job.
  const std::uint64_t late = q.submit(tinySpec());
  EXPECT_EQ(q.find(late)->state, JobState::kCancelled);
}

// A long-lived daemon must not keep every finished job forever: past the
// cap the oldest-finished job is forgotten (its id then answers like an
// unknown one), while queued and running jobs are never forgotten.
TEST(ServeQueue, FinishedJobRetentionIsBounded) {
  JobQueue q;
  JobSpec pinned = tinySpec();
  pinned.shrink = 2;  // own batch, so it runs beside the loop's jobs
  pinned.priority = 9;
  const std::uint64_t running = q.submit(pinned);
  ASSERT_EQ(q.dequeue()->id, running);
  JobSpec waiting = tinySpec();
  waiting.shrink = 3;
  waiting.priority = -1;  // every loop job outranks it: stays queued
  const std::uint64_t queued = q.submit(waiting);

  std::vector<std::uint64_t> done;
  for (std::size_t k = 0; k < JobQueue::kMaxFinishedJobs + 1; ++k) {
    const std::uint64_t id = q.submit(tinySpec());
    const auto job = q.dequeue();
    ASSERT_NE(job, nullptr);
    ASSERT_EQ(job->id, id);
    q.complete(id, true, JobResult{}, "");
    done.push_back(id);
  }
  EXPECT_EQ(q.find(done.front()), nullptr);  // the oldest-finished is gone
  EXPECT_EQ(q.waitJob(done.front(), 1), nullptr);
  ASSERT_NE(q.find(done[1]), nullptr);
  ASSERT_NE(q.find(done.back()), nullptr);
  EXPECT_EQ(q.find(done.back())->state, JobState::kDone);
  ASSERT_NE(q.find(running), nullptr);
  EXPECT_EQ(q.find(running)->state, JobState::kRunning);
  ASSERT_NE(q.find(queued), nullptr);
  EXPECT_EQ(q.find(queued)->state, JobState::kQueued);
  EXPECT_EQ(q.stats().done, static_cast<std::int64_t>(done.size()));

  // Once the running job finishes it is the newest; the next oldest goes.
  q.complete(running, true, JobResult{}, "");
  EXPECT_EQ(q.find(done[1]), nullptr);
  EXPECT_NE(q.find(running), nullptr);
  EXPECT_NE(q.find(queued), nullptr);
}

TEST(ServeQueue, SameBaseKeyJobsSerializeAndCoalesce) {
  JobQueue q;
  JobSpec flow = tinySpec();
  JobSpec eco = tinySpec();
  eco.kind = JobKind::kEco;
  eco.f2fPitchScale = 2.0;
  ASSERT_EQ(flow.baseKey(), eco.baseKey());
  const std::uint64_t idFlow = q.submit(flow);
  const std::uint64_t idEco = q.submit(eco);

  auto first = q.dequeue();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, idFlow);
  EXPECT_FALSE(first->coalesced);

  // The sibling shares the batch: it must not dispatch while the first
  // member runs, even with a hungry second worker.
  std::atomic<bool> dispatched{false};
  std::thread worker([&] {
    auto second = q.dequeue();
    dispatched.store(true);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->id, idEco);
    EXPECT_TRUE(second->coalesced);
    // The ECO inherits the completed flow job's checkpoint as its seed.
    EXPECT_EQ(second->ecoSeedPath, "/cache/stage6_signoff_ab.m3ddb");
    q.complete(second->id, true, JobResult{}, "");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(dispatched.load());

  JobResult done;
  done.finalCheckpoint = "/cache/stage6_signoff_ab.m3ddb";
  q.complete(idFlow, true, done, "");
  worker.join();

  const QueueStats s = q.stats();
  EXPECT_EQ(s.done, 2);
  EXPECT_EQ(s.coalesced, 1);
}

TEST(ServeQueue, EcoSeedComesOnlyFromFlowJobs) {
  JobQueue q;
  JobSpec eco1 = tinySpec();
  eco1.kind = JobKind::kEco;
  eco1.f2fPitchScale = 1.5;
  JobSpec eco2 = eco1;
  eco2.f2fPitchScale = 2.0;
  q.submit(eco1);
  const std::uint64_t id2 = q.submit(eco2);

  auto first = q.dequeue();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->ecoSeedPath, "");  // no flow member completed yet
  JobResult r;
  r.finalCheckpoint = "/cache/stage6_signoff_eco.m3ddb";
  q.complete(first->id, true, r, "");

  // An ECO sibling's checkpoint must NOT become the seed: seeds only come
  // from kFlow members, so results never depend on sibling finish order.
  auto second = q.dequeue();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->id, id2);
  EXPECT_TRUE(second->coalesced);  // prefix is warm all the same
  EXPECT_EQ(second->ecoSeedPath, "");
  q.complete(second->id, true, r, "");
}

TEST(ServeQueue, DistinctBatchesDispatchConcurrently) {
  JobQueue q;
  JobSpec a = tinySpec();
  JobSpec b = tinySpec();
  b.shrink = 2;
  q.submit(a);
  q.submit(b);
  auto j1 = q.dequeue();
  auto j2 = q.dequeue();  // must not block: different baseKey
  ASSERT_NE(j1, nullptr);
  ASSERT_NE(j2, nullptr);
  EXPECT_NE(j1->baseKey, j2->baseKey);
  q.complete(j1->id, true, JobResult{}, "");
  q.complete(j2->id, true, JobResult{}, "");
}

TEST(ServeQueue, WaitJobTimesOutAndSeesTerminalStates) {
  JobQueue q;
  const std::uint64_t id = q.submit(tinySpec());
  auto snap = q.waitJob(id, 30);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->state, JobState::kQueued);  // timed out, still queued
  EXPECT_EQ(q.waitJob(12345, 10), nullptr);

  auto job = q.dequeue();
  std::thread finisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    q.complete(job->id, false, JobResult{}, "boom");
  });
  auto done = q.waitJob(id, 0);
  finisher.join();
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->state, JobState::kFailed);
  EXPECT_EQ(done->error, "boom");
}

// ---------------------------------------------------------------------------
// Spec -> tile/options mapping

TEST(ServeRunner, TileConfigShrinkFloorsAtOneAndRenames) {
  const TileConfig base = tileConfigFor("tiny", 1);
  EXPECT_EQ(base.name, "tiny");
  const TileConfig half = tileConfigFor("tiny", 2);
  EXPECT_EQ(half.name, "tiny-s2");
  EXPECT_EQ(half.coreGates, base.coreGates / 2);
  const TileConfig floor = tileConfigFor("tiny", 1000000);
  EXPECT_GE(floor.coreGates, 1);
  EXPECT_GE(floor.nocRegs, 1);
  EXPECT_EQ(tileConfigFor("small", 1).name, makeSmallCacheTileConfig().name);
  EXPECT_EQ(tileConfigFor("large", 1).name, makeLargeCacheTileConfig().name);
}

TEST(ServeRunner, FlowOptionsMapping) {
  JobSpec spec = tinySpec();
  spec.kind = JobKind::kEco;
  spec.f2fPitchScale = 2.0;
  spec.threads = 0;
  RunnerOptions ropt;
  ropt.cacheDir = "/some/cache";
  ropt.cacheMaxBytes = 123456;
  ropt.defaultThreads = 3;
  const FlowOptions opt = flowOptionsFor(spec, ropt, "/seed/route.m3ddb");
  EXPECT_EQ(opt.checkpointDir, "/some/cache");
  EXPECT_EQ(opt.cacheMaxBytes, 123456);
  EXPECT_EQ(opt.numThreads, 3);  // spec leaves threads at auto -> server default
  EXPECT_EQ(opt.maxFreqRounds, 2);
  EXPECT_EQ(opt.optBase.maxPasses, 6);
  EXPECT_EQ(opt.ecoRouteFrom, "/seed/route.m3ddb");
  EXPECT_EQ(opt.f2fVia.pitch, FlowOptions{}.f2fVia.pitch * 2);
  EXPECT_EQ(opt.placer.engine, PlaceEngine::kB2B);  // spec default is "b2b"

  // A plain flow job never consumes the ECO seed.
  spec.kind = JobKind::kFlow;
  EXPECT_EQ(flowOptionsFor(spec, ropt, "/seed/route.m3ddb").ecoRouteFrom, "");

  // The engine name maps onto PlacerOptions::engine.
  spec.placeEngine = "analytic";
  EXPECT_EQ(flowOptionsFor(spec, ropt, "").placer.engine, PlaceEngine::kAnalytic);
}

// ---------------------------------------------------------------------------
// End-to-end: shared-cache concurrency (label serve;slow)

FlowOptions tinyFlowOptions(const std::string& cacheDir, int threads) {
  FlowOptions opt;
  opt.maxFreqRounds = 2;
  opt.optBase.maxPasses = 6;
  opt.numThreads = threads;
  opt.checkpointDir = cacheDir;
  opt.report.logSummary = false;
  return opt;
}

TileConfig tinyTile() { return tileConfigFor("tiny", 1); }

std::vector<std::uint8_t> fileBytes(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(io::readFileBytes(path, bytes)) << path;
  return bytes;
}

int cacheFileCount(const std::string& dir) {
  int n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".m3ddb") ++n;
  }
  return n;
}

TEST(ServeFlowCache, ConcurrentSameKeyRaceOneWinnerBitIdentical) {
  // Serial reference run (its checkpoint bytes are the ground truth).
  const std::string refDir = tempPath("m3d_serve_race_ref");
  fs::remove_all(refDir);
  const FlowOutput ref = runFlowMacro3D(tinyTile(), tinyFlowOptions(refDir, 1));
  ASSERT_FALSE(ref.finalCheckpointPath.empty());
  const std::vector<std::uint8_t> refFinal = fileBytes(ref.finalCheckpointPath);

  // Two jobs racing on the same stage keys, at several thread counts: the
  // cache must end with exactly one winner per stage and byte-identical
  // artifacts (checkpoints are content-addressed and flows deterministic).
  for (const int threads : {1, 2, 8}) {
    const std::string dir =
        tempPath("m3d_serve_race_t" + std::to_string(threads));
    fs::remove_all(dir);
    FlowOutput a;
    FlowOutput b;
    std::thread ta([&] { a = runFlowMacro3D(tinyTile(), tinyFlowOptions(dir, threads)); });
    std::thread tb([&] { b = runFlowMacro3D(tinyTile(), tinyFlowOptions(dir, threads)); });
    ta.join();
    tb.join();

    EXPECT_EQ(cacheFileCount(dir), 7) << "threads=" << threads;
    EXPECT_EQ(a.metrics.fclkMhz, ref.metrics.fclkMhz) << "threads=" << threads;
    EXPECT_EQ(b.metrics.fclkMhz, ref.metrics.fclkMhz) << "threads=" << threads;
    EXPECT_EQ(a.metrics.totalWirelengthM, ref.metrics.totalWirelengthM);
    EXPECT_EQ(b.metrics.totalWirelengthM, ref.metrics.totalWirelengthM);
    EXPECT_EQ(a.trace, ref.trace);
    EXPECT_EQ(b.trace, ref.trace);
    ASSERT_EQ(a.finalCheckpointPath, b.finalCheckpointPath);
    EXPECT_EQ(fileBytes(a.finalCheckpointPath), refFinal) << "threads=" << threads;

    // The cache's byte count agrees with the directory after the dust settles.
    db::StageCache cache(dir, /*resume=*/true);
    std::int64_t diskBytes = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".m3ddb") {
        diskBytes += static_cast<std::int64_t>(fs::file_size(e.path()));
      }
    }
    EXPECT_EQ(cache.diskBytes(), diskBytes) << "threads=" << threads;
    fs::remove_all(dir);
  }
  fs::remove_all(refDir);
}

TEST(ServeFlowCache, TornEntryIsDetectedRemovedAndRepublished) {
  const std::string dir = tempPath("m3d_serve_torn");
  fs::remove_all(dir);
  const FlowOptions opt = tinyFlowOptions(dir, 1);
  const FlowOutput cold = runFlowMacro3D(tinyTile(), opt);
  ASSERT_FALSE(cold.finalCheckpointPath.empty());
  const std::vector<std::uint8_t> good = fileBytes(cold.finalCheckpointPath);

  // Fault injection: tear the signoff checkpoint in half, as if a producer
  // had died mid-write before the atomic-rename discipline existed.
  {
    std::ofstream f(cold.finalCheckpointPath, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(good.data()),
            static_cast<std::streamsize>(good.size() / 2));
  }

  const double failures0 = static_cast<double>(
      obs::counter("db.stage_cache_restore_failures").value());
  const FlowOutput warm = runFlowMacro3D(tinyTile(), opt);
  const double failures1 = static_cast<double>(
      obs::counter("db.stage_cache_restore_failures").value());

  // The torn entry fails closed, the run recomputes and matches the cold
  // run, and the corrupt bytes are replaced by a good re-publish.
  EXPECT_EQ(failures1 - failures0, 1.0);
  EXPECT_EQ(warm.metrics.fclkMhz, cold.metrics.fclkMhz);
  EXPECT_EQ(warm.trace, cold.trace);
  EXPECT_EQ(fileBytes(cold.finalCheckpointPath), good);
  fs::remove_all(dir);
}

TEST(ServeFlowCache, LruEvictionKeepsDirectoryUnderBudget) {
  // Size the budget from an unbounded run: big enough for the two largest
  // entries, too small for all seven.
  const std::string probeDir = tempPath("m3d_serve_lru_probe");
  fs::remove_all(probeDir);
  runFlowMacro3D(tinyTile(), tinyFlowOptions(probeDir, 1));
  std::vector<std::int64_t> sizes;
  for (const auto& e : fs::directory_iterator(probeDir)) {
    if (e.path().extension() == ".m3ddb") {
      sizes.push_back(static_cast<std::int64_t>(fs::file_size(e.path())));
    }
  }
  ASSERT_EQ(sizes.size(), 7u);
  std::sort(sizes.rbegin(), sizes.rend());
  const std::int64_t budget = sizes[0] + sizes[1] + 1;
  fs::remove_all(probeDir);

  const std::string dir = tempPath("m3d_serve_lru");
  fs::remove_all(dir);
  FlowOptions opt = tinyFlowOptions(dir, 1);
  opt.cacheMaxBytes = budget;
  const double evict0 =
      static_cast<double>(obs::counter("db.stage_cache_evictions").value());
  const FlowOutput out = runFlowMacro3D(tinyTile(), opt);
  const double evict1 =
      static_cast<double>(obs::counter("db.stage_cache_evictions").value());

  EXPECT_GT(evict1 - evict0, 0.0);
  db::StageCacheOptions copt;
  copt.maxBytes = budget;
  db::StageCache cache(dir, true, copt);
  EXPECT_LE(cache.diskBytes(), budget);
  EXPECT_LT(cacheFileCount(dir), 7);
  // Eviction is bookkeeping only: the run's results are untouched.
  EXPECT_GT(out.metrics.fclkMhz, 0.0);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// End-to-end: the daemon under concurrent clients (label serve;slow)

struct TestServer {
  explicit TestServer(ServerOptions opt) : server(std::move(opt)) {}
  Server server;
  /// start() + a deferred wait()-runner: tests trigger shutdown via a
  /// client op or requestShutdown(), then join().
  bool start() {
    std::string err;
    const bool ok = server.start(&err);
    EXPECT_TRUE(ok) << err;
    return ok;
  }
  void shutdownAndJoin() {
    server.requestShutdown();
    server.wait();
  }
};

ServerOptions serverOptions(const std::string& tag, int executors) {
  ServerOptions opt;
  const std::string dir = tempPath(tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  opt.socketPath = dir + "/serve.sock";
  opt.cacheDir = dir + "/cache";
  opt.executors = executors;
  opt.jobThreads = 1;
  opt.reportPath = dir + "/report.json";
  return opt;
}

// A second daemon on a live daemon's path must refuse to start instead of
// unlinking the socket out from under it; a stale socket file (its owner
// gone without cleanup) is reclaimed.
TEST(ServeSocket, RefusesLiveSocketAndReclaimsStaleOne) {
  const ServerOptions opt = serverOptions("m3d_serve_socket", /*executors=*/1);
  std::string err;
  {
    TestServer first(opt);
    ASSERT_TRUE(first.start());
    Server second(opt);
    EXPECT_FALSE(second.start(&err));
    EXPECT_NE(err.find("in use by a running server"), std::string::npos) << err;
    Client c;
    ASSERT_TRUE(c.connect(opt.socketPath, &err)) << err;
    EXPECT_TRUE(c.ping(&err)) << err;
    first.shutdownAndJoin();
  }
  {
    // Bind without listening, then close: the file stays, nothing answers.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", opt.socketPath.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ::close(fd);
    ASSERT_TRUE(fs::exists(opt.socketPath));
    TestServer again(opt);
    ASSERT_TRUE(again.start());
    Client c;
    ASSERT_TRUE(c.connect(opt.socketPath, &err)) << err;
    EXPECT_TRUE(c.ping(&err)) << err;
    again.shutdownAndJoin();
  }
  fs::remove_all(tempPath("m3d_serve_socket"));
}

/// Raw Unix-domain stream connection to \p path (-1 on failure).
int rawConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// VmSize of this process [KiB] from /proc/self/status (-1 if unreadable).
long vmSizeKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  return -1;
}

// A peer that never sends '\n' must not grow the daemon without bound: past
// 1 MiB the line is refused with an error reply and the connection closed,
// and the daemon keeps serving new connections.
TEST(ServeSocket, OverlongRequestLineIsRefusedAndClosed) {
  const ServerOptions opt = serverOptions("m3d_serve_long_line", /*executors=*/1);
  TestServer ts(opt);
  ASSERT_TRUE(ts.start());
  const int fd = rawConnect(opt.socketPath);
  ASSERT_GE(fd, 0);
  // 2 MiB without a newline. Sends fail (EPIPE) once the server has given
  // up on the line; that is expected and ends the write.
  const std::string chunk(64 * 1024, 'x');
  for (int i = 0; i < 32; ++i) {
    if (::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) < 0) break;
  }
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;  // EOF, or ECONNRESET after the reply
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(reply, "{\"ok\":false,\"error\":\"request line exceeds 1048576 bytes\"}\n");

  Client c;
  std::string err;
  ASSERT_TRUE(c.connect(opt.socketPath, &err)) << err;
  EXPECT_TRUE(c.ping(&err)) << err;
  c.close();
  ts.shutdownAndJoin();
  fs::remove_all(tempPath("m3d_serve_long_line"));
}

// A connection's handler thread is joined once it returns: serving many
// short connections must not keep one thread stack (8 MiB of address space
// at the default size) per connection ever accepted.
TEST(ServeSocket, FinishedConnectionThreadsAreJoined) {
  const ServerOptions opt = serverOptions("m3d_serve_reap", /*executors=*/1);
  TestServer ts(opt);
  ASSERT_TRUE(ts.start());
  const long before = vmSizeKb();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 256; ++i) {
    Client c;
    std::string err;
    ASSERT_TRUE(c.connect(opt.socketPath, &err)) << err;
    ASSERT_TRUE(c.ping(&err)) << err;
    c.close();
  }
  const long grownMib = (vmSizeKb() - before) / 1024;
  EXPECT_LT(grownMib, 512) << "VmSize grew by " << grownMib << " MiB over 256 connections";
  ts.shutdownAndJoin();
  fs::remove_all(tempPath("m3d_serve_reap"));
}

TEST(ServeFlowServer, FourConcurrentClientsMatchSerialBitForBit) {
  // Serial reference: the same two specs, run back to back against a fresh
  // cache (cold, then warm) -- the artifact hashes are the ground truth.
  JobSpec specA = tinySpec();
  specA.label = "A";
  JobSpec specB = tinySpec();
  specB.shrink = 2;
  specB.label = "B";

  std::vector<std::uint64_t> serialHash(2, 0);
  {
    const std::string refDir = tempPath("m3d_serve_e2e_ref");
    fs::remove_all(refDir);
    RunnerOptions ropt;
    ropt.cacheDir = refDir + "/cache";
    fs::create_directories(ropt.cacheDir);
    for (int s = 0; s < 2; ++s) {
      Job job;
      job.spec = s == 0 ? specA : specB;
      JobResult r;
      std::string err;
      ASSERT_TRUE(serve::runJob(job, ropt, &r, &err)) << err;
      serialHash[static_cast<std::size_t>(s)] = r.artifactHash;
      EXPECT_EQ(r.artifactSource, "checkpoint");
    }
    fs::remove_all(refDir);
  }

  // Four clients hammer one server (two per spec) over one shared cache.
  TestServer ts(serverOptions("m3d_serve_e2e", /*executors=*/4));
  ASSERT_TRUE(ts.start());
  std::vector<JobResult> results(4);
  std::vector<int> oks(4, 0);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < 4; ++i) {
      clients.emplace_back([&, i] {
        Client c;
        std::string err;
        if (!c.connect(ts.server.options().socketPath, &err)) return;
        JobSpec spec = i % 2 == 0 ? specA : specB;
        spec.label += "-client" + std::to_string(i);
        oks[static_cast<std::size_t>(i)] =
            c.runJob(spec, &results[static_cast<std::size_t>(i)], &err) ? 1 : 0;
      });
    }
    for (std::thread& t : clients) t.join();
  }
  ts.shutdownAndJoin();

  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(oks[static_cast<std::size_t>(i)], 1) << "client " << i;
    const std::uint64_t expect = serialHash[static_cast<std::size_t>(i % 2)];
    EXPECT_EQ(results[static_cast<std::size_t>(i)].artifactHash, expect)
        << "client " << i << ": concurrent artifact differs from serial";
    EXPECT_EQ(results[static_cast<std::size_t>(i)].artifactSource, "checkpoint");
  }
  fs::remove_all(tempPath("m3d_serve_e2e"));
}

TEST(ServeFlowServer, CoalescedEcoBatchSharesPlaceOptCtsPrefix) {
  TestServer ts(serverOptions("m3d_serve_eco_batch", /*executors=*/4));
  ASSERT_TRUE(ts.start());
  const std::string socket = ts.server.options().socketPath;

  Client c;
  std::string err;
  ASSERT_TRUE(c.connect(socket, &err)) << err;

  // Base flow job first: it publishes the shared prefix + the ECO seed.
  JobSpec base = tinySpec();
  base.label = "base";
  JobResult baseResult;
  ASSERT_TRUE(c.runJob(base, &baseResult, &err)) << err;
  EXPECT_EQ(baseResult.cachePrefixStages, 0);

  // A batch of 4 bump-pitch ECOs submitted at once. They share the base
  // design's baseKey, so the queue serializes them and each replays the
  // place/pre_route_opt/cts prefix (3 stages) and ECO-seeds its route.
  const double scales[4] = {1.25, 1.5, 1.75, 2.0};
  std::vector<std::uint64_t> ids(4);
  for (int i = 0; i < 4; ++i) {
    JobSpec eco = tinySpec();
    eco.kind = JobKind::kEco;
    eco.f2fPitchScale = scales[i];
    eco.label = "eco" + std::to_string(i);
    ASSERT_TRUE(c.submit(eco, &ids[static_cast<std::size_t>(i)], &err)) << err;
  }
  for (int i = 0; i < 4; ++i) {
    JobState state = JobState::kQueued;
    ASSERT_TRUE(c.waitJob(ids[static_cast<std::size_t>(i)], 0, &state, &err)) << err;
    ASSERT_EQ(state, JobState::kDone) << "eco " << i;
    JobResult r;
    ASSERT_TRUE(c.result(ids[static_cast<std::size_t>(i)], &r, &err)) << err;
    // The acceptance bar: >= 3 prefix stages from the cache, every member
    // coalesced, and the ECO route actually reused most of the seed.
    EXPECT_GE(r.cachePrefixStages, 3) << "eco " << i;
    EXPECT_TRUE(r.coalesced) << "eco " << i;
    EXPECT_GE(r.ecoReused, 0) << "eco " << i;
    EXPECT_GT(r.ecoReused + r.ecoRipped, 0) << "eco " << i;
  }
  c.close();
  ts.shutdownAndJoin();

  // The server's aggregate run report records the batch: 4 coalesced jobs,
  // >= 12 coalesced prefix stages, and the cache-hit counter covers them.
  const std::string reportPath = ts.server.options().reportPath;
  std::ifstream f(reportPath);
  ASSERT_TRUE(f.is_open()) << reportPath;
  std::stringstream buf;
  buf << f.rdbuf();
  const auto doc = obs::parseJson(buf.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const obs::JsonValue* finals = doc->find("final");
  ASSERT_NE(finals, nullptr);
  EXPECT_EQ(finals->numberOr("jobs_done", -1), 5.0);
  EXPECT_GE(finals->numberOr("jobs_coalesced", -1), 4.0);
  EXPECT_GE(finals->numberOr("coalesced_prefix_stages", -1), 12.0);
  const obs::JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->numberOr("db.stage_cache_hits", 0), 12.0);
  fs::remove_all(tempPath("m3d_serve_eco_batch"));
}

TEST(ServeFlowServer, GracefulShutdownDrainsRunningAndCancelsQueued) {
  TestServer ts(serverOptions("m3d_serve_drain", /*executors=*/1));
  ASSERT_TRUE(ts.start());
  Client c;
  std::string err;
  ASSERT_TRUE(c.connect(ts.server.options().socketPath, &err)) << err;

  JobSpec first = tinySpec();
  first.label = "inflight";
  std::uint64_t id1 = 0;
  ASSERT_TRUE(c.submit(first, &id1, &err)) << err;
  // Wait until it is actually running (one executor -> the second job
  // below must stay queued).
  for (int i = 0; i < 200; ++i) {
    const auto snap = ts.server.queue().find(id1);
    ASSERT_NE(snap, nullptr);
    if (snap->state == JobState::kRunning || jobStateTerminal(snap->state)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  JobSpec second = tinySpec();
  second.shrink = 2;
  second.label = "queued";
  std::uint64_t id2 = 0;
  ASSERT_TRUE(c.submit(second, &id2, &err)) << err;

  ASSERT_TRUE(c.shutdownServer(&err)) << err;
  ts.server.wait();

  // The in-flight job drained to completion; the queued one was cancelled.
  const auto j1 = ts.server.queue().find(id1);
  const auto j2 = ts.server.queue().find(id2);
  ASSERT_NE(j1, nullptr);
  ASSERT_NE(j2, nullptr);
  EXPECT_EQ(j1->state, JobState::kDone);
  EXPECT_EQ(j2->state, JobState::kCancelled);
  // The aggregate report was still written on this shutdown path.
  EXPECT_TRUE(io::fileExists(ts.server.options().reportPath));
  fs::remove_all(tempPath("m3d_serve_drain"));
}

// The trace-track name table only grows, so an untraced daemon must not
// claim a named track per job: two probes around three jobs get
// consecutive ids.
TEST(ServeFlowServer, UntracedJobsClaimNoTraceTracks) {
  ASSERT_FALSE(obs::TraceCollector::global().enabled());
  TestServer ts(serverOptions("m3d_serve_untraced", /*executors=*/1));
  ASSERT_TRUE(ts.start());
  const int before = obs::claimNamedAuxTrack("probe-before");
  {
    Client c;
    std::string err;
    ASSERT_TRUE(c.connect(ts.server.options().socketPath, &err)) << err;
    for (int i = 0; i < 3; ++i) {
      JobResult r;
      ASSERT_TRUE(c.runJob(tinySpec(), &r, &err)) << err;
    }
  }
  const int after = obs::claimNamedAuxTrack("probe-after");
  ts.shutdownAndJoin();
  EXPECT_EQ(after, before + 1);
  fs::remove_all(tempPath("m3d_serve_untraced"));
}

// A traced daemon still runs each job on its own track, named job-<id> in
// the exported trace.
TEST(ServeFlowServer, TracedServerNamesEachJobTrack) {
  ServerOptions opt = serverOptions("m3d_serve_traced", /*executors=*/1);
  opt.tracePath = tempPath("m3d_serve_traced") + "/trace.json";
  TestServer ts(opt);
  ASSERT_TRUE(ts.start());
  std::vector<std::uint64_t> ids;
  {
    Client c;
    std::string err;
    ASSERT_TRUE(c.connect(opt.socketPath, &err)) << err;
    for (int i = 0; i < 2; ++i) {
      std::uint64_t id = 0;
      ASSERT_TRUE(c.submit(tinySpec(), &id, &err)) << err;
      JobState state = JobState::kQueued;
      ASSERT_TRUE(c.waitJob(id, 0, &state, &err)) << err;
      ASSERT_EQ(state, JobState::kDone);
      ids.push_back(id);
    }
  }
  ts.shutdownAndJoin();

  std::ifstream f(opt.tracePath);
  ASSERT_TRUE(f.is_open()) << opt.tracePath;
  std::stringstream buf;
  buf << f.rdbuf();
  std::string err;
  const auto doc = obs::parseJson(buf.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, double> tidOf;  // track name -> tid
  std::set<double> spanTids;
  for (const obs::JsonValue& e : events->arr) {
    const obs::JsonValue* ph = e.find("ph");
    const obs::JsonValue* args = e.find("args");
    if (ph == nullptr) continue;
    if (ph->str == "M" && args != nullptr && args->find("name") != nullptr) {
      tidOf[args->find("name")->str] = e.numberOr("tid", -1);
    } else if (ph->str == "X") {
      spanTids.insert(e.numberOr("tid", -1));
    }
  }
  for (const std::uint64_t id : ids) {
    const std::string track = "job-" + std::to_string(id);
    ASSERT_EQ(tidOf.count(track), 1u) << track;
    EXPECT_EQ(spanTids.count(tidOf[track]), 1u) << track << " has no spans";
  }
  fs::remove_all(tempPath("m3d_serve_traced"));
}

}  // namespace
}  // namespace m3d
