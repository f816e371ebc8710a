#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "db/codec.hpp"
#include "db/design_db.hpp"
#include "db/hash.hpp"
#include "db/serialize.hpp"
#include "db/stage_cache.hpp"
#include "flows/flow_checkpoint.hpp"
#include "flows/flows.hpp"
#include "core/macro3d.hpp"
#include "io/fsutil.hpp"
#include "lib/stdcell_factory.hpp"
#include "obs/metrics.hpp"
#include "tech/combined_beol.hpp"
#include "tech/tech_node.hpp"

/// Design-database tests (ctest label "db"):
///  - container round trips: save -> load -> save must be byte-identical,
///  - fault injection: truncation / flipped bytes anywhere must fail closed
///    with the documented typed error and leave the container empty,
///  - the content hash against XXH64 reference values and the writer's
///    pinned byte layout,
///  - codec round trips over randomized netlists/floorplans (fixed seeds),
///  - the stage cache: its content-addressed path convention, its byte
///    budget, and several processes publishing into one directory.
/// Flow-level warm-rerun and ECO tests live in the FlowDb* suite (slow).

namespace m3d {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// Container

db::DesignDb makeSampleDb() {
  db::DesignDb db;
  db.setSection("alpha", {1, 2, 3, 4, 5});
  db.setSection("beta", {});
  db.setSection("gamma", std::vector<std::uint8_t>(300, 0xAB));
  return db;
}

TEST(DbContainer, SerializeParseRoundTripIsByteIdentical) {
  const db::DesignDb db = makeSampleDb();
  const std::vector<std::uint8_t> bytes = db.serialize();

  db::DesignDb loaded;
  const db::DbStatus st = loaded.parse(bytes);
  ASSERT_TRUE(st.ok()) << st.detail;
  EXPECT_EQ(loaded.numSections(), 3);
  ASSERT_NE(loaded.section("alpha"), nullptr);
  EXPECT_EQ(*loaded.section("alpha"), (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  ASSERT_NE(loaded.section("beta"), nullptr);
  EXPECT_TRUE(loaded.section("beta")->empty());
  EXPECT_EQ(loaded.section("missing"), nullptr);
  EXPECT_EQ(loaded.sectionNames(), db.sectionNames());  // file order == insertion order
  EXPECT_EQ(loaded.sectionHash("gamma"), db.sectionHash("gamma"));

  EXPECT_EQ(loaded.serialize(), bytes);  // save -> load -> save byte identity
}

TEST(DbContainer, SaveLoadFileRoundTrip) {
  const std::string path = tempPath("m3d_dbtest_roundtrip.m3ddb");
  const db::DesignDb db = makeSampleDb();
  ASSERT_TRUE(db.saveFile(path).ok());

  db::DesignDb loaded;
  ASSERT_TRUE(loaded.loadFile(path).ok());
  EXPECT_EQ(loaded.serialize(), db.serialize());
  fs::remove(path);
}

TEST(DbContainer, MissingFileIsIoError) {
  db::DesignDb db;
  const db::DbStatus st = db.loadFile(tempPath("m3d_dbtest_does_not_exist.m3ddb"));
  EXPECT_EQ(st.error, db::DbError::kIoError);
}

TEST(DbContainer, BadMagicFailsClosed) {
  std::vector<std::uint8_t> bytes = makeSampleDb().serialize();
  bytes[0] ^= 0xFF;
  db::DesignDb db;
  const db::DbStatus st = db.parse(bytes);
  EXPECT_EQ(st.error, db::DbError::kBadMagic);
  EXPECT_EQ(db.numSections(), 0);
}

TEST(DbContainer, FlippedVersionByteFailsClosed) {
  std::vector<std::uint8_t> bytes = makeSampleDb().serialize();
  bytes[8] ^= 0x01;  // u32 version sits right after the 8-byte magic
  db::DesignDb db;
  const db::DbStatus st = db.parse(bytes);
  EXPECT_EQ(st.error, db::DbError::kBadVersion);
  EXPECT_EQ(db.numSections(), 0);
}

TEST(DbContainer, EveryTruncationFailsClosed) {
  const std::vector<std::uint8_t> bytes = makeSampleDb().serialize();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    db::DesignDb db;
    const db::DbStatus st = db.parse(cut);
    ASSERT_FALSE(st.ok()) << "parse succeeded on a " << len << "-byte prefix";
    ASSERT_EQ(st.error, db::DbError::kTruncated) << "len=" << len;
    ASSERT_EQ(db.numSections(), 0) << "len=" << len;
  }
}

TEST(DbContainer, CorruptedBytesAreDetectedEverywhere) {
  const std::vector<std::uint8_t> ref = makeSampleDb().serialize();
  // Flip every byte after the version field, one at a time: whether the
  // corruption lands in the section table or a payload, the table hash or
  // the per-section hash must catch it (never a silent wrong load).
  for (std::size_t i = 12; i < ref.size(); ++i) {
    std::vector<std::uint8_t> bytes = ref;
    bytes[i] ^= 0x40;
    db::DesignDb db;
    const db::DbStatus st = db.parse(bytes);
    ASSERT_FALSE(st.ok()) << "corruption at byte " << i << " went undetected";
    ASSERT_EQ(db.numSections(), 0) << "byte " << i;
  }
}

TEST(DbContainer, SaveFileWritesSerializeBytes) {
  // saveFile streams the header and each payload into the file; the result
  // must be exactly serialize()'s bytes, empty sections included.
  db::DesignDb db = makeSampleDb();
  db.setSection("delta", std::vector<std::uint8_t>(70000, 0x5C));
  db.setSection("epsilon", {});
  const std::string path = tempPath("m3d_dbtest_streamed.m3ddb");
  ASSERT_TRUE(db.saveFile(path).ok());
  std::vector<std::uint8_t> onDisk;
  ASSERT_TRUE(io::readFileBytes(path, onDisk));
  EXPECT_EQ(onDisk, db.serialize());
  fs::remove(path);
}

TEST(DbContainer, SectionCountCapRejectsCorruptCounts) {
  // A forged header claiming kMaxSections+1 sections must fail fast (not
  // attempt a huge allocation). Build by patching a valid empty container.
  db::DesignDb db;
  std::vector<std::uint8_t> bytes = db.serialize();
  const std::uint32_t bogus = db::DesignDb::kMaxSections + 1;
  std::memcpy(bytes.data() + 12, &bogus, sizeof bogus);
  db::DesignDb loaded;
  EXPECT_FALSE(loaded.parse(bytes).ok());
}

// ---------------------------------------------------------------------------
// Content hash

TEST(DbHash, ContentHashMatchesXxh64Reference) {
  // XXH64 (seed 0) of the first n bytes of b[i] = (7i + 3) & 0xff, checked
  // against the reference implementation; the lengths cover the empty
  // input, every tail path (1-, 4- and 8-byte steps) and the 32-byte lanes.
  std::vector<std::uint8_t> b(200);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>((7 * i + 3) & 0xff);
  const std::pair<std::size_t, std::uint64_t> expected[] = {
      {0, 0xef46db3751d8e999ull},   {1, 0x1f25c8d0bc1f4bb6ull},   {3, 0x31d2363f52e564c9ull},
      {4, 0x9bb64b7d66ee9fdaull},   {8, 0xdab99d95c6f90092ull},   {12, 0xd52e407833af5133ull},
      {31, 0xa2aa5f33cc4a6119ull},  {32, 0x23c3c17ef790fd97ull},  {63, 0x5e3e54b431c7493cull},
      {71, 0xfdb8dfc5700141a7ull},  {100, 0xa61f8d4c170fe531ull}, {200, 0xa6cb3c09bc829b24ull},
  };
  for (const auto& [n, hash] : expected) {
    EXPECT_EQ(db::contentHash64(b.data(), n), hash) << "n=" << n;
  }
  EXPECT_EQ(db::contentHash64("abc", 3), 0x44bc2cf5ad770999ull);
}

// ---------------------------------------------------------------------------
// Serialization primitives

TEST(DbSerialize, WriterByteLayoutIsPinned) {
  db::BinWriter w;
  w.u8(0xA5);
  w.u32(0x01020304u);
  w.u64(0x0102030405060708ull);
  w.i32(-2);
  w.i64(-3);
  w.b(true);
  w.b(false);
  w.f64(-0.0);
  w.f64(std::bit_cast<double>(0x7FF8000000000123ull));  // quiet NaN with a payload
  w.f64(1.5);
  w.str("ab");
  const std::vector<std::uint8_t> scalars = {
      0xA5,                                            // u8
      0x04, 0x03, 0x02, 0x01,                          // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
      0xFE, 0xFF, 0xFF, 0xFF,                          // i32 -2
      0xFD, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // i64 -3
      0x01, 0x00,                                      // b true, false
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // f64 -0.0
      0x23, 0x01, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x7F,  // f64 NaN payload
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,  // f64 1.5
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // str length
      'a',  'b',                                       // str bytes
  };
  EXPECT_EQ(w.size(), scalars.size());
  EXPECT_EQ(w.buffer(), scalars);

  // One bytes() run longer than 64 KiB lands verbatim after the scalars,
  // also after buffer() has been read mid-stream.
  std::vector<std::uint8_t> run(70000);
  for (std::size_t i = 0; i < run.size(); ++i) run[i] = static_cast<std::uint8_t>(i * 31 + 7);
  w.bytes(run.data(), run.size());
  std::vector<std::uint8_t> all = scalars;
  all.insert(all.end(), run.begin(), run.end());
  EXPECT_EQ(w.size(), all.size());
  EXPECT_EQ(w.take(), all);
  EXPECT_EQ(w.size(), 0u);
}

TEST(DbSerialize, ReaderFailureIsSticky) {
  db::BinWriter w;
  w.u32(7);
  db::BinReader r(w.buffer());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // overrun
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // still failed
  EXPECT_EQ(r.str(), "");
}

TEST(DbSerialize, CountGuardsAgainstHugeAllocations) {
  db::BinWriter w;
  w.u64(static_cast<std::uint64_t>(1) << 60);  // absurd element count
  db::BinReader r(w.buffer());
  EXPECT_EQ(r.count(4), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(DbSerialize, DoublesRoundTripByBitPattern) {
  db::BinWriter w;
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.f64(1.0 / 3.0);
  db::BinReader r(w.buffer());
  EXPECT_TRUE(std::signbit(r.f64()));
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_TRUE(r.ok() && r.atEnd());
}

// ---------------------------------------------------------------------------
// Codecs over randomized designs

/// Random INV-mesh netlist with ports (fixed seed => deterministic).
struct RandomDesign {
  explicit RandomDesign(std::uint64_t seed, int numInsts = 60)
      : tech(makeTech28(6)), lib(makeStdCellLib(tech)), nl(&lib) {
    std::mt19937_64 rng(seed);
    const CellTypeId inv = lib.findCell("INV_X1");
    const int pinA = *lib.cell(inv).findPin("A");
    std::vector<InstId> insts;
    for (int i = 0; i < numInsts; ++i) {
      const InstId id = nl.addInstance("g" + std::to_string(i), inv);
      nl.instance(id).pos = Point{umToDbu(1.0 + static_cast<double>(rng() % 96)),
                                  umToDbu(1.0 + static_cast<double>(rng() % 96))};
      if (rng() % 8 == 0) {
        nl.instance(id).fixed = true;
        nl.instance(id).die = (rng() % 2 == 0) ? DieId::kLogic : DieId::kMacro;
      }
      insts.push_back(id);
    }
    // in0 drives the first inverter; the last inverter drives out0.
    const PortId pin = nl.addPort("in0", PinDir::kInput, Side::kWest, false);
    const PortId pout = nl.addPort("out0", PinDir::kOutput, Side::kEast, false);
    const NetId nIn = nl.addNet("n_in");
    nl.connectPort(nIn, pin);
    nl.connect(nIn, insts.front(), "A");
    const NetId nOut = nl.addNet("n_out");
    nl.connect(nOut, insts.back(), "Y");
    nl.connectPort(nOut, pout);
    // Random fan-out nets between the inverters (a net is only created once
    // at least one free sink pin was drawn, so every net has a sink).
    for (int i = 0; i + 1 < numInsts; ++i) {
      std::vector<InstId> targets;
      const int want = 1 + static_cast<int>(rng() % 3);
      for (int s = 0; s < want; ++s) {
        const std::size_t t = static_cast<std::size_t>(i + 1) +
                              rng() % static_cast<std::uint64_t>(numInsts - i - 1);
        if (nl.instance(insts[t]).pinNets[static_cast<std::size_t>(pinA)] == kInvalidId) {
          targets.push_back(insts[t]);
        }
      }
      if (targets.empty()) continue;
      const NetId n = nl.addNet("n" + std::to_string(i));
      nl.connect(n, insts[static_cast<std::size_t>(i)], "Y");
      for (const InstId t : targets) {
        if (nl.instance(t).pinNets[static_cast<std::size_t>(pinA)] == kInvalidId) {
          nl.connect(n, t, "A");
        }
      }
    }
    fp.die = Rect{0, 0, umToDbu(100.0), umToDbu(100.0)};
    fp.rowHeight = tech.rowHeight;
    fp.siteWidth = tech.siteWidth;
    const int numBlk = static_cast<int>(rng() % 5);
    for (int i = 0; i < numBlk; ++i) {
      const Dbu x = umToDbu(static_cast<double>(rng() % 80));
      const Dbu y = umToDbu(static_cast<double>(rng() % 80));
      fp.blockages.push_back(
          Blockage{Rect{x, y, x + umToDbu(10.0), y + umToDbu(10.0)},
                   0.25 * static_cast<double>(1 + rng() % 4)});
    }
  }

  TechNode tech;
  Library lib;
  Netlist nl;
  Floorplan fp;
};

std::vector<std::uint8_t> encodedNetlist(const Netlist& nl) {
  db::BinWriter w;
  db::encode(w, nl);
  return w.take();
}

TEST(DbCodec, NetlistSaveLoadSaveIsByteIdenticalRandomized) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    RandomDesign d(seed);
    const std::vector<std::uint8_t> bytes = encodedNetlist(d.nl);

    Netlist copy(&d.lib);
    db::BinReader r(bytes);
    ASSERT_TRUE(db::decode(r, copy)) << "seed=" << seed;
    ASSERT_TRUE(r.ok() && r.atEnd()) << "seed=" << seed;
    EXPECT_TRUE(copy.validate().empty()) << copy.validate();

    EXPECT_EQ(encodedNetlist(copy), bytes) << "seed=" << seed;
    EXPECT_EQ(db::contentHash(copy), db::contentHash(d.nl)) << "seed=" << seed;
  }
}

TEST(DbCodec, NetlistHashIsPositionSensitive) {
  RandomDesign d(7);
  const std::uint64_t before = db::contentHash(d.nl);
  d.nl.instance(0).pos.x += 1;
  EXPECT_NE(db::contentHash(d.nl), before);
}

TEST(DbCodec, NetlistDecodeFailsClosedOnTruncationAndCorruption) {
  RandomDesign d(11);
  const std::vector<std::uint8_t> bytes = encodedNetlist(d.nl);
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    Netlist copy(&d.lib);
    db::BinReader r(cut);
    ASSERT_FALSE(db::decode(r, copy) && r.atEnd()) << "len=" << len;
  }
}

TEST(DbCodec, LibraryRoundTripIsByteIdentical) {
  RandomDesign d(5);
  db::BinWriter w;
  db::encode(w, d.lib);
  const std::vector<std::uint8_t> bytes = w.take();

  Library copy;
  db::BinReader r(bytes);
  ASSERT_TRUE(db::decode(r, copy));
  ASSERT_TRUE(r.ok() && r.atEnd());

  db::BinWriter w2;
  db::encode(w2, copy);
  EXPECT_EQ(w2.buffer(), bytes);
  EXPECT_EQ(db::contentHash(copy), db::contentHash(d.lib));
}

TEST(DbCodec, FloorplanRoundTripIsByteIdenticalRandomized) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    RandomDesign d(seed);
    db::BinWriter w;
    db::encode(w, d.fp);
    const std::vector<std::uint8_t> bytes = w.take();

    Floorplan copy;
    db::BinReader r(bytes);
    ASSERT_TRUE(db::decode(r, copy)) << "seed=" << seed;
    ASSERT_TRUE(r.ok() && r.atEnd());

    db::BinWriter w2;
    db::encode(w2, copy);
    EXPECT_EQ(w2.buffer(), bytes) << "seed=" << seed;
    EXPECT_EQ(db::contentHash(copy), db::contentHash(d.fp));
  }
}

TEST(DbCodec, CombinedBeolRoundTripIsByteIdentical) {
  const TechNode logic = makeTech28(6);
  const TechNode macro = makeTech28(4);
  const Beol combined = buildCombinedBeol(logic.beol, macro.beol, F2fViaSpec{},
                                          MacroDieStackOrder::kFlipped);
  db::BinWriter w;
  db::encode(w, combined);
  const std::vector<std::uint8_t> bytes = w.take();

  Beol copy;
  db::BinReader r(bytes);
  ASSERT_TRUE(db::decode(r, copy));
  ASSERT_TRUE(r.ok() && r.atEnd());
  EXPECT_TRUE(copy.validate().empty());

  db::BinWriter w2;
  db::encode(w2, copy);
  EXPECT_EQ(w2.buffer(), bytes);
  EXPECT_EQ(db::contentHash(copy), db::contentHash(combined));
}

TEST(DbCodec, BeolHashSeesF2fViaPitch) {
  const TechNode logic = makeTech28(6);
  const TechNode macro = makeTech28(4);
  F2fViaSpec f2f;
  const Beol a = buildCombinedBeol(logic.beol, macro.beol, f2f,
                                   MacroDieStackOrder::kFlipped);
  f2f.pitch *= 2;
  const Beol b = buildCombinedBeol(logic.beol, macro.beol, f2f,
                                   MacroDieStackOrder::kFlipped);
  EXPECT_NE(db::contentHash(a), db::contentHash(b));
}

// ---------------------------------------------------------------------------
// Stage cache

TEST(DbStageCache, DisabledCacheNeverHits) {
  db::StageCache cache;
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.resumeEnabled());
  EXPECT_FALSE(cache.has(0, "place", 42));
}

TEST(DbStageCache, PathIsContentAddressedAndHasChecksExistence) {
  const std::string dir = tempPath("m3d_dbtest_cache");
  fs::remove_all(dir);
  db::StageCache cache(dir, /*resume=*/true);
  ASSERT_TRUE(cache.enabled());
  EXPECT_TRUE(cache.resumeEnabled());
  EXPECT_TRUE(fs::is_directory(dir));

  const std::uint64_t key = 0xDEADBEEFCAFEF00Dull;
  const std::string p = cache.path(3, "route", key);
  EXPECT_NE(p.find("stage3_route_"), std::string::npos);
  EXPECT_NE(p.find(".m3ddb"), std::string::npos);
  EXPECT_FALSE(cache.has(3, "route", key));
  ASSERT_TRUE(makeSampleDb().saveFile(p).ok());
  EXPECT_TRUE(cache.has(3, "route", key));
  EXPECT_FALSE(cache.has(3, "route", key + 1));  // different key, different file

  db::StageCache noResume(dir, /*resume=*/false);
  EXPECT_TRUE(noResume.enabled());
  EXPECT_FALSE(noResume.resumeEnabled());
  fs::remove_all(dir);
}

void writeFileOfSize(const std::string& path, std::int64_t bytes) {
  const std::vector<std::uint8_t> data(static_cast<std::size_t>(bytes), 0x5A);
  ASSERT_TRUE(io::atomicWriteFile(path, data)) << path;
}

/// Sets \p path's modification time to \p age before now.
void ageFile(const std::string& path, std::chrono::hours age) {
  fs::last_write_time(path, fs::file_time_type::clock::now() - age);
}

// The directory is the cache's only record. Its byte budget counts every
// file the cache wrote -- also an entry whose publisher died between its
// rename and noteStored, and the temp file of a save killed before its
// rename -- and evicts the least recently used first; other files are never
// touched.
TEST(DbStageCache, BudgetCountsEveryFileTheCacheWrote) {
  constexpr std::int64_t kMiB = std::int64_t{1} << 20;
  const std::string dir = tempPath("m3d_dbtest_budget");
  fs::remove_all(dir);
  db::StageCacheOptions opt;
  opt.maxBytes = 10 * kMiB;
  db::StageCache cache(dir, /*resume=*/true, opt);

  const std::string a = cache.path(0, "place", 1);
  const std::string b = cache.path(1, "pre_route_opt", 2);
  const std::string unpublished = cache.path(2, "cts", 3);
  const std::string temp = cache.path(3, "route", 4) + ".tmp.999.0";
  const std::string foreign = dir + "/notes.txt";
  writeFileOfSize(a, 3 * kMiB);
  cache.noteStored(a);
  writeFileOfSize(b, 3 * kMiB);
  cache.noteStored(b);
  writeFileOfSize(unpublished, 6 * kMiB);
  writeFileOfSize(temp, 2 * kMiB);
  writeFileOfSize(foreign, kMiB);
  // Explicit old times, so the order does not rest on the clock's
  // resolution: the temp file oldest, then a, b and the unpublished entry.
  ageFile(foreign, std::chrono::hours(24));
  ageFile(temp, std::chrono::hours(12));
  ageFile(a, std::chrono::hours(10));
  ageFile(b, std::chrono::hours(9));
  ageFile(unpublished, std::chrono::hours(8));
  cache.noteUsed(a);  // a hit: a is now more recently used than b

  std::vector<std::string> published;
  for (int i = 0; i < 10; ++i) {
    published.push_back(cache.path(4, "post_route_opt", 100 + i));
    writeFileOfSize(published.back(), kMiB / 2);
    cache.noteStored(published.back());
  }

  // The temp file, b and the unpublished entry went, oldest first; a, the
  // ten new entries and the foreign file stay.
  EXPECT_FALSE(io::fileExists(temp));
  EXPECT_FALSE(io::fileExists(b));
  EXPECT_FALSE(io::fileExists(unpublished));
  EXPECT_TRUE(io::fileExists(a));
  for (const std::string& p : published) EXPECT_TRUE(io::fileExists(p)) << p;
  EXPECT_EQ(io::fileSizeBytes(foreign), kMiB);
  EXPECT_EQ(cache.diskBytes(), 8 * kMiB);
  EXPECT_EQ(obs::gauge("db.stage_cache_bytes").value(), static_cast<double>(8 * kMiB));
  std::int64_t onDisk = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path() != foreign) onDisk += static_cast<std::int64_t>(fs::file_size(e.path()));
  }
  EXPECT_LE(onDisk, opt.maxBytes);
  fs::remove_all(dir);
}

// Several processes publish into one budgeted cache directory at once:
// eviction runs under the directory lock, hits touch entries without it.
// Once all of them have exited, the directory fits the budget, no temp
// file is left and every entry left is the whole file its writer wrote.
TEST(DbCacheProcesses, ForkedPublishersShareOneBudget) {
  constexpr int kProcs = 4;
  constexpr int kEntries = 20;
  constexpr std::int64_t kBudget = 64 * 1024;
  const std::string dir = tempPath("m3d_dbtest_procs");
  fs::remove_all(dir);
  db::StageCacheOptions opt;
  opt.maxBytes = kBudget;
  db::StageCache cache(dir, /*resume=*/true, opt);
  const auto sizeOf = [](int proc, int i) {
    return static_cast<std::size_t>(2048 + 101 * (proc * kEntries + i));
  };
  std::map<std::string, std::size_t> written;  // entry name -> size
  for (int p = 0; p < kProcs; ++p) {
    for (int i = 0; i < kEntries; ++i) {
      written[fs::path(cache.path(p, "proc", i)).filename().string()] = sizeOf(p, i);
    }
  }

  // The children block on the pipe until the parent closes it, so they
  // all publish at once.
  int start[2] = {-1, -1};
  ASSERT_EQ(::pipe(start), 0);
  std::vector<pid_t> children;
  for (int p = 0; p < kProcs; ++p) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(start[1]);
      char c = 0;
      while (::read(start[0], &c, 1) < 0 && errno == EINTR) {
      }
      for (int i = 0; i < kEntries; ++i) {
        const std::string path = cache.path(p, "proc", i);
        const std::vector<std::uint8_t> bytes(sizeOf(p, i), static_cast<std::uint8_t>(i));
        if (io::atomicWriteFile(path, bytes)) cache.noteStored(path);
        if (i % 3 == 2) cache.noteUsed(cache.path(p, "proc", i - 2));  // touch an earlier one
      }
      ::_exit(0);
    }
    children.push_back(pid);
  }
  ::close(start[0]);
  ::close(start[1]);
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  std::int64_t total = 0;
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name == "cache_index.lock") continue;
    const std::int64_t bytes = static_cast<std::int64_t>(fs::file_size(e.path()));
    total += bytes;
    ASSERT_EQ(written.count(name), 1u) << name << " is not an entry";
    EXPECT_EQ(bytes, static_cast<std::int64_t>(written[name])) << name;
    ++entries;
  }
  EXPECT_GT(entries, 0);
  EXPECT_LT(entries, kProcs * kEntries);  // the budget did evict
  EXPECT_LE(total, kBudget);
  EXPECT_EQ(cache.diskBytes(), total);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Flow-level stage cache + ECO (slow; FlowDb* matches the "slow" label)

FlowOptions dbTinyOptions() {
  FlowOptions opt;
  opt.maxFreqRounds = 2;
  opt.optBase.maxPasses = 6;
  return opt;
}

int checkpointFileCount(const std::string& dir) {
  int n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".m3ddb") ++n;
  }
  return n;
}

struct CacheCounters {
  std::int64_t hits, misses, writes, restoreFailures;
  static CacheCounters read() {
    return CacheCounters{obs::counter("db.stage_cache_hits").value(),
                         obs::counter("db.stage_cache_misses").value(),
                         obs::counter("db.stage_checkpoints_written").value(),
                         obs::counter("db.stage_cache_restore_failures").value()};
  }
};

// A restore that fails on a malformed section must leave the live state
// untouched: the pipeline then recomputes from scratch on it, so a
// half-restored netlist would silently change the recomputed result.
TEST(DbCheckpoint, FailedRestoreLeavesTheLiveStateUntouched) {
  std::ostringstream trace;
  FlowOutput live = macro3dEntryState(makeTinyTileConfig(), dbTinyOptions(), trace);
  // A checkpoint of another netlist state (one cell moved) whose clock
  // section is malformed but correctly hashed.
  FlowOutput other = macro3dEntryState(makeTinyTileConfig(), dbTinyOptions(), trace);
  Netlist& otherNl = other.tile->netlist;
  InstId moved = 0;
  while (otherNl.instance(moved).fixed) ++moved;
  otherNl.instance(moved).pos.x += 1000;
  const std::string path = tempPath("m3d_failed_restore.m3ddb");
  ASSERT_TRUE(saveStageCheckpoint(other, "", 0, 1, path).ok());
  db::DesignDb dbFile;
  ASSERT_TRUE(dbFile.loadFile(path).ok());
  dbFile.setSection("clock", {0x01});  // truncated: fails to decode
  ASSERT_TRUE(dbFile.saveFile(path).ok());

  const std::uint64_t netlistBefore = db::contentHash(live.tile->netlist);
  std::string restoredTrace;
  EXPECT_EQ(restoreStageCheckpoint(path, live, restoredTrace).error, db::DbError::kMalformed);
  EXPECT_EQ(db::contentHash(live.tile->netlist), netlistBefore);
  fs::remove(path);
}

/// Runs the tiny-tile Macro-3D flow with its stage cache in \p dir (emptied
/// first). The signoff checkpoint is the result's finalCheckpointPath.
FlowOutput runTinyFlowCached(const std::string& dir) {
  fs::remove_all(dir);
  FlowOptions opt = dbTinyOptions();
  opt.checkpointDir = dir;
  return runFlowMacro3D(makeTinyTileConfig(), opt);
}

// The bytes of every section of the tiny flow's signoff checkpoint, pinned
// by their content hashes. A format change that the writer and the reader
// make together passes every round trip; it fails here. Re-record only with
// a format or stage-key version bump or a deliberate QoR change.
TEST(DbCheckpoint, SectionBytesArePinned) {
  const std::string dir = tempPath("m3d_db_pinned");
  const FlowOutput out = runTinyFlowCached(dir);
  db::DesignDb dbFile;
  ASSERT_TRUE(dbFile.loadFile(out.finalCheckpointPath).ok());
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"flow_meta", 0x06e28eb2e0cde56aull},    {"library", 0xce29402b17501b5aull},
      {"netlist", 0x9714d160eb8c28eeull},      {"groups", 0x8adb492a02cf0f1cull},
      {"tile_config", 0x5cb16ebb6f1262b5ull},  {"logic_tech", 0xc2744c33e7e1d44bull},
      {"macro_tech", 0xc2744c33e7e1d44bull},   {"routing_beol", 0xf2175e92bdd95b61ull},
      {"floorplan", 0xf92d7649f5e1c604ull},    {"cts", 0xa47ff2b434b2d5d4ull},
      {"routes", 0x26d5fa04b5622165ull},       {"parasitics", 0xf3999b2f395bebc7ull},
      {"clock", 0x0df11cf46f98cc93ull},        {"metrics", 0x8cc424206fbbcb2aull},
      {"verify", 0x444dd61dda3bb4c3ull},       {"trace", 0xd6dca29bb8d03288ull},
  };
  std::vector<std::pair<std::string, std::uint64_t>> actual;
  std::ostringstream table;  // printed in the form of `expected`
  for (const std::string& name : dbFile.sectionNames()) {
    actual.emplace_back(name, dbFile.sectionHash(name));
    table << "      {\"" << name << "\", 0x" << std::hex << std::setw(16) << std::setfill('0')
          << dbFile.sectionHash(name) << "ull},\n";
  }
  EXPECT_EQ(actual, expected) << "actual section hashes:\n" << table.str();
  fs::remove_all(dir);
}

// Every section the loaders decode fails closed when cut short, at the
// first bytes, in the middle and at each of the last eight. The cut payload
// is stored through setSection, so every hash still matches and only the
// decoder can reject it.
TEST(DbCheckpoint, TruncatedSectionsFailClosed) {
  const std::string dir = tempPath("m3d_db_truncated");
  const FlowOutput out = runTinyFlowCached(dir);
  db::DesignDb ref;
  ASSERT_TRUE(ref.loadFile(out.finalCheckpointPath).ok());
  const std::string path = dir + "/truncated.m3ddb";
  int decodedSections = 0;
  for (const std::string& name : ref.sectionNames()) {
    if (name == "flow_meta") continue;  // written for inspection, never decoded
    ++decodedSections;
    const std::vector<std::uint8_t>& full = *ref.section(name);
    const std::size_t n = full.size();
    std::set<std::size_t> cuts = {0, 1, n / 4, n / 2, 3 * n / 4};
    for (std::size_t k = 1; k <= 8 && k <= n; ++k) cuts.insert(n - k);
    for (const std::size_t len : cuts) {
      if (len >= n) continue;
      db::DesignDb cut = ref;
      cut.setSection(name, std::vector<std::uint8_t>(full.begin(),
                                                     full.begin() + static_cast<long>(len)));
      ASSERT_TRUE(cut.saveFile(path).ok());
      FlowOutput loaded;
      EXPECT_EQ(loadFlowCheckpoint(path, loaded).error, db::DbError::kMalformed)
          << "section '" << name << "' cut to " << len << " of " << n << " bytes";
      EXPECT_TRUE(loaded.tile == nullptr);
    }
  }
  EXPECT_EQ(decodedSections, 15);
  fs::remove_all(dir);
}

/// The first route segment of \p routes that is a via when \p via, else a wire.
RouteSeg& firstSeg(RoutingResult& routes, bool via) {
  for (NetRoute& r : routes.nets) {
    for (RouteSeg& s : r.segs) {
      if (s.isVia == via) return s;
    }
  }
  throw std::logic_error("no such route segment");
}

// Ids that one section holds into the netlist or the routing grid are
// range-checked. The section hashes are unkeyed, so a checkpoint with
// matching hashes can still hold a CTS buffer, route table, route segment,
// parasitics table or latency vector that does not fit the design; it must
// fail closed instead of crashing the stage after it.
TEST(DbCheckpoint, CrossSectionIdsAreRangeChecked) {
  FlowOutput live = runFlowMacro3D(makeTinyTileConfig(), dbTinyOptions());
  ASSERT_FALSE(live.cts.buffers.empty());
  ASSERT_FALSE(live.routes.nets.empty());
  ASSERT_FALSE(live.paras.empty());
  ASSERT_FALSE(live.clock.latency.empty());
  const std::string refPath = tempPath("m3d_db_ids_ref.m3ddb");
  const std::string path = tempPath("m3d_db_ids.m3ddb");
  ASSERT_TRUE(saveStageCheckpoint(live, live.trace, 6, 1, refPath).ok());
  std::vector<std::uint8_t> refBytes;
  ASSERT_TRUE(io::readFileBytes(refPath, refBytes));
  FlowOutput intact;
  ASSERT_TRUE(loadFlowCheckpoint(refPath, intact).ok());

  const std::pair<const char*, std::function<void(FlowOutput&)>> doctored[] = {
      {"CTS inst out of range",
       [](FlowOutput& o) { o.cts.buffers[0].inst = o.tile->netlist.numInstances(); }},
      {"CTS inputNet out of range", [](FlowOutput& o) { o.cts.buffers[0].inputNet = -1; }},
      {"CTS outputNet out of range",
       [](FlowOutput& o) { o.cts.buffers[0].outputNet = o.tile->netlist.numNets(); }},
      {"one route net short", [](FlowOutput& o) { o.routes.nets.pop_back(); }},
      {"route segment layer past the stack",
       [](FlowOutput& o) {
         RouteSeg& s = firstSeg(o.routes, false);
         s.layer = o.routingBeol.numMetals();
       }},
      {"route segment node past the grid",
       [](FlowOutput& o) { firstSeg(o.routes, true).toNode = o.grid->numNodes(); }},
      {"one parasitics entry short", [](FlowOutput& o) { o.paras.pop_back(); }},
      {"one parasitics entry one pin short",
       [](FlowOutput& o) {
         NetParasitics& p = o.paras[static_cast<std::size_t>(o.tile->groups.clockNet)];
         p.sinkWireDelay.pop_back();
         p.sinkWireLengthUm.pop_back();
       }},
      {"one latency entry short", [](FlowOutput& o) { o.clock.latency.pop_back(); }},
  };
  for (const auto& [what, doctor] : doctored) {
    SCOPED_TRACE(what);
    const CtsResult cts = live.cts;
    const RoutingResult routes = live.routes;
    const std::vector<NetParasitics> paras = live.paras;
    const ClockModel clock = live.clock;
    doctor(live);
    ASSERT_TRUE(saveStageCheckpoint(live, live.trace, 6, 1, path).ok());
    live.cts = cts;
    live.routes = routes;
    live.paras = paras;
    live.clock = clock;

    FlowOutput loaded;
    EXPECT_EQ(loadFlowCheckpoint(path, loaded).error, db::DbError::kMalformed);
    EXPECT_TRUE(loaded.tile == nullptr);
    std::string trace;
    EXPECT_EQ(restoreStageCheckpoint(path, live, trace).error, db::DbError::kMalformed);
    // The live state re-saves to the same bytes: the failed restore left it.
    ASSERT_TRUE(saveStageCheckpoint(live, live.trace, 6, 1, path).ok());
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(io::readFileBytes(path, bytes));
    EXPECT_TRUE(bytes == refBytes) << "the failed restore changed the live state";
  }
  fs::remove(refPath);
  fs::remove(path);
}

/// Whether \p v, encoded as it is (the writer checks nothing), decodes back
/// into \p out against \p design and the grid of \p routingBeol over \p die.
template <typename T>
bool decodes(const T& v, T out, const Netlist* design = nullptr,
             const Beol* routingBeol = nullptr, const Rect* die = nullptr) {
  db::BinWriter w;
  db::encode(w, v);
  const std::vector<std::uint8_t> bytes = w.take();
  db::BinReader r(bytes);
  return db::decode(r, out, design, routingBeol, die) && r.atEnd();
}

// Every rule the decoders enforce, broken one at a time in otherwise intact
// state of the tiny flow, makes the decode fail.
TEST(DbCodec, EachDecodeRuleRejectsItsViolation) {
  const FlowOutput o = runFlowMacro3D(makeTinyTileConfig(), dbTinyOptions());
  const Library& lib = *o.lib;
  const Netlist& nl = o.tile->netlist;
  const CellTypeId inv = lib.findCell("INV_X1");
  const auto library = [&](auto edit) {
    Library l = lib;
    edit(l);
    return decodes(l, Library{});
  };
  const auto cell = [&](auto edit) { return library([&](Library& l) { edit(l.cell(inv)); }); };
  const auto netlist = [&](auto edit) {
    Netlist n = nl;
    edit(n);
    return decodes(n, Netlist(&lib));
  };
  // The first net pin of \p kind.
  const auto pinOf = [](Netlist& n, NetPin::Kind kind) -> NetPin& {
    for (NetId i = 0;; ++i) {
      for (NetPin& p : n.net(i).pins) {
        if (p.kind == kind) return p;
      }
    }
  };
  const auto instPin = [&](Netlist& n) -> NetPin& { return pinOf(n, NetPin::Kind::kInstPin); };
  const auto beol = [&](auto edit) {
    Beol b = o.routingBeol;
    edit(b);
    return decodes(b, Beol{});
  };
  Beol noCut;  // two metals' worth of layers short of a cut
  noCut.addMetal(o.routingBeol.metal(0));
  noCut.addCut(o.routingBeol.cut(0));
  // A copy of \p v edited by \p edit, decoded against the flow's netlist
  // and routing grid.
  const auto inDesign = [&](auto v, auto edit) {
    edit(v);
    return decodes(v, decltype(v){}, &nl, &o.routingBeol, &o.fp.die);
  };
  const int metals = o.routingBeol.numMetals();
  const int cuts = o.routingBeol.numCuts();
  const int gridNodes = o.grid->numNodes();
  using Groups = TileGroups;
  using Routes = RoutingResult;
  using Paras = std::vector<NetParasitics>;
  const std::pair<const char*, bool> decoded[] = {
      {"empty cell name", cell([](CellType& c) { c.name.clear(); })},
      {"duplicate cell name", library([](Library& l) { l.cell(1).name = l.cell(0).name; })},
      {"cell class", cell([](CellType& c) { c.cls = CellClass{5}; })},
      {"cell width", cell([](CellType& c) { c.width = 0; })},
      {"cell height", cell([](CellType& c) { c.height = -1; })},
      {"substrate width", cell([](CellType& c) { c.substrateWidth = -1; })},
      {"substrate height", cell([](CellType& c) { c.substrateHeight = -1; })},
      {"pin direction", cell([](CellType& c) { c.pins[0].dir = PinDir{3}; })},
      {"arc from pin", cell([](CellType& c) { c.arcs[0].fromPin = 99; })},
      {"arc to pin", cell([](CellType& c) { c.arcs[0].toPin = -1; })},
      {"filler below -1", library([](Library& l) { l.setFillerCell(-2); })},
      {"filler past the cells", library([](Library& l) { l.setFillerCell(l.numCells()); })},
      {"instance cell", netlist([&](Netlist& n) { n.instance(0).type = lib.numCells(); })},
      {"instance die", netlist([](Netlist& n) { n.instance(0).die = DieId{2}; })},
      {"pin net count", netlist([](Netlist& n) { n.instance(0).pinNets.push_back(-1); })},
      {"pin net", netlist([](Netlist& n) { n.instance(0).pinNets[0] = n.numNets(); })},
      {"net pin kind", netlist([&](Netlist& n) { instPin(n).kind = NetPin::Kind{2}; })},
      {"net pin instance", netlist([&](Netlist& n) { instPin(n).inst = -1; })},
      {"net pin lib pin", netlist([&](Netlist& n) { instPin(n).libPin = 99; })},
      {"net pin port",
       netlist([&](Netlist& n) { pinOf(n, NetPin::Kind::kPort).port = n.numPorts(); })},
      {"net driver", netlist([](Netlist& n) { n.net(0).driverIdx = -2; })},
      {"port direction", netlist([](Netlist& n) { n.port(0).dir = PinDir{3}; })},
      {"port side", netlist([](Netlist& n) { n.port(0).side = Side{4}; })},
      {"port net", netlist([](Netlist& n) { n.port(0).net = n.numNets(); })},
      {"group instance", inDesign(o.tile->groups, [](Groups& g) { g.nocCells.push_back(-1); })},
      {"module instance",
       inDesign(o.tile->groups, [&](Groups& g) { g.modules.push_back({"m", {-1}}); })},
      {"clock net", inDesign(o.tile->groups, [&](Groups& g) { g.clockNet = nl.numNets(); })},
      {"clock port", inDesign(o.tile->groups, [](Groups& g) { g.clockPort = -2; })},
      {"metal direction", beol([](Beol& b) { b.metal(0).dir = LayerDir{2}; })},
      {"metal die", beol([](Beol& b) { b.metal(0).die = DieId{2}; })},
      {"cut die", beol([](Beol& b) { b.cut(0).die = DieId{2}; })},
      {"metal/cut alternation", decodes(noCut, Beol{})},
      {"CTS parent order", inDesign(o.cts, [](CtsResult& c) { c.buffers[0].parent = 0; })},
      {"CTS cell", inDesign(o.cts, [&](CtsResult& c) { c.buffers[0].inst = nl.numInstances(); })},
      {"CTS input net", inDesign(o.cts, [](CtsResult& c) { c.buffers[0].inputNet = -1; })},
      {"CTS output net",
       inDesign(o.cts, [&](CtsResult& c) { c.buffers[0].outputNet = nl.numNets(); })},
      {"route layer", inDesign(o.routes, [](Routes& r) { r.nets[0].segs = {{false, -1, 0, 0}}; })},
      {"route node", inDesign(o.routes, [](Routes& r) { r.nets[0].segs = {{true, 0, -1, 0}}; })},
      {"route wire layer past the metals",
       inDesign(o.routes, [&](Routes& r) { r.nets[0].segs = {{false, metals, 0, 1}}; })},
      {"route via layer past the cuts",
       inDesign(o.routes, [&](Routes& r) { r.nets[0].segs = {{true, cuts, 0, 1}}; })},
      {"route from node past the grid",
       inDesign(o.routes, [&](Routes& r) { r.nets[0].segs = {{false, 0, gridNodes, 0}}; })},
      {"route to node past the grid",
       inDesign(o.routes, [&](Routes& r) { r.nets[0].segs = {{false, 0, 0, gridNodes}}; })},
      {"route table length", inDesign(o.routes, [](Routes& r) { r.nets.pop_back(); })},
      {"parasitics table length", inDesign(o.paras, [](Paras& p) { p.pop_back(); })},
      {"parasitics pin count",
       inDesign(o.paras, [](Paras& p) { p.front().sinkWireLengthUm.push_back(0.0); })},
      {"latency count", inDesign(o.clock, [](ClockModel& c) { c.latency.push_back(0.0); })},
      {"violation kind", inDesign(o.verify, [](VerifyReport& v) {
         v.violations.emplace_back();
         v.violations.back().kind = ViolationKind{99};
       })},
  };
  for (const auto& [what, ok] : decoded) EXPECT_FALSE(ok) << what;
  // The intact state decodes, and so do an unrouted design and an ideal clock.
  EXPECT_TRUE(library([](Library&) {}));
  EXPECT_TRUE(netlist([](Netlist&) {}));
  EXPECT_TRUE(beol([](Beol&) {}));
  EXPECT_TRUE(inDesign(o.tile->groups, [](Groups&) {}));
  EXPECT_TRUE(inDesign(o.cts, [](CtsResult&) {}));
  EXPECT_TRUE(inDesign(o.routes, [](Routes&) {}));
  EXPECT_TRUE(inDesign(o.routes, [](Routes& r) { r.nets.clear(); }));
  EXPECT_TRUE(inDesign(o.routes, [&](Routes& r) {
    r.nets[0].segs = {{false, metals - 1, gridNodes - 1, 0}, {true, cuts - 1, 0, gridNodes - 1}};
  }));
  EXPECT_TRUE(inDesign(o.paras, [](Paras& p) { p.clear(); }));
  EXPECT_TRUE(inDesign(o.clock, [](ClockModel& c) { c.latency.clear(); }));
  EXPECT_TRUE(inDesign(o.verify, [](VerifyReport&) {}));
}

TEST(FlowDbCache, WarmRerunRestoresAllStagesBitIdentical) {
  const std::string dir = tempPath("m3d_flowdb_warm");
  fs::remove_all(dir);

  FlowOptions opt = dbTinyOptions();
  opt.checkpointDir = dir;

  const CacheCounters c0 = CacheCounters::read();
  const FlowOutput cold = runFlowMacro3D(makeTinyTileConfig(), opt);
  const CacheCounters c1 = CacheCounters::read();
  EXPECT_EQ(c1.hits - c0.hits, 0);
  EXPECT_EQ(c1.misses - c0.misses, 7);
  EXPECT_EQ(c1.writes - c0.writes, 7);
  EXPECT_EQ(checkpointFileCount(dir), 7);

  const FlowOutput warm = runFlowMacro3D(makeTinyTileConfig(), opt);
  const CacheCounters c2 = CacheCounters::read();
  EXPECT_EQ(c2.hits - c1.hits, 7);  // the whole pipeline restored
  EXPECT_EQ(c2.misses - c1.misses, 0);
  EXPECT_EQ(c2.writes - c1.writes, 0);
  EXPECT_EQ(c2.restoreFailures - c1.restoreFailures, 0);
  EXPECT_EQ(checkpointFileCount(dir), 7);  // nothing re-written

  // The restored run is the cold run, bit for bit.
  EXPECT_EQ(warm.verify, cold.verify);
  EXPECT_EQ(warm.metrics.fclkMhz, cold.metrics.fclkMhz);
  EXPECT_EQ(warm.metrics.emeanFj, cold.metrics.emeanFj);
  EXPECT_EQ(warm.metrics.totalWirelengthM, cold.metrics.totalWirelengthM);
  EXPECT_EQ(warm.metrics.f2fBumps, cold.metrics.f2fBumps);
  EXPECT_EQ(warm.metrics.cellsResized, cold.metrics.cellsResized);
  EXPECT_EQ(warm.trace, cold.trace);
  fs::remove_all(dir);
}

TEST(FlowDbCache, BumpPitchEcoReusesPreRouteStages) {
  const std::string dir = tempPath("m3d_flowdb_eco_pitch");
  fs::remove_all(dir);

  FlowOptions opt = dbTinyOptions();
  opt.checkpointDir = dir;
  const FlowOutput base = runFlowMacro3D(makeTinyTileConfig(), opt);  // warm the cache
  ASSERT_EQ(checkpointFileCount(dir), 7);
  const std::string copyDir = tempPath("m3d_flowdb_eco_pitch_copy");
  fs::remove_all(copyDir);
  fs::copy(dir, copyDir);

  // ECO: double the F2F bump pitch. The combined BEOL first enters the key
  // chain at the route stage, so place/pre_route_opt/cts replay from the
  // cache and route..signoff recompute under the new stack.
  FlowOptions eco = opt;
  eco.f2fVia.pitch *= 2;
  const CacheCounters c0 = CacheCounters::read();
  const FlowOutput inc = runFlowMacro3D(makeTinyTileConfig(), eco);
  const CacheCounters c1 = CacheCounters::read();
  EXPECT_EQ(c1.hits - c0.hits, 3);    // place, pre_route_opt, cts
  EXPECT_EQ(c1.misses - c0.misses, 4);  // route..signoff
  EXPECT_EQ(c1.writes - c0.writes, 4);
  EXPECT_EQ(checkpointFileCount(dir), 11);

  // The incremental result must be bit-identical to a cold run of the same
  // ECO'd configuration.
  FlowOptions ecoCold = eco;
  ecoCold.checkpointDir.clear();
  const FlowOutput cold = runFlowMacro3D(makeTinyTileConfig(), ecoCold);
  EXPECT_EQ(inc.verify, cold.verify);
  EXPECT_EQ(inc.metrics.fclkMhz, cold.metrics.fclkMhz);
  EXPECT_EQ(inc.metrics.emeanFj, cold.metrics.emeanFj);
  EXPECT_EQ(inc.metrics.totalWirelengthM, cold.metrics.totalWirelengthM);
  EXPECT_EQ(inc.metrics.f2fBumps, cold.metrics.f2fBumps);

  // The same ECO seeded from the base run's signoff checkpoint, against two
  // cache directories holding the same entries, writes the same signoff
  // checkpoint: nothing of the directory's path reaches its bytes.
  const std::string seedName = fs::path(base.finalCheckpointPath).filename().string();
  std::vector<std::string> names;
  std::vector<std::vector<std::uint8_t>> signoff;
  for (const std::string& d : {dir, copyDir}) {
    FlowOptions seeded = eco;
    seeded.checkpointDir = d;
    seeded.ecoRouteFrom = d + "/" + seedName;
    const FlowOutput out = runFlowMacro3D(makeTinyTileConfig(), seeded);
    EXPECT_GT(out.routes.ecoNetsRipped + out.routes.ecoNetsReused, 0) << d;  // seeded
    names.push_back(fs::path(out.finalCheckpointPath).filename().string());
    ASSERT_TRUE(io::readFileBytes(out.finalCheckpointPath, signoff.emplace_back())) << d;
  }
  EXPECT_EQ(names[0], names[1]);
  EXPECT_TRUE(signoff[0] == signoff[1]) << "signoff checkpoints differ";
  fs::remove_all(dir);
  fs::remove_all(copyDir);
}

TEST(FlowDbCache, SearchHaloEcoRecomputesRouteOnward) {
  const std::string dir = tempPath("m3d_flowdb_eco_halo");
  fs::remove_all(dir);

  FlowOptions opt = dbTinyOptions();
  opt.checkpointDir = dir;
  (void)runFlowMacro3D(makeTinyTileConfig(), opt);  // warm the cache
  ASSERT_EQ(checkpointFileCount(dir), 7);

  // ECO: widen the router's search window. The search-kernel knobs enter
  // the key chain at the route stage, so place/pre_route_opt/cts replay
  // from the cache and route..signoff recompute under the new window.
  FlowOptions eco = opt;
  eco.router.searchHaloGcells = 4;
  const CacheCounters c0 = CacheCounters::read();
  const FlowOutput inc = runFlowMacro3D(makeTinyTileConfig(), eco);
  const CacheCounters c1 = CacheCounters::read();
  EXPECT_EQ(c1.hits - c0.hits, 3);      // place, pre_route_opt, cts
  EXPECT_EQ(c1.misses - c0.misses, 4);  // route..signoff
  EXPECT_EQ(c1.writes - c0.writes, 4);
  EXPECT_EQ(checkpointFileCount(dir), 11);

  // The incremental result must be bit-identical to a cold run of the same
  // ECO'd configuration.
  FlowOptions ecoCold = eco;
  ecoCold.checkpointDir.clear();
  const FlowOutput cold = runFlowMacro3D(makeTinyTileConfig(), ecoCold);
  EXPECT_EQ(inc.verify, cold.verify);
  EXPECT_EQ(inc.metrics.fclkMhz, cold.metrics.fclkMhz);
  EXPECT_EQ(inc.metrics.totalWirelengthM, cold.metrics.totalWirelengthM);
  EXPECT_EQ(inc.routes.nodesPopped, cold.routes.nodesPopped);
  EXPECT_EQ(inc.routes.windowFallbacks, cold.routes.windowFallbacks);
  fs::remove_all(dir);
}

TEST(FlowDbCache, StandaloneCheckpointLoadReconstructsTheRun) {
  const std::string dir = tempPath("m3d_flowdb_load");
  fs::remove_all(dir);

  FlowOptions opt = dbTinyOptions();
  opt.checkpointDir = dir;
  const FlowOutput ref = runFlowMacro3D(makeTinyTileConfig(), opt);

  // Find the signoff checkpoint and load it standalone (fresh Library/Tile).
  std::string signoffPath;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("stage6_signoff_", 0) == 0) {
      signoffPath = e.path().string();
    }
  }
  ASSERT_FALSE(signoffPath.empty());

  FlowOutput loaded;
  std::string trace;
  const db::DbStatus st = loadFlowCheckpoint(signoffPath, loaded, &trace);
  ASSERT_TRUE(st.ok()) << db::dbErrorName(st.error) << ": " << st.detail;
  EXPECT_EQ(loaded.metrics.fclkMhz, ref.metrics.fclkMhz);
  EXPECT_EQ(loaded.metrics.emeanFj, ref.metrics.emeanFj);
  EXPECT_EQ(loaded.verify, ref.verify);
  EXPECT_EQ(db::contentHash(loaded.tile->netlist), db::contentHash(ref.tile->netlist));
  EXPECT_FALSE(trace.empty());

  // Corrupting the file must fail the standalone load closed, too.
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(signoffPath, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x10;
  {
    std::ofstream out(signoffPath, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  FlowOutput corrupt;
  EXPECT_EQ(loadFlowCheckpoint(signoffPath, corrupt).error, db::DbError::kHashMismatch);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Stage-key sensitivity (fast; DbStageKeys, label db): computeStageKeys on
// the tiny tile's Macro-3D pipeline entry state, no flow run. The one flow
// test here (FlowDbCache, slow) runs the flows with the unread values.

/// One perturbation of a stage-key input and the stage that first reads it.
struct KeyInput {
  const char* name;
  int stage;
  std::function<void(FlowOutput&, FlowOptions&, PipelineFlags&)> perturb;
};

KeyInput onOpt(const char* name, int stage, std::function<void(FlowOptions&)> f) {
  return {name, stage, [f](FlowOutput&, FlowOptions& o, PipelineFlags&) { f(o); }};
}

KeyInput onFlags(const char* name, int stage, std::function<void(PipelineFlags&)> f) {
  return {name, stage, [f](FlowOutput&, FlowOptions&, PipelineFlags& fl) { f(fl); }};
}

KeyInput onState(const char* name, int stage, std::function<void(FlowOutput&, FlowOptions&)> f) {
  return {name, stage, [f](FlowOutput& out, FlowOptions& o, PipelineFlags&) { f(out, o); }};
}

std::array<std::uint64_t, 7> stageKeys(const KeyInput* in = nullptr) {
  FlowOptions opt = dbTinyOptions();
  PipelineFlags flags;
  std::ostringstream trace;
  FlowOutput out = macro3dEntryState(makeTinyTileConfig(), opt, trace);
  if (in != nullptr) in->perturb(out, opt, flags);
  return computeStageKeys(out, opt, flags);
}

// Every value the keys still hash, changed one at a time: the first key
// that moves is the stage that reads the value, and every later key moves
// with it (the chain), so a cached prefix is never reused past its inputs.
TEST(DbStageKeys, EachHashedValueReKeysItsStageAndEverythingAfter) {
  const std::array<std::uint64_t, 7> base = stageKeys();
  EXPECT_EQ(stageKeys(), base);  // deterministic
  const std::vector<KeyInput> inputs = {
      onState("floorplan die", 0, [](FlowOutput& out, FlowOptions&) { out.fp.die.xhi += 1000; }),
      onFlags("inheritPlacement", 0, [](PipelineFlags& f) { f.inheritPlacement = true; }),
      onOpt("placer.engine", 0, [](FlowOptions& o) { o.placer.engine = PlaceEngine::kAnalytic; }),
      onOpt("placer.maxIters", 0, [](FlowOptions& o) { o.placer.maxIters += 1; }),
      onOpt("placer.legalizer.cellWidthScale", 0,
            [](FlowOptions& o) { o.placer.legalizer.cellWidthScale = 1.5; }),
      onFlags("preRouteOpt", 1, [](PipelineFlags& f) { f.preRouteOpt = false; }),
      onOpt("maxPerformance", 1, [](FlowOptions& o) { o.maxPerformance = false; }),
      onOpt("targetPeriodNs", 1, [](FlowOptions& o) { o.targetPeriodNs += 0.5; }),
      onOpt("maxFreqRounds", 1, [](FlowOptions& o) { o.maxFreqRounds += 1; }),
      onOpt("optBase.maxPasses", 1, [](FlowOptions& o) { o.optBase.maxPasses += 1; }),
      onOpt("cts.maxSinksPerLeaf", 2, [](FlowOptions& o) { o.cts.maxSinksPerLeaf += 1; }),
      onState("routing BEOL", 3,
              [](FlowOutput& out, FlowOptions& o) {
                o.f2fVia.pitch *= 2;
                out.routingBeol = buildCombinedBeol(out.logicTech.beol, out.macroTech.beol,
                                                    o.f2fVia, o.stackOrder);
              }),
      onOpt("grid.trackUtilization", 3, [](FlowOptions& o) { o.grid.trackUtilization = 0.7; }),
      onOpt("grid.m1Utilization", 3, [](FlowOptions& o) { o.grid.m1Utilization = 0.2; }),
      onOpt("router.maxIterations", 3, [](FlowOptions& o) { o.router.maxIterations += 1; }),
      onOpt("router.f2fViaCost", 3, [](FlowOptions& o) { o.router.f2fViaCost += 1.0; }),
      onOpt("router.batchSize", 3, [](FlowOptions& o) { o.router.batchSize += 1; }),
      onOpt("router.searchHaloGcells", 3, [](FlowOptions& o) { o.router.searchHaloGcells += 1; }),
      onOpt("ecoRouteFrom", 3, [](FlowOptions& o) { o.ecoRouteFrom = "no_such_seed.m3ddb"; }),
      onFlags("postRouteOpt", 5, [](PipelineFlags& f) { f.postRouteOpt = false; }),
      onOpt("signoffCorner", 6, [](FlowOptions& o) { o.signoffCorner = kSlowCorner; }),
      onState("logicTech.vdd", 6, [](FlowOutput& out, FlowOptions&) { out.logicTech.vdd += 0.1; }),
      onOpt("signoff", 6, [](FlowOptions& o) { o.signoff = false; }),
      onOpt("verify.drc", 6, [](FlowOptions& o) { o.verify.drc = false; }),
      onOpt("verify.connectivity", 6, [](FlowOptions& o) { o.verify.connectivity = false; }),
      onOpt("verify.placement", 6, [](FlowOptions& o) { o.verify.placement = false; }),
      onOpt("verify.f2f", 6, [](FlowOptions& o) { o.verify.f2f = false; }),
  };
  for (const KeyInput& in : inputs) {
    SCOPED_TRACE(in.name);
    const std::array<std::uint64_t, 7> keys = stageKeys(&in);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (static_cast<int>(i) < in.stage) {
        EXPECT_EQ(keys[i], base[i]) << "stage " << i << " keyed on a later stage's input";
      } else {
        EXPECT_NE(keys[i], base[i]) << "stage " << i << " missed the change";
      }
    }
  }
}

// Results are bit-identical at any thread count, so no thread knob may
// enter a key: checkpoints are shared across thread configurations.
TEST(DbStageKeys, ThreadCountsEnterNoKey) {
  const std::array<std::uint64_t, 7> base = stageKeys();
  const std::vector<KeyInput> threads = {
      onOpt("numThreads", 0, [](FlowOptions& o) { o.numThreads = 3; }),
      onOpt("placer.numThreads", 0, [](FlowOptions& o) { o.placer.numThreads = 3; }),
      onOpt("router.numThreads", 0, [](FlowOptions& o) { o.router.numThreads = 3; }),
      onOpt("optBase.numThreads", 0, [](FlowOptions& o) { o.optBase.numThreads = 3; }),
      onOpt("verify.numThreads", 0, [](FlowOptions& o) { o.verify.numThreads = 3; }),
  };
  for (const KeyInput& in : threads) {
    SCOPED_TRACE(in.name);
    EXPECT_EQ(stageKeys(&in), base);
  }
}

/// Options no pipeline stage reads. The place stage sets
/// useExistingPositions itself; legalize ignores the blockage resolution
/// (only the pseudo flows read the flow-level one, before the pipeline,
/// where it reaches the keys through the entry netlist); the timing goal
/// replaces optBase.targetPeriod.
struct UnreadOption {
  const char* name;
  void (*perturb)(FlowOptions&);
};
constexpr UnreadOption kUnreadOptions[] = {
    {"partialBlockageResolution", [](FlowOptions& o) { o.partialBlockageResolution *= 2; }},
    {"placer.useExistingPositions", [](FlowOptions& o) { o.placer.useExistingPositions = true; }},
    {"placer.legalizer.partialBlockageResolution",
     [](FlowOptions& o) { o.placer.legalizer.partialBlockageResolution *= 2; }},
    {"optBase.targetPeriod", [](FlowOptions& o) { o.optBase.targetPeriod *= 2; }},
};

// A value no stage reads must not re-key any stage: it would only turn
// cache hits into misses.
TEST(DbStageKeys, UnreadValuesEnterNoKey) {
  const std::array<std::uint64_t, 7> base = stageKeys();
  for (const UnreadOption& u : kUnreadOptions) {
    SCOPED_TRACE(u.name);
    const KeyInput in = onOpt(u.name, /*stage=*/7, u.perturb);  // read by no stage
    EXPECT_EQ(stageKeys(&in), base);
  }
}

std::string metricsJson(const DesignMetrics& m) {
  std::ostringstream os;
  obs::JsonWriter w(os, /*pretty=*/false);
  writeDesignMetricsJson(w, m);
  return os.str();
}

template <typename Encode>
std::vector<std::uint8_t> bytesOf(Encode&& encode) {
  db::BinWriter w;
  encode(w);
  return w.take();
}

// ...and indeed changes no result: the flows whose entry state does not
// depend on them (2D and Macro-3D) produce the same metrics, netlist and
// routes with each one perturbed.
TEST(FlowDbCache, UnreadValuesLeaveResultsUnchanged) {
  using RunFlow = FlowOutput (*)(const TileConfig&, const FlowOptions&);
  const std::pair<const char*, RunFlow> flows[] = {{"Macro-3D", runFlowMacro3D},
                                                   {"2D", runFlow2D}};
  for (const auto& [flowName, run] : flows) {
    const FlowOutput base = run(makeTinyTileConfig(), dbTinyOptions());
    for (const UnreadOption& u : kUnreadOptions) {
      SCOPED_TRACE(std::string(flowName) + ": " + u.name);
      FlowOptions opt = dbTinyOptions();
      u.perturb(opt);
      const FlowOutput out = run(makeTinyTileConfig(), opt);
      EXPECT_EQ(metricsJson(out.metrics), metricsJson(base.metrics));
      EXPECT_EQ(bytesOf([&](db::BinWriter& w) { db::encode(w, out.tile->netlist); }),
                bytesOf([&](db::BinWriter& w) { db::encode(w, base.tile->netlist); }));
      EXPECT_EQ(bytesOf([&](db::BinWriter& w) { db::encode(w, out.routes); }),
                bytesOf([&](db::BinWriter& w) { db::encode(w, base.routes); }));
    }
  }
}

}  // namespace
}  // namespace m3d
