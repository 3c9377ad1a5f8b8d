// Durable epoch snapshots: container integrity, crash-safe publication,
// corruption quarantine + fallback, and bit-identical warm restart.
//
// The corruption suite leans on the format's total CRC coverage: every byte
// of a snapshot file is covered by either the header CRC or exactly one
// section CRC, so ANY single-byte flip (and any truncation) must produce a
// clean decode error — never a crash, never a silently different engine.
// CI shards shift the fuzz offsets via COD_FUZZ_SEED; failing corruption
// cases copy the offending bytes to COD_SNAPSHOT_ARTIFACT_DIR when set.

#include <algorithm>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "serving/dynamic_service.h"
#include "serving/service_interface.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "storage/epoch_snapshot.h"
#include "storage/snapshot_store.h"
#include "tests/test_util.h"

namespace cod {
namespace {

namespace fs = std::filesystem;

uint64_t FuzzSeed() {
  const char* env = std::getenv("COD_FUZZ_SEED");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

// Copies a snapshot that misbehaved (plus its quarantined twin, if any) to
// the CI artifact directory so the exact failing bytes ship with the run.
void SaveArtifact(const std::string& path) {
  const char* dir = std::getenv("COD_SNAPSHOT_ARTIFACT_DIR");
  if (dir == nullptr) return;
  std::error_code ec;
  fs::create_directories(dir, ec);
  for (const std::string& p : {path, path + ".corrupt"}) {
    if (fs::exists(p, ec)) {
      fs::copy_file(p, std::string(dir) + "/" + fs::path(p).filename().string(),
                    fs::copy_options::overwrite_existing, ec);
    }
  }
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/snapshot_test-" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct World {
  Graph graph;
  AttributeTable attrs;
};

World MakeWorld(uint64_t seed) {
  Rng rng(seed);
  HppParams params;
  params.num_nodes = 120;
  params.num_edges = 450;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  World w;
  w.attrs = AssignCorrelatedAttributes(gen.block, 4, 0.8, 0.1, rng);
  w.graph = std::move(gen.graph);
  return w;
}

ServiceOptions SnapshotOptions(const std::string& dir) {
  ServiceOptions options;
  options.rebuild_threshold = 0.5;
  options.seed = 7;
  options.snapshot_dir = dir;
  options.snapshots_keep = 2;
  return options;
}

// The determinism probe: CODL + CODU answers for every attributed node,
// from a fresh workspace with a fixed seed. Two cores that answer this
// probe identically (same seed) are serving the same world.
struct ProbeAnswer {
  bool found;
  std::vector<NodeId> members;
  uint32_t rank;
  bool answered_from_index;
  bool degraded;

  bool operator==(const ProbeAnswer& o) const {
    return found == o.found && members == o.members && rank == o.rank &&
           answered_from_index == o.answered_from_index &&
           degraded == o.degraded;
  }
};

std::vector<ProbeAnswer> Probe(const EngineCore& core, uint64_t seed) {
  QueryWorkspace ws(core, seed);
  std::vector<ProbeAnswer> out;
  for (NodeId q = 0; q < core.graph().NumNodes(); q += 3) {
    const auto attrs = core.attributes().AttributesOf(q);
    if (attrs.empty()) continue;
    for (const CodResult& r :
         {core.QueryCodL(q, attrs[0], 5, ws), core.QueryCodU(q, 5, ws)}) {
      out.push_back(ProbeAnswer{r.found, r.members, r.rank,
                                r.answered_from_index, r.degraded});
    }
  }
  return out;
}

uint64_t QuarantinedCount() {
  return MetricsRegistry::Instance()
      .GetCounter("cod_snapshot_corrupt_quarantined_total")
      ->Value();
}

// ---------------------------------------------------------------------------
// Container round trip and service integration.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, FirstEpochIsSnapshottedAndDecodes) {
  const std::string dir = FreshDir("first_epoch");
  World w = MakeWorld(1);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SnapshotOptions(dir));
  SnapshotStore store({dir, 2});
  const auto paths = store.ListSnapshots();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], store.PathForEpoch(1));

  Result<DecodedEpochSnapshot> snap = LoadEpochSnapshotFile(paths[0]);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->meta.epoch, 1u);
  EXPECT_EQ(snap->meta.build_index, 0u);
  EXPECT_EQ(snap->meta.seed, 7u);
  EXPECT_FALSE(snap->meta.degraded);
  const EngineCore& live = service.engine();
  EXPECT_EQ(snap->graph.NumNodes(), live.graph().NumNodes());
  EXPECT_EQ(snap->graph.NumEdges(), live.graph().NumEdges());
  EXPECT_EQ(snap->attributes.NumAttributes(),
            live.attributes().NumAttributes());
  EXPECT_EQ(snap->hierarchy->NumVertices(),
            live.base_hierarchy().NumVertices());
  ASSERT_TRUE(snap->himor.has_value());
  EXPECT_EQ(snap->himor->NumEntries(), live.himor()->NumEntries());
}

TEST(SnapshotTest, EveryPublishSnapshotsAndPrunesToKeep) {
  const std::string dir = FreshDir("prune");
  World w = MakeWorld(2);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SnapshotOptions(dir));
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(service.AddEdge(0, static_cast<NodeId>(60 + round)));
    ASSERT_TRUE(service.Refresh().ok());
  }
  EXPECT_EQ(service.epoch(), 4u);
  SnapshotStore store({dir, 2});
  const auto paths = store.ListSnapshots();
  ASSERT_EQ(paths.size(), 2u);  // keep=2: epochs 3 and 4 survive
  EXPECT_EQ(paths[0], store.PathForEpoch(3));
  EXPECT_EQ(paths[1], store.PathForEpoch(4));
}

// ---------------------------------------------------------------------------
// Warm restart.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, WarmRestartServesBitIdenticalAnswers) {
  const std::string dir = FreshDir("warm_restart");
  const ServiceOptions options = SnapshotOptions(dir);
  std::vector<ProbeAnswer> cold_answers;
  uint64_t cold_epoch = 0;
  {
    World w = MakeWorld(3);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    ASSERT_TRUE(service.AddEdge(1, 100, 2.0));
    ASSERT_TRUE(service.RemoveEdge(1, 100));
    ASSERT_TRUE(service.AddEdge(2, 90));
    ASSERT_TRUE(service.Refresh().ok());
    cold_epoch = service.epoch();
    cold_answers = Probe(*service.Snapshot().core, /*seed=*/99);
  }  // service destroyed: only the disk remains

  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  DynamicCodService& service = **recovered;
  EXPECT_EQ(service.epoch(), cold_epoch);
  EXPECT_FALSE(service.epoch_degraded());
  const std::vector<ProbeAnswer> warm_answers =
      Probe(*service.Snapshot().core, /*seed=*/99);
  ASSERT_EQ(warm_answers.size(), cold_answers.size());
  for (size_t i = 0; i < cold_answers.size(); ++i) {
    EXPECT_TRUE(warm_answers[i] == cold_answers[i]) << "probe " << i;
  }
}

TEST(SnapshotTest, WarmRestartDoesNotRewriteTheRecoveredEpoch) {
  // A warm restart serves the epoch it loaded; re-snapshotting it would be
  // a byte-identical duplicate write (and, with snapshots_keep pruning,
  // could evict an older epoch for nothing). Recovery must initialize the
  // dedupe watermark to the recovered epoch so no write happens until a
  // NEW epoch publishes.
  const std::string dir = FreshDir("warm_restart_dedupe");
  const ServiceOptions options = SnapshotOptions(dir);
  {
    World w = MakeWorld(6);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    ASSERT_TRUE(service.AddEdge(2, 90));
    ASSERT_TRUE(service.Refresh().ok());
  }  // crash: only the disk remains

  const auto list_files = [&dir] {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const std::vector<std::string> files_before = list_files();
  Counter* writes =
      MetricsRegistry::Instance().GetCounter("cod_snapshot_writes_total");
  const uint64_t writes_before = writes->Value();

  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  DynamicCodService& service = **recovered;
  // Serving traffic must not trigger a write either.
  Probe(*service.Snapshot().core, /*seed=*/99);
  EXPECT_EQ(writes->Value(), writes_before);
  EXPECT_EQ(list_files(), files_before);

  // The next real publish resumes snapshotting as usual.
  ASSERT_TRUE(service.AddEdge(3, 80));
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_EQ(writes->Value(), writes_before + 1);
}

TEST(SnapshotTest, DeltaSnapshotsReuseUnchangedSections) {
  // Consecutive epochs of one service share the attribute table (and often
  // more) by pointer; the store's section cache must skip re-serializing
  // those sections while producing byte-identical files — reuse is an
  // encode-time shortcut, never a format change.
  const std::string dir = FreshDir("section_reuse");
  World w = MakeWorld(8);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SnapshotOptions(dir));
  Counter* reused = MetricsRegistry::Instance().GetCounter(
      "cod_snapshot_sections_reused_total");
  const uint64_t before = reused->Value();
  ASSERT_TRUE(service.AddEdge(2, 90));
  ASSERT_TRUE(service.Refresh().ok());
  // The attribute table is shared across epochs, so the second write
  // reuses at least that section's cached bytes.
  EXPECT_GT(reused->Value(), before);

  // Reuse is invisible in the bytes: the file decodes cleanly and carries
  // the same world the live core serves.
  SnapshotStore store({dir, 2});
  Result<DecodedEpochSnapshot> snap =
      LoadEpochSnapshotFile(store.PathForEpoch(2));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->meta.epoch, 2u);
  EXPECT_EQ(snap->graph.NumEdges(), service.engine().graph().NumEdges());
  EXPECT_EQ(snap->attributes.NumAttributes(),
            service.engine().attributes().NumAttributes());
}

TEST(SnapshotTest, RecoveredServiceKeepsRebuildDeterminism) {
  // Two histories: (a) one service applies updates U1 then U2 with a
  // rebuild after each; (b) a service applies U1, rebuilds, is destroyed,
  // recovers from its snapshot, then applies U2 and rebuilds. The final
  // epochs must answer identically — recovery restores the rebuild ticket,
  // so the second build draws the same seed stream either way.
  const auto u1 = [](DynamicCodService& s) {
    ASSERT_TRUE(s.AddEdge(3, 77));
    ASSERT_TRUE(s.AddEdge(5, 91));
  };
  const auto u2 = [](DynamicCodService& s) {
    ASSERT_TRUE(s.RemoveEdge(3, 77));
    ASSERT_TRUE(s.AddEdge(8, 64, 1.5));
  };

  const std::string dir_a = FreshDir("determinism_a");
  std::vector<ProbeAnswer> answers_a;
  {
    World w = MakeWorld(4);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              SnapshotOptions(dir_a));
    u1(service);
    ASSERT_TRUE(service.Refresh().ok());
    u2(service);
    ASSERT_TRUE(service.Refresh().ok());
    EXPECT_EQ(service.epoch(), 3u);
    answers_a = Probe(*service.Snapshot().core, 55);
  }

  const std::string dir_b = FreshDir("determinism_b");
  const ServiceOptions options_b = SnapshotOptions(dir_b);
  {
    World w = MakeWorld(4);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options_b);
    u1(service);
    ASSERT_TRUE(service.Refresh().ok());
  }
  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(options_b);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  u2(**recovered);
  ASSERT_TRUE((*recovered)->Refresh().ok());
  EXPECT_EQ((*recovered)->epoch(), 3u);
  const std::vector<ProbeAnswer> answers_b =
      Probe(*(*recovered)->Snapshot().core, 55);
  ASSERT_EQ(answers_b.size(), answers_a.size());
  for (size_t i = 0; i < answers_a.size(); ++i) {
    EXPECT_TRUE(answers_b[i] == answers_a[i]) << "probe " << i;
  }
}

TEST(SnapshotTest, RecoverRejectsMismatchedOptions) {
  const std::string dir = FreshDir("mismatch");
  ServiceOptions options = SnapshotOptions(dir);
  {
    World w = MakeWorld(5);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
  }
  options.seed = 8;  // different sampling stream: answers would change
  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, RecoverFromEmptyDirectoryIsNotFound) {
  const std::string dir = FreshDir("empty");
  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(SnapshotOptions(dir));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, DegradedEpochRoundTripsIndexAbsent) {
  const std::string dir = FreshDir("degraded");
  ServiceOptions options = SnapshotOptions(dir);
  {
    World w = MakeWorld(6);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    ASSERT_TRUE(service.AddEdge(0, 70));
    ScopedFailpoint fp("himor/build", 1);
    ASSERT_TRUE(service.Refresh().ok());  // publishes index-absent
    ASSERT_TRUE(service.epoch_degraded());
  }
  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->epoch_degraded());
  const EngineCore& core = *(*recovered)->Snapshot().core;
  EXPECT_FALSE(core.index_present());
  EXPECT_TRUE(core.index_absent_degraded());
  // Degraded epochs still answer CODL via the compressed fallback.
  Rng rng(9);
  int found = 0;
  for (NodeId q = 0; q < 30; ++q) {
    const auto attrs = core.attributes().AttributesOf(q);
    if (attrs.empty()) continue;
    const CodResult r = (*recovered)->QueryCodL(q, attrs[0], 5, rng);
    EXPECT_EQ(r.code, StatusCode::kOk);
    EXPECT_TRUE(r.degraded);
    found += r.found;
  }
  EXPECT_GT(found, 0);
}

TEST(SnapshotTest, AsyncRebuildSnapshotsInBackground) {
  const std::string dir = FreshDir("async");
  {
    TaskScheduler scheduler(2);
    ServiceOptions options = SnapshotOptions(dir);
    options.async_rebuild = true;
    options.scheduler = &scheduler;
    World w = MakeWorld(7);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    ASSERT_TRUE(service.AddEdge(4, 80));
    ASSERT_TRUE(service.RefreshAsync());
    service.WaitForRebuild();
    EXPECT_EQ(service.epoch(), 2u);
  }  // dtor joins the maintenance-priority snapshot tasks
  // Strict priority means the epoch-1 snapshot may still have been queued
  // when epoch 2 published; the write for a superseded epoch is skipped by
  // design. The invariant is: the NEWEST epoch is always on disk.
  SnapshotStore store({dir, 2});
  const auto paths = store.ListSnapshots();
  ASSERT_GE(paths.size(), 1u);
  EXPECT_EQ(paths.back(), store.PathForEpoch(2));
  Result<DecodedEpochSnapshot> snap = LoadEpochSnapshotFile(paths.back());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->meta.epoch, 2u);
}

// ---------------------------------------------------------------------------
// Crash safety.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, FailedWriteLeavesNoPartialSnapshot) {
  const std::string dir = FreshDir("failed_write");
  Counter* failures = MetricsRegistry::Instance().GetCounter(
      "cod_snapshot_write_failures_total");
  const uint64_t failures_before = failures->Value();
  World w = MakeWorld(8);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SnapshotOptions(dir));
  {
    // The fsync failpoint models a crash between write and durability: the
    // publish must still succeed, and the directory must show either the
    // old state or nothing — never a partial file.
    ScopedFailpoint fp("storage/snapshot_fsync", 1);
    ASSERT_TRUE(service.AddEdge(0, 88));
    ASSERT_TRUE(service.Refresh().ok());
  }
  EXPECT_EQ(service.epoch(), 2u);  // publication unaffected
  EXPECT_EQ(failures->Value(), failures_before + 1);
  SnapshotStore store({dir, 2});
  const auto paths = store.ListSnapshots();
  ASSERT_EQ(paths.size(), 1u);  // only epoch 1; epoch 2's write died
  EXPECT_EQ(paths[0], store.PathForEpoch(1));
  // No temp debris either: the failed write unlinked its temp file.
  size_t stray = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    stray += entry.path().extension() == ".tmp";
  }
  EXPECT_EQ(stray, 0u);
  // The next publish snapshots normally again.
  ASSERT_TRUE(service.AddEdge(1, 89));
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_EQ(store.ListSnapshots().size(), 2u);
}

TEST(SnapshotTest, InterruptedWriteDebrisIsInvisibleAndCleaned) {
  const std::string dir = FreshDir("debris");
  World w = MakeWorld(9);
  {
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              SnapshotOptions(dir));
  }
  // Simulate a crash mid-write: a half-written temp file next to the good
  // snapshot.
  WriteFile(dir + "/epoch-00000000000000000002.cods.tmp", "partial bytes");
  SnapshotStore store({dir, 2});  // construction sweeps ".tmp" leftovers
  EXPECT_FALSE(fs::exists(dir + "/epoch-00000000000000000002.cods.tmp"));
  const auto paths = store.ListSnapshots();
  ASSERT_EQ(paths.size(), 1u);  // the debris never counted as a snapshot
  EXPECT_TRUE(LoadEpochSnapshotFile(paths[0]).ok());
}

// ---------------------------------------------------------------------------
// Corruption: quarantine and fallback.
// ---------------------------------------------------------------------------

// A snapshot file for corruption experiments, written once per suite run.
std::string PristineSnapshot() {
  static const std::string bytes = [] {
    const std::string dir = FreshDir("pristine");
    World w = MakeWorld(10);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              SnapshotOptions(dir));
    return ReadFile(SnapshotStore({dir, 2}).PathForEpoch(1));
  }();
  return bytes;
}

// Expects `bytes` (a damaged snapshot) to fail decoding cleanly AND to be
// quarantined with fallback by a store that holds only this file.
void ExpectQuarantine(const std::string& bytes, const std::string& label) {
  const std::string dir = FreshDir("quarantine");
  SnapshotStore store({dir, 2});
  const std::string path = store.PathForEpoch(1);
  WriteFile(path, bytes);
  const uint64_t before = QuarantinedCount();
  Result<SnapshotStore::LoadedSnapshot> loaded = store.LoadNewest();
  if (loaded.ok()) {
    SaveArtifact(path);
    ADD_FAILURE() << label << ": corrupt snapshot decoded successfully";
    return;
  }
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound) << label;
  EXPECT_EQ(QuarantinedCount(), before + 1) << label;
  EXPECT_FALSE(fs::exists(path)) << label;
  EXPECT_TRUE(fs::exists(path + ".corrupt")) << label;
}

TEST(SnapshotCorruptionTest, EverySingleByteFlipFailsCleanly) {
  const std::string pristine = PristineSnapshot();
  ASSERT_FALSE(pristine.empty());
  // Decoding the pristine bytes works — the baseline for the flips below.
  ASSERT_TRUE(DecodeEpochSnapshot(pristine, "pristine").ok());
  // Exhaustive over the header region (magic, version, identity, section
  // table — every field gets hit), strided over the payloads, with the
  // stride phase shifted per CI shard so the fleet covers different bytes.
  const uint64_t fuzz = FuzzSeed();
  const size_t stride = 97;
  std::vector<size_t> offsets;
  for (size_t i = 0; i < std::min<size_t>(240, pristine.size()); ++i) {
    offsets.push_back(i);
  }
  for (size_t i = 240 + fuzz % stride; i < pristine.size(); i += stride) {
    offsets.push_back(i);
  }
  offsets.push_back(pristine.size() - 1);
  for (const size_t off : offsets) {
    std::string damaged = pristine;
    damaged[off] = static_cast<char>(damaged[off] ^ (1u << (off % 8)));
    const Result<DecodedEpochSnapshot> snap =
        DecodeEpochSnapshot(damaged, "flip");
    EXPECT_FALSE(snap.ok()) << "flip at offset " << off << " decoded";
    if (!snap.ok()) {
      EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument)
          << "offset " << off << ": " << snap.status().ToString();
    }
  }
}

TEST(SnapshotCorruptionTest, FlippedSnapshotIsQuarantined) {
  const std::string pristine = PristineSnapshot();
  // One representative flip per region: magic, identity, section table,
  // each payload quarter.
  const uint64_t fuzz = FuzzSeed();
  const std::vector<size_t> offsets = {
      1,  // magic
      9,  // epoch
      60 + fuzz % 32,  // section table
      pristine.size() / 4,
      pristine.size() / 2,
      (3 * pristine.size()) / 4,
      pristine.size() - 2,
  };
  for (const size_t off : offsets) {
    std::string damaged = pristine;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x40);
    ExpectQuarantine(damaged, "flip@" + std::to_string(off));
  }
}

TEST(SnapshotCorruptionTest, EveryTruncationFailsCleanly) {
  const std::string pristine = PristineSnapshot();
  const uint64_t fuzz = FuzzSeed();
  std::vector<size_t> cuts = {0, 1, 3, 7, 19, 43,
                              pristine.size() / 3, pristine.size() / 2,
                              pristine.size() - 1};
  cuts.push_back(1 + fuzz % (pristine.size() - 1));
  for (const size_t cut : cuts) {
    const Result<DecodedEpochSnapshot> snap =
        DecodeEpochSnapshot(std::string_view(pristine).substr(0, cut),
                            "truncated");
    EXPECT_FALSE(snap.ok()) << "truncation to " << cut << " decoded";
  }
  ExpectQuarantine(pristine.substr(0, pristine.size() / 2), "truncated-half");
}

TEST(SnapshotCorruptionTest, CorruptNewestFallsBackToOlderSnapshot) {
  const std::string dir = FreshDir("fallback");
  {
    World w = MakeWorld(11);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              SnapshotOptions(dir));
    ASSERT_TRUE(service.AddEdge(0, 66));
    ASSERT_TRUE(service.Refresh().ok());
  }
  SnapshotStore store({dir, 2});
  ASSERT_EQ(store.ListSnapshots().size(), 2u);
  // Damage the newest (epoch 2) snapshot's payload.
  const std::string newest = store.PathForEpoch(2);
  std::string bytes = ReadFile(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteFile(newest, bytes);

  const uint64_t before = QuarantinedCount();
  Result<SnapshotStore::LoadedSnapshot> loaded = store.LoadNewest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->snapshot.meta.epoch, 1u);  // fell back one epoch
  EXPECT_EQ(QuarantinedCount(), before + 1);
  EXPECT_TRUE(fs::exists(newest + ".corrupt"));
  EXPECT_FALSE(fs::exists(newest));

  // Recover() serves from the fallback epoch.
  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(SnapshotOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->epoch(), 1u);
}

TEST(SnapshotCorruptionTest, FuzzedDamageNeverCrashesRecovery) {
  // Chaos pass: random multi-byte damage (flips, truncations, garbage
  // splices) driven by the CI shard seed. The invariant is strictly "no
  // crash, clean Status" — the specific error text varies with the damage.
  const std::string pristine = PristineSnapshot();
  uint64_t state = 0x9E3779B97F4A7C15ull + FuzzSeed();
  const auto next = [&state] {
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (int round = 0; round < 200; ++round) {
    std::string damaged = pristine;
    const int kind = static_cast<int>(next() % 3);
    if (kind == 0) {  // up to 8 random flips
      const size_t flips = 1 + next() % 8;
      for (size_t i = 0; i < flips; ++i) {
        const size_t off = next() % damaged.size();
        damaged[off] = static_cast<char>(damaged[off] ^ (next() % 255 + 1));
      }
    } else if (kind == 1) {  // truncate
      damaged.resize(next() % damaged.size());
    } else {  // splice garbage over a random window
      const size_t off = next() % damaged.size();
      const size_t len = std::min(damaged.size() - off, next() % 64 + 1);
      for (size_t i = 0; i < len; ++i) {
        damaged[off + i] = static_cast<char>(next());
      }
    }
    const Result<DecodedEpochSnapshot> snap =
        DecodeEpochSnapshot(damaged, "fuzz");
    EXPECT_FALSE(snap.ok()) << "fuzz round " << round << " decoded";
  }
}

// ---------------------------------------------------------------------------
// The compact-shard id map (kGlobalIds section).
// ---------------------------------------------------------------------------

// Global ids for a 120-node world placed every 7th node of a 1,000-node
// graph: strictly ascending, in range.
std::shared_ptr<const GlobalIds> SpreadIds(size_t n) {
  auto ids = std::make_shared<GlobalIds>();
  ids->global_nodes = 1000;
  for (size_t v = 0; v < n; ++v) {
    ids->global.push_back(static_cast<NodeId>(7 * v));
  }
  return ids;
}

// A snapshot of a service that serves a compact shard, written once.
std::string PristineShardSnapshot() {
  static const std::string bytes = [] {
    const std::string dir = FreshDir("pristine-shard");
    World w = MakeWorld(12);
    const size_t n = w.graph.NumNodes();
    DynamicCodService service(
        std::move(w.graph),
        std::make_shared<const AttributeTable>(std::move(w.attrs)),
        SnapshotOptions(dir), SpreadIds(n));
    return ReadFile(SnapshotStore({dir, 2}).PathForEpoch(1));
  }();
  return bytes;
}

// Re-packs a snapshot with section `id`'s payload replaced, every offset and
// CRC recomputed: damage no CRC catches, left to the payload validators. A
// section the snapshot lacks is appended with that payload.
std::string ReplaceSection(const std::string& bytes, uint32_t id,
                           const std::string& payload) {
  struct Entry {
    uint32_t id, reserved0;
    uint64_t offset, length;
    uint32_t crc, reserved1;
  };
  constexpr size_t kFixed = 40;  // magic, version, identity, flags, count
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + kFixed - sizeof(uint32_t),
              sizeof(count));
  std::vector<Entry> table(count);
  std::memcpy(table.data(), bytes.data() + kFixed, count * sizeof(Entry));
  std::vector<std::string> payloads;
  bool found = false;
  for (const Entry& e : table) {
    found = found || e.id == id;
    payloads.push_back(e.id == id ? payload : bytes.substr(e.offset, e.length));
  }
  if (!found) {
    table.push_back(Entry{id, 0, 0, 0, 0, 0});
    payloads.push_back(payload);
    ++count;
  }
  uint64_t offset = kFixed + count * sizeof(Entry) + sizeof(uint32_t);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i].offset = offset;
    table[i].length = payloads[i].size();
    table[i].crc = Crc32c(payloads[i]);
    offset += payloads[i].size();
  }
  std::string out = bytes.substr(0, kFixed);
  std::memcpy(out.data() + kFixed - sizeof(uint32_t), &count, sizeof(count));
  out.append(reinterpret_cast<const char*>(table.data()),
             count * sizeof(Entry));
  const uint32_t header_crc = Crc32c(out);
  out.append(reinterpret_cast<const char*>(&header_crc), sizeof(header_crc));
  for (const std::string& p : payloads) out += p;
  return out;
}

constexpr uint32_t kGlobalIdsSection = 7;

std::string GlobalIdsPayload(uint64_t global_nodes,
                             const std::vector<NodeId>& ids) {
  BinaryBufferWriter w;
  w.WritePod<uint64_t>(global_nodes);
  w.WriteArray(ids);
  return std::move(w).TakeBytes();
}

TEST(SnapshotGlobalIdsTest, IdMapRoundTripsAndRestores) {
  const std::string dir = FreshDir("shard-roundtrip");
  World w = MakeWorld(13);
  const size_t n = w.graph.NumNodes();
  const std::shared_ptr<const GlobalIds> ids = SpreadIds(n);
  std::vector<ProbeAnswer> before;
  std::string written;
  {
    DynamicCodService service(
        std::move(w.graph),
        std::make_shared<const AttributeTable>(std::move(w.attrs)),
        SnapshotOptions(dir), ids);
    ASSERT_EQ(service.engine().global_ids(), ids);
    before = Probe(service.engine(), 5);
    written = ReadFile(SnapshotStore({dir, 2}).PathForEpoch(1));
  }
  Result<DecodedEpochSnapshot> snap = DecodeEpochSnapshot(written, "shard");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_TRUE(snap->global_ids.has_value());
  EXPECT_EQ(*snap->global_ids, *ids);

  // The restored core carries the map, answers as the writer did, and
  // writes the same bytes again.
  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(SnapshotOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const EngineCore& core = (*recovered)->engine();
  ASSERT_NE(core.global_ids(), nullptr);
  EXPECT_EQ(*core.global_ids(), *ids);
  EXPECT_TRUE(Probe(core, 5) == before);
  EpochSnapshotMeta meta = snap->meta;
  EXPECT_EQ(EncodeEpochSnapshot(meta, core), written);

  // A whole-graph service writes no id map.
  const Result<DecodedEpochSnapshot> mono =
      DecodeEpochSnapshot(PristineSnapshot(), "mono");
  ASSERT_TRUE(mono.ok());
  EXPECT_FALSE(mono->global_ids.has_value());
}

TEST(SnapshotGlobalIdsTest, BadIdMapsAreRefusedCleanly) {
  const std::string pristine = PristineShardSnapshot();
  const Result<DecodedEpochSnapshot> good =
      DecodeEpochSnapshot(pristine, "pristine shard");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(good->global_ids.has_value());
  const GlobalIds ids = *good->global_ids;
  const size_t n = ids.global.size();
  ASSERT_GE(n, 3u);
  // The CI shard seed picks where each map is damaged.
  const size_t at = 1 + FuzzSeed() % (n - 2);

  std::vector<std::pair<std::string, std::string>> cases;
  {
    // Truncated: the declared length runs past the section's end.
    std::string payload = GlobalIdsPayload(ids.global_nodes, ids.global);
    payload.resize(payload.size() - sizeof(NodeId) * (n - at));
    cases.emplace_back("truncated", payload);
  }
  {
    // Truncated map: fewer ids than the graph has nodes.
    std::vector<NodeId> shorter(ids.global.begin(), ids.global.begin() + at);
    cases.emplace_back("short", GlobalIdsPayload(ids.global_nodes, shorter));
  }
  {
    std::vector<NodeId> swapped = ids.global;
    std::swap(swapped[at], swapped[at + 1]);
    cases.emplace_back("non-monotone",
                       GlobalIdsPayload(ids.global_nodes, swapped));
  }
  {
    std::vector<NodeId> repeated = ids.global;
    repeated[at] = repeated[at - 1];
    cases.emplace_back("repeated",
                       GlobalIdsPayload(ids.global_nodes, repeated));
  }
  // Out of range: an id at or past the global node count.
  cases.emplace_back("out-of-range",
                     GlobalIdsPayload(ids.global.back(), ids.global));
  {
    std::vector<NodeId> huge = ids.global;
    huge.back() = kInvalidNode;
    cases.emplace_back("invalid-node",
                       GlobalIdsPayload(ids.global_nodes, huge));
  }
  for (const auto& [label, payload] : cases) {
    const std::string damaged =
        ReplaceSection(pristine, kGlobalIdsSection, payload);
    const Result<DecodedEpochSnapshot> snap =
        DecodeEpochSnapshot(damaged, label);
    EXPECT_FALSE(snap.ok()) << label << " decoded";
    if (!snap.ok()) {
      EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument)
          << label << ": " << snap.status().ToString();
    }
    ExpectQuarantine(damaged, label);
  }
  // The re-packing itself is sound: the untouched payload decodes.
  EXPECT_TRUE(DecodeEpochSnapshot(
                  ReplaceSection(pristine, kGlobalIdsSection,
                                 GlobalIdsPayload(ids.global_nodes,
                                                  ids.global)),
                  "repacked")
                  .ok());
}

// ---------------------------------------------------------------------------
// Container v4: unknown ids, older versions, no file ties, payload damage.
// ---------------------------------------------------------------------------

// The payload of section `id`, read through the section table.
std::string SectionPayload(const std::string& bytes, uint32_t id) {
  constexpr size_t kFixed = 40;
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + kFixed - sizeof(uint32_t),
              sizeof(count));
  for (uint32_t i = 0; i < count; ++i) {
    const char* row = bytes.data() + kFixed + 32 * i;
    uint32_t row_id = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    std::memcpy(&row_id, row, sizeof(row_id));
    std::memcpy(&offset, row + 8, sizeof(offset));
    std::memcpy(&length, row + 16, sizeof(length));
    if (row_id == id) return bytes.substr(offset, length);
  }
  ADD_FAILURE() << "no section " << id;
  return "";
}

// Where aligned array `index` of `payload` sits, counting from the first
// array at byte `first` (binary_io.h: each array is a u64 byte length, the
// data, zero padding to 8). *length_at receives its length prefix's offset.
size_t ArrayAt(const std::string& payload, size_t first, int index,
               size_t* length_at = nullptr) {
  size_t at = first;
  for (int i = 0;; ++i) {
    uint64_t bytes = 0;
    std::memcpy(&bytes, payload.data() + at, sizeof(bytes));
    if (i == index) {
      if (length_at != nullptr) *length_at = at;
      return at + sizeof(bytes);
    }
    at += sizeof(bytes) + (bytes + 7) / 8 * 8;
  }
}

template <typename T>
T Load(const std::string& bytes, size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void Store(std::string* bytes, size_t at, const T& value) {
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

// CODL + CODU answers through the service interface, every third node.
std::vector<ProbeAnswer> ProbeService(CodServiceInterface& service,
                                      const AttributeTable& attrs) {
  Rng rng(99);
  std::vector<ProbeAnswer> out;
  for (NodeId q = 0; q < attrs.NumNodes(); q += 3) {
    const auto a = attrs.AttributesOf(q);
    if (a.empty()) continue;
    for (const CodResult& r :
         {service.QueryCodL(q, a[0], 5, rng), service.QueryCodU(q, 5, rng)}) {
      out.push_back(ProbeAnswer{r.found, r.members, r.rank,
                                r.answered_from_index, r.degraded});
    }
  }
  return out;
}

TEST(SnapshotV4Test, UnknownSectionIdIsRefused) {
  const std::string pristine = PristineSnapshot();
  // CRC-valid throughout: the header and the new section's checksums are
  // recomputed, so only the id itself can refuse it.
  const std::string grown = ReplaceSection(pristine, 9, std::string(16, 'x'));
  const Result<DecodedEpochSnapshot> snap =
      DecodeEpochSnapshot(grown, "id 9");
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(snap.status().message().find("unknown section id 9"),
            std::string::npos)
      << snap.status().ToString();
  ExpectQuarantine(grown, "unknown-id");
}

TEST(SnapshotV4Test, OlderVersionIsRefusedOnceAndColdBuilds) {
  const std::string dir = FreshDir("v3");
  const ServiceOptions options = SnapshotOptions(dir);
  const std::string path = SnapshotStore({dir, 2}).PathForEpoch(1);
  {
    World w = MakeWorld(14);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
  }
  // Stamp the file v3, with a header CRC that matches the stamp.
  std::string bytes = ReadFile(path);
  Store<uint32_t>(&bytes, 4, 3);
  const uint32_t count = Load<uint32_t>(bytes, 36);
  const size_t crc_at = 40 + 32 * count;
  Store<uint32_t>(&bytes, crc_at,
                  Crc32c(std::string_view(bytes).substr(0, crc_at)));
  WriteFile(path, bytes);
  const Result<DecodedEpochSnapshot> snap = LoadEpochSnapshotFile(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument);

  const uint64_t before = QuarantinedCount();
  World cold = MakeWorld(14);
  Result<std::unique_ptr<CodServiceInterface>> recovered = RecoverCodService(
      options, std::move(cold.graph), std::move(cold.attrs));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(QuarantinedCount(), before + 1);
  EXPECT_TRUE(fs::exists(path + ".corrupt"));

  World fresh_world = MakeWorld(14);
  const std::unique_ptr<CodServiceInterface> fresh = MakeCodService(
      std::move(fresh_world.graph), std::move(fresh_world.attrs),
      SnapshotOptions(FreshDir("v3-fresh")));
  const AttributeTable probe_attrs = MakeWorld(14).attrs;
  const std::vector<ProbeAnswer> want = ProbeService(*fresh, probe_attrs);
  ASSERT_FALSE(want.empty());
  EXPECT_TRUE(ProbeService(**recovered, probe_attrs) == want);
}

TEST(SnapshotV4Test, RecoveredServiceKeepsNoTieToTheFile) {
  const std::string dir = FreshDir("no-file-tie");
  const ServiceOptions options = SnapshotOptions(dir);
  const std::string path = SnapshotStore({dir, 2}).PathForEpoch(1);
  std::vector<ProbeAnswer> before;
  {
    World w = MakeWorld(15);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    before = Probe(service.engine(), 5);
  }
  const std::string written = ReadFile(path);
  for (const bool unlink : {true, false}) {
    WriteFile(path, written);
    Result<std::unique_ptr<DynamicCodService>> recovered =
        DynamicCodService::Recover(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const EngineCore& core = (*recovered)->engine();
    // Re-encoding the recovered core reproduces the file byte for byte.
    const Result<DecodedEpochSnapshot> snap =
        DecodeEpochSnapshot(written, "written");
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(EncodeEpochSnapshot(snap->meta, core), written);
    if (unlink) {
      ASSERT_TRUE(fs::remove(path));
    } else {
      // Overwrite the same inode in place, every byte flipped.
      std::string damaged = written;
      for (char& c : damaged) c = static_cast<char>(~c);
      std::fstream out(path, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(out.good());
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
      out.flush();
    }
    EXPECT_TRUE(Probe(core, 5) == before)
        << (unlink ? "unlinked" : "rewritten");
    EXPECT_EQ(EncodeEpochSnapshot(snap->meta, core), written);
  }
}

// Damage to the v4 payloads that keeps every CRC valid (ReplaceSection
// re-checksums): the structural checks alone must refuse it, cleanly.
TEST(SnapshotV4Test, ForgedPayloadDamageIsRefusedCleanly) {
  constexpr uint32_t kGraph = 2;
  constexpr uint32_t kHierarchy = 4;
  constexpr uint32_t kHimor = 5;
  constexpr uint32_t kSketch = 6;
  static const std::string pristine = [] {
    const std::string dir = FreshDir("pristine-sketch");
    World w = MakeWorld(16);
    ServiceOptions options = SnapshotOptions(dir);
    options.engine.sketch_bits = 6;
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    return ReadFile(SnapshotStore({dir, 2}).PathForEpoch(1));
  }();
  ASSERT_TRUE(DecodeEpochSnapshot(pristine, "pristine").ok());
  const std::string graph = SectionPayload(pristine, kGraph);
  const std::string tree = SectionPayload(pristine, kHierarchy);
  const std::string himor = SectionPayload(pristine, kHimor);
  const std::string sketch = SectionPayload(pristine, kSketch);
  // Graph: offsets (u64), adjacency (AdjEntry), edges, weights.
  const size_t offsets = ArrayAt(graph, 0, 0);
  const size_t adjacency = ArrayAt(graph, 0, 1);
  // Hierarchy: u64 leaf count, then parent, child offsets, children.
  const uint64_t num_leaves = Load<uint64_t>(tree, 0);
  const size_t children = ArrayAt(tree, 8, 2);

  // Each case: the damage, the section it replaces, and the reason the
  // refusal must give.
  std::vector<std::tuple<std::string, uint32_t, std::string, std::string>>
      cases;
  {
    std::string p = graph;
    Store<uint64_t>(&p, offsets + 8, Load<uint64_t>(graph, offsets + 16) + 1);
    cases.emplace_back("graph offsets not monotone", kGraph, p,
                       "CSR offsets not monotone");
  }
  {
    std::string p = graph;
    const AdjEntry a = Load<AdjEntry>(graph, adjacency);
    const AdjEntry b = Load<AdjEntry>(graph, adjacency + sizeof(AdjEntry));
    Store<AdjEntry>(&p, adjacency, AdjEntry{a.to, b.edge});
    cases.emplace_back("adjacency names the wrong edge", kGraph, p,
                       "adjacency entry names an edge without that endpoint");
  }
  {
    // The highest node whose first two neighbours are both lower ones gets
    // its first slot, edge and all, in its second. A lower neighbour's
    // entry is looked up by its edge id, so the repeat still names an edge
    // with that endpoint and only the strict increase refuses it.
    const size_t num_nodes = Load<uint64_t>(graph, offsets - 8) / 8 - 1;
    std::string p = graph;
    size_t slot = 0;
    for (size_t u = num_nodes; u-- > 0 && slot == 0;) {
      const uint64_t begin = Load<uint64_t>(graph, offsets + 8 * u);
      const uint64_t end = Load<uint64_t>(graph, offsets + 8 * (u + 1));
      const size_t second = adjacency + (begin + 1) * sizeof(AdjEntry);
      if (end - begin >= 2 && Load<AdjEntry>(graph, second).to < u) {
        slot = second;
      }
    }
    ASSERT_NE(slot, 0u);
    Store<AdjEntry>(&p, slot, Load<AdjEntry>(graph, slot - sizeof(AdjEntry)));
    cases.emplace_back("duplicate neighbor", kGraph, p,
                       "neighbors not strictly increasing");
  }
  {
    // The first internal vertex lists its first child twice.
    std::string p = tree;
    Store<CommunityId>(&p, children + sizeof(CommunityId),
                       Load<CommunityId>(tree, children));
    cases.emplace_back("vertex reached twice", kHierarchy, p,
                       "dendrogram vertex reached twice");
  }
  {
    std::string p = tree;
    Store<CommunityId>(&p, children, static_cast<CommunityId>(num_leaves));
    cases.emplace_back("child id not below its parent", kHierarchy, p,
                       "child id not below its parent");
  }
  {
    // HIMOR: u32 max_rank, then offsets and entries (8-byte elements).
    size_t length_at = 0;
    ArrayAt(himor, 8, 1, &length_at);
    std::string p = himor;
    Store<uint64_t>(&p, length_at, Load<uint64_t>(himor, length_at) - 4);
    cases.emplace_back("HIMOR entries length", kHimor, p,
                       "is not a multiple of the element size 8");
  }
  {
    // Sketch: u64 seed, three u32, then six arrays; array 3 holds u64s.
    size_t length_at = 0;
    ArrayAt(sketch, 24, 3, &length_at);
    std::string p = sketch;
    Store<uint64_t>(&p, length_at, Load<uint64_t>(sketch, length_at) + 4);
    cases.emplace_back("sketch signature length", kSketch, p,
                       "is not a multiple of the element size 8");
  }
  for (const auto& [label, id, payload, reason] : cases) {
    const std::string damaged = ReplaceSection(pristine, id, payload);
    const Result<DecodedEpochSnapshot> snap =
        DecodeEpochSnapshot(damaged, label);
    EXPECT_FALSE(snap.ok()) << label << " decoded";
    if (!snap.ok()) {
      EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument)
          << label << ": " << snap.status().ToString();
      EXPECT_NE(snap.status().message().find(reason), std::string::npos)
          << label << ": " << snap.status().ToString();
    }
    ExpectQuarantine(damaged, label);
  }
  // The re-packing itself is sound: untouched payloads decode.
  EXPECT_TRUE(
      DecodeEpochSnapshot(ReplaceSection(pristine, kGraph, graph), "repacked")
          .ok());
}

}  // namespace
}  // namespace cod
