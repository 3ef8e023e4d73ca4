// Tests for the durability layer (src/storage/): WAL framing, torn-tail
// and corruption handling, segment rotation, outstanding-task derivation,
// atomic generational checkpoints with manifest fallback, and the chunked
// journal store's routing, sealing, retention, and restart behavior.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "storage/checkpoint_manager.hpp"
#include "storage/chunk_store.hpp"
#include "storage/storage.hpp"
#include "storage/wal.hpp"

namespace mfcp::storage {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory, wiped on construction and teardown.
struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() /
             ("mfcp_storage_test_" + std::to_string(::getpid()) + "_" +
              name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
};

WalRecord accepted_record(std::uint64_t id, double hours, double deadline) {
  WalRecord rec;
  rec.type = WalRecordType::kAccepted;
  rec.task_id = id;
  rec.hours = hours;
  rec.deadline_hours = deadline;
  rec.task.family = sim::TaskFamily::kTransformer;
  rec.task.depth = 12;
  rec.task.width = 256;
  rec.task.batch_size = 64;
  rec.task.dataset_fraction = 0.5;
  return rec;
}

WalRecord terminal_record(std::uint64_t id, WalRecordType type,
                          double hours) {
  WalRecord rec;
  rec.type = type;
  rec.task_id = id;
  rec.hours = hours;
  return rec;
}

// ------------------------------------------------------------------ wal --

TEST(Wal, PayloadEncodeDecodeRoundTrip) {
  WalRecord rec = accepted_record(42, 1.25, 3.5);
  rec.seq = 7;
  unsigned char buf[kWalPayloadBytes];
  encode_wal_payload(rec, buf);

  WalRecord back;
  ASSERT_TRUE(decode_wal_payload(buf, sizeof(buf), back));
  EXPECT_EQ(back.type, rec.type);
  EXPECT_EQ(back.seq, rec.seq);
  EXPECT_EQ(back.task_id, rec.task_id);
  EXPECT_EQ(back.hours, rec.hours);  // bit-identical, not approx
  EXPECT_EQ(back.deadline_hours, rec.deadline_hours);
  EXPECT_EQ(back.task.family, rec.task.family);
  EXPECT_EQ(back.task.depth, rec.task.depth);
  EXPECT_EQ(back.task.width, rec.task.width);
  EXPECT_EQ(back.task.batch_size, rec.task.batch_size);
  EXPECT_EQ(back.task.dataset_fraction, rec.task.dataset_fraction);
}

TEST(Wal, AppendScanRoundTripAndOutstanding) {
  TempDir dir("wal_roundtrip");
  {
    TaskWal wal(WalConfig{dir.str()});
    wal.append(accepted_record(10, 0.1, 2.0));
    wal.append(accepted_record(11, 0.2, 2.0));
    wal.append(terminal_record(10, WalRecordType::kDispatched, 0.5));
    wal.append(accepted_record(12, 0.6, 2.0));
    wal.append(terminal_record(12, WalRecordType::kExpired, 2.7));
    wal.sync();
    EXPECT_EQ(wal.stats().records, 5u);
    EXPECT_EQ(wal.stats().last_seq, 5u);
  }

  const WalScanResult scan = scan_wal(dir.str(), false);
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.last_seq, 5u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.corrupt_frames, 0u);
  for (std::size_t k = 0; k < scan.records.size(); ++k) {
    EXPECT_EQ(scan.records[k].seq, k + 1);
  }
  // Task 11 was accepted and never reached a terminal record.
  const std::vector<WalRecord> open = outstanding_tasks(scan);
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].task_id, 11u);
  EXPECT_EQ(open[0].task.depth, 12);
}

TEST(Wal, TerminalBeforeAcceptedStillPairsById) {
  // The gateway thread may append accepted slightly after the engine's
  // terminal record for the same task: pairing is by id, not log order.
  TempDir dir("wal_order");
  {
    TaskWal wal(WalConfig{dir.str()});
    wal.append(terminal_record(20, WalRecordType::kDispatched, 0.4));
    wal.append(accepted_record(20, 0.3, 2.0));
    wal.sync();
  }
  const WalScanResult scan = scan_wal(dir.str(), false);
  EXPECT_TRUE(outstanding_tasks(scan).empty());
}

TEST(Wal, TornTailIsTruncatedOnce) {
  TempDir dir("wal_torn");
  {
    TaskWal wal(WalConfig{dir.str()});
    wal.append(accepted_record(1, 0.1, 2.0));
    wal.append(accepted_record(2, 0.2, 2.0));
    wal.sync();
  }
  // A crash mid-append leaves a partial frame at the segment's end.
  const fs::path segment = fs::path(dir.str()) / wal_segment_name(1);
  {
    std::ofstream os(segment, std::ios::app | std::ios::binary);
    const char partial[] = {49, 0, 0, 0, 1, 2, 3};
    os.write(partial, sizeof(partial));
  }
  const auto torn_size = fs::file_size(segment);

  const WalScanResult scan = scan_wal(dir.str(), true);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.truncated_bytes, 7u);
  EXPECT_EQ(fs::file_size(segment), torn_size - 7);

  // The truncation healed the file: a second scan is clean.
  const WalScanResult again = scan_wal(dir.str(), true);
  EXPECT_EQ(again.records.size(), 2u);
  EXPECT_FALSE(again.torn_tail);
  EXPECT_EQ(again.truncated_bytes, 0u);
}

TEST(Wal, CrcCorruptionEndsThatSegmentsScan) {
  TempDir dir("wal_crc");
  {
    TaskWal wal(WalConfig{dir.str()});
    for (std::uint64_t id = 0; id < 4; ++id) {
      wal.append(accepted_record(id, 0.1 * static_cast<double>(id), 2.0));
    }
    wal.sync();
  }
  // Flip one payload byte in the third frame.
  const fs::path segment = fs::path(dir.str()) / wal_segment_name(1);
  {
    std::fstream f(segment,
                   std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff frame = kWalHeaderBytes + kWalPayloadBytes;
    f.seekp(2 * frame + kWalHeaderBytes + 20);
    f.put('\xff');
  }
  const WalScanResult scan = scan_wal(dir.str(), false);
  EXPECT_EQ(scan.records.size(), 2u);  // everything before the bad frame
  EXPECT_EQ(scan.last_seq, 2u);
  EXPECT_TRUE(scan.torn_tail);  // the newest segment ended early
}

TEST(Wal, ZeroByteSegmentScansClean) {
  TempDir dir("wal_zero");
  std::ofstream(fs::path(dir.str()) / wal_segment_name(1)).flush();
  const WalScanResult scan = scan_wal(dir.str(), true);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.next_segment, 2u);
}

TEST(Wal, MissingDirectoryIsAnEmptyLog) {
  const WalScanResult scan =
      scan_wal("/nonexistent/mfcp/wal/dir", false);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.last_seq, 0u);
  EXPECT_EQ(scan.next_segment, 1u);
}

TEST(Wal, RotationSpansSegmentsWithMonotoneSeq) {
  TempDir dir("wal_rotate");
  WalConfig cfg{dir.str()};
  cfg.segment_bytes = 2 * (kWalHeaderBytes + kWalPayloadBytes);
  {
    TaskWal wal(cfg);
    for (std::uint64_t id = 0; id < 10; ++id) {
      wal.append(accepted_record(id, 0.1 * static_cast<double>(id), 2.0));
    }
    wal.sync();
    EXPECT_GE(wal.stats().segments, 4u);
  }
  const WalScanResult scan = scan_wal(dir.str(), false);
  ASSERT_EQ(scan.records.size(), 10u);
  for (std::size_t k = 0; k < scan.records.size(); ++k) {
    EXPECT_EQ(scan.records[k].seq, k + 1);
  }
  EXPECT_GE(scan.last_segment, 4u);

  // A new log opened from the scan continues the sequence, not restarts.
  WalConfig next{dir.str()};
  next.start_seq = scan.last_seq + 1;
  next.start_segment = scan.next_segment;
  TaskWal wal(next);
  EXPECT_EQ(wal.append(accepted_record(99, 1.0, 2.0)), 11u);
}

// ---------------------------------------------------------- checkpoints --

/// Publishes `payload` as the next generation.
CheckpointInfo publish_payload(CheckpointManager& mgr, std::uint64_t seq,
                               const std::string& payload) {
  return mgr.publish(seq,
                     [&payload](std::ostream& os) { os << payload; });
}

/// Loads the newest recoverable payload, or empty when nothing loads.
std::string load_payload(const CheckpointManager& mgr,
                         CheckpointInfo* info_out = nullptr) {
  std::string payload;
  const auto info = mgr.load_latest([&payload](std::istream& is) {
    std::ostringstream os;
    os << is.rdbuf();
    payload = os.str();
    return true;
  });
  if (info_out != nullptr && info.has_value()) {
    *info_out = *info;
  }
  return info.has_value() ? payload : std::string();
}

TEST(Checkpoints, PublishLoadRoundTrip) {
  TempDir dir("ckpt_roundtrip");
  CheckpointManager mgr(CheckpointConfig{dir.str(), 3});
  const CheckpointInfo pub = publish_payload(mgr, 17, "weights v1\n");
  EXPECT_EQ(pub.generation, 1u);
  EXPECT_EQ(pub.wal_seq, 17u);

  CheckpointInfo info;
  EXPECT_EQ(load_payload(mgr, &info), "weights v1\n");
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.wal_seq, 17u);
}

TEST(Checkpoints, EmptyDirLoadsNothing) {
  TempDir dir("ckpt_empty");
  CheckpointManager mgr(CheckpointConfig{dir.str(), 3});
  EXPECT_FALSE(
      mgr.load_latest([](std::istream&) { return true; }).has_value());
}

TEST(Checkpoints, RetainPrunesAndNumberingSurvivesRestart) {
  TempDir dir("ckpt_retain");
  {
    CheckpointManager mgr(CheckpointConfig{dir.str(), 2});
    for (std::uint64_t g = 1; g <= 5; ++g) {
      publish_payload(mgr, g * 10, "gen " + std::to_string(g));
    }
  }
  EXPECT_FALSE(fs::exists(fs::path(dir.str()) / snapshot_name(3)));
  EXPECT_TRUE(fs::exists(fs::path(dir.str()) / snapshot_name(4)));
  EXPECT_TRUE(fs::exists(fs::path(dir.str()) / snapshot_name(5)));

  // A restarted manager resumes numbering past the retained snapshots.
  CheckpointManager again(CheckpointConfig{dir.str(), 2});
  EXPECT_EQ(publish_payload(again, 60, "gen 6").generation, 6u);
  EXPECT_EQ(load_payload(again), "gen 6");
}

TEST(Checkpoints, DanglingManifestFallsBackToOlderGeneration) {
  TempDir dir("ckpt_dangling");
  CheckpointManager mgr(CheckpointConfig{dir.str(), 3});
  publish_payload(mgr, 10, "gen 1");
  publish_payload(mgr, 20, "gen 2");
  fs::remove(fs::path(dir.str()) / snapshot_name(2));

  CheckpointInfo info;
  EXPECT_EQ(load_payload(mgr, &info), "gen 1");
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.wal_seq, 10u);
}

TEST(Checkpoints, CorruptSnapshotFallsBackToOlderGeneration) {
  TempDir dir("ckpt_corrupt");
  CheckpointManager mgr(CheckpointConfig{dir.str(), 3});
  publish_payload(mgr, 10, "gen 1");
  publish_payload(mgr, 20, "gen 2");

  // The payload reader rejects generation 2 (simulating a corrupt body);
  // recovery degrades to generation 1 instead of failing.
  std::string payload;
  const auto info = mgr.load_latest([&payload](std::istream& is) {
    std::ostringstream os;
    os << is.rdbuf();
    if (os.str() == "gen 2") {
      return false;
    }
    payload = os.str();
    return true;
  });
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->generation, 1u);
  EXPECT_EQ(payload, "gen 1");
}

TEST(Checkpoints, StrayOverlongSnapshotNameIsIgnored) {
  // The name's number is 2^64 + 1: read without an overflow check it is
  // generation 1, and numbering would resume past it.
  TempDir dir("ckpt_overlong");
  const fs::path stray =
      fs::path(dir.str()) / "snapshot-18446744073709551617.ckpt";
  std::ofstream(stray) << "not a snapshot\n";
  CheckpointManager mgr(CheckpointConfig{dir.str(), 3});
  EXPECT_EQ(mgr.generation(), 0u);
  EXPECT_EQ(publish_payload(mgr, 5, "gen 1").generation, 1u);
  CheckpointInfo info;
  EXPECT_EQ(load_payload(mgr, &info), "gen 1");
  EXPECT_EQ(info.generation, 1u);
  EXPECT_TRUE(fs::exists(stray));
}

// --------------------------------------------------------------- chunks --

TEST(Chunks, StrayOverlongChunkNameIsIgnored) {
  // A 20-digit index overflows int64; it must not become a chunk (nor,
  // through a wrapped index, the newest one that reopens for appends).
  TempDir dir("chunk_overlong");
  const fs::path stray =
      fs::path(dir.str()) / "chunk-99999999999999999999.jsonl";
  std::ofstream(stray) << R"({"close_hours":0.25})" << "\n";
  ChunkStoreConfig cfg{dir.str()};
  cfg.chunk_hours = 1.0;
  ChunkStore store(cfg);
  EXPECT_EQ(store.stats().chunks, 0u);
  store.append(0.5, R"({"close_hours":0.5})");
  store.flush();
  EXPECT_EQ(store.stats().chunks, 1u);
  EXPECT_EQ(store.query(0.0, 10.0).size(), 1u);
  EXPECT_TRUE(fs::exists(fs::path(dir.str()) / ChunkStore::chunk_name(0)));
}

TEST(Chunks, RoutesByTimeAndQueriesAcrossBoundaries) {
  TempDir dir("chunk_route");
  ChunkStoreConfig cfg{dir.str()};
  cfg.chunk_hours = 1.0;
  ChunkStore store(cfg);
  store.append(0.5, R"({"round":0,"close_hours":0.5})");
  store.append(1.25, R"({"round":1,"close_hours":1.25})");
  store.append(1.75, R"({"round":2,"close_hours":1.75})");
  store.append(2.5, R"({"round":3,"close_hours":2.5})");
  store.flush();

  EXPECT_EQ(store.stats().chunks, 3u);
  EXPECT_EQ(store.stats().records, 4u);

  // Window straddling a chunk boundary: per-record filtering, not
  // per-chunk.
  const std::vector<std::string> mid = store.query(1.0, 2.0);
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_NE(mid[0].find("\"round\":1"), std::string::npos);
  EXPECT_NE(mid[1].find("\"round\":2"), std::string::npos);

  const std::vector<std::string> all = store.query(0.0, 10.0);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_NE(all[0].find("\"round\":0"), std::string::npos);
  EXPECT_NE(all[3].find("\"round\":3"), std::string::npos);
}

TEST(Chunks, SealedChunkEndsWithAMatchingFooter) {
  TempDir dir("chunk_footer");
  ChunkStoreConfig cfg{dir.str()};
  cfg.chunk_hours = 1.0;
  ChunkStore store(cfg);
  store.append(0.25, R"({"round":0,"close_hours":0.25})");
  store.append(0.75, R"({"round":1,"close_hours":0.75})");
  store.append(1.5, R"({"round":2,"close_hours":1.5})");  // seals chunk 0
  store.flush();

  std::ifstream is(fs::path(dir.str()) / ChunkStore::chunk_name(0));
  std::string line;
  std::string last;
  std::size_t records = 0;
  while (std::getline(is, line)) {
    if (line.rfind(kChunkFooterMagic, 0) != 0) {
      ++records;
    }
    last = line;
  }
  EXPECT_EQ(records, 2u);
  EXPECT_EQ(last.rfind(kChunkFooterMagic, 0), 0u);
  EXPECT_NE(last.find("chunk=0 records=2"), std::string::npos);
}

TEST(Chunks, RetentionEvictsWholeChunksOldestFirst) {
  TempDir dir("chunk_retention");
  ChunkStoreConfig cfg{dir.str()};
  cfg.chunk_hours = 1.0;
  cfg.max_chunks = 2;
  ChunkStore store(cfg);
  for (int k = 0; k < 4; ++k) {
    store.append(static_cast<double>(k) + 0.5,
                 R"({"close_hours":)" + std::to_string(k) + ".5}");
  }
  store.flush();

  // Retention runs at seal time, so the open chunk rides above the
  // budget: max_chunks sealed-or-open survivors plus the newest window.
  EXPECT_EQ(store.stats().chunks, 3u);
  EXPECT_EQ(store.stats().evicted, 1u);
  EXPECT_FALSE(fs::exists(fs::path(dir.str()) / ChunkStore::chunk_name(0)));
  EXPECT_TRUE(fs::exists(fs::path(dir.str()) / ChunkStore::chunk_name(3)));
  // The evicted window is gone; the retained ones still answer, and a
  // query straddling the eviction boundary returns only survivors.
  EXPECT_TRUE(store.query(0.0, 1.0).empty());
  EXPECT_EQ(store.query(1.0, 4.0).size(), 3u);
  EXPECT_EQ(store.query(0.0, 4.0).size(), 3u);
}

TEST(Chunks, RestartReopensNewestChunkAndSealsIdempotently) {
  TempDir dir("chunk_restart");
  ChunkStoreConfig cfg{dir.str()};
  cfg.chunk_hours = 1.0;
  {
    ChunkStore store(cfg);
    store.append(0.5, R"({"close_hours":0.5})");
    store.append(1.5, R"({"close_hours":1.5})");  // chunk 0 sealed, 1 open
    store.flush();
  }
  {
    // Restart: the newest chunk reopens for appends; records keep landing
    // in the right windows.
    ChunkStore store(cfg);
    EXPECT_EQ(store.query(0.0, 10.0).size(), 2u);
    store.append(1.75, R"({"close_hours":1.75})");
    store.append(2.5, R"({"close_hours":2.5})");  // seals chunk 1 again
    store.flush();
    EXPECT_EQ(store.stats().chunks, 3u);
  }
  // Chunk 1 carries both its pre- and post-restart records and exactly
  // one footer.
  std::ifstream is(fs::path(dir.str()) / ChunkStore::chunk_name(1));
  std::string line;
  std::size_t records = 0;
  std::size_t footers = 0;
  while (std::getline(is, line)) {
    if (line.rfind(kChunkFooterMagic, 0) == 0) {
      ++footers;
    } else {
      ++records;
    }
  }
  EXPECT_EQ(records, 2u);
  EXPECT_EQ(footers, 1u);
}

// -------------------------------------------------------------- manager --

TEST(StorageManager, RecoveryScanOutstandingAndCompaction) {
  TempDir dir("mgr_recovery");
  {
    StorageManager storage(StorageConfig{dir.str()});
    storage.wal().append(accepted_record(100, 0.1, 2.0));
    storage.wal().append(accepted_record(101, 0.2, 2.0));
    storage.wal().append(
        terminal_record(100, WalRecordType::kDispatched, 0.5));
    storage.wal().sync();
  }
  // "Restart": a fresh manager scans the previous incarnation's log.
  StorageManager storage(StorageConfig{dir.str()});
  EXPECT_EQ(storage.recovery_scan().records.size(), 3u);
  const std::vector<WalRecord> open = storage.outstanding();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].task_id, 101u);

  // Replay + compaction: the re-appended acceptance supersedes the old
  // segments, which are removed.
  storage.wal().append(open[0]);
  storage.wal().sync();
  storage.compact_after_recovery();
  EXPECT_FALSE(
      fs::exists(fs::path(dir.str()) / "wal" / wal_segment_name(1)));
  const WalScanResult after =
      scan_wal((fs::path(dir.str()) / "wal").string(), false);
  ASSERT_EQ(after.records.size(), 1u);
  EXPECT_EQ(after.records[0].task_id, 101u);
  EXPECT_EQ(after.records[0].seq, 4u);  // sequence continues, not restarts
}

}  // namespace
}  // namespace mfcp::storage
