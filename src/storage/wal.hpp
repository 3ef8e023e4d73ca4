// Write-ahead task log: the durability half of the /submit contract.
//
// Every task lifecycle transition (accepted / dispatched / expired /
// rejected) is appended as one length+CRC32-framed binary record *before*
// the effect becomes externally visible — for accepted records, before the
// gateway's 200 goes out. On restart, replaying the log and subtracting
// terminal records yields exactly the set of acked-but-unfinished tasks,
// which the engine pushes back into the admission queue so a SIGKILL never
// voids an acknowledgement.
//
// Frame format (little-endian, fixed 49-byte payload):
//
//   ┌──────────┬──────────┬─────────────────────────────────────────┐
//   │ len u32  │ crc u32  │ payload (len bytes)                     │
//   └──────────┴──────────┴─────────────────────────────────────────┘
//   payload:  type u8 | seq u64 | task_id u64 | hours f64 |
//             deadline_hours f64 | family u8 | dataset u8 |
//             depth u16 | width u16 | batch u16 | dataset_fraction f64
//
// The CRC (IEEE 802.3, reflected) covers the payload only. A torn tail —
// a partial frame at the end of the newest segment, the signature of a
// crash mid-write — is truncated at the first bad frame and never fatal;
// a bad frame anywhere else is reported as corruption but still only ends
// that segment's scan.
//
// Appends go straight to the segment fd with one write() per frame, so a
// SIGKILL loses nothing that was acked; fsync runs every `fsync_every`
// records (group commit) to bound what a *machine* crash can lose without
// putting a disk flush on every submit.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/task.hpp"

namespace mfcp::storage {

/// Task lifecycle record kinds. kAccepted carries the full descriptor;
/// terminal kinds only need the id (matching is by id, not order — the
/// gateway thread may append accepted slightly after the engine's
/// terminal record for the same task).
enum class WalRecordType : std::uint8_t {
  kAccepted = 1,
  kDispatched = 2,
  kExpired = 3,
  kRejected = 4,
};

[[nodiscard]] bool is_terminal(WalRecordType type) noexcept;

/// One framed log record. `seq` is assigned by TaskWal::append and is
/// strictly monotone across segments.
struct WalRecord {
  WalRecordType type = WalRecordType::kAccepted;
  std::uint64_t seq = 0;
  std::uint64_t task_id = 0;
  double hours = 0.0;           // event time on the simulated clock
  double deadline_hours = 0.0;  // absolute deadline (accepted records)
  sim::TaskDescriptor task;     // meaningful for accepted records only
};

/// Fixed encoded payload size (see the frame diagram above).
inline constexpr std::size_t kWalPayloadBytes = 49;
/// Frame header: length + CRC.
inline constexpr std::size_t kWalHeaderBytes = 8;

/// IEEE 802.3 CRC32 (reflected, init/final 0xFFFFFFFF) over `n` bytes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n) noexcept;

/// Encodes `rec` into `out` (exactly kWalPayloadBytes).
void encode_wal_payload(const WalRecord& rec,
                        unsigned char out[kWalPayloadBytes]) noexcept;
/// Decodes a payload; returns false when the type byte is unknown.
[[nodiscard]] bool decode_wal_payload(const unsigned char* data,
                                      std::size_t n, WalRecord& out) noexcept;

struct WalConfig {
  std::string dir;  // segment directory (created if missing)
  /// Rotate to a new segment once the current one passes this size.
  std::size_t segment_bytes = 4u << 20;
  /// Group commit: fsync after every N appended records. 1 = sync every
  /// record (strongest), 0 = never fsync (the OS page cache still makes
  /// appends SIGKILL-safe; only a machine crash can lose them).
  std::size_t fsync_every = 32;
  /// First sequence number to assign and first segment index to write —
  /// recovery hands these in so the log continues where the scan ended.
  std::uint64_t start_seq = 1;
  std::uint32_t start_segment = 1;
};

/// Append side of the WAL. Thread-safe: the gateway's HTTP workers append
/// accepted records while the engine thread appends terminal ones.
class TaskWal {
 public:
  explicit TaskWal(WalConfig config);
  ~TaskWal();
  TaskWal(const TaskWal&) = delete;
  TaskWal& operator=(const TaskWal&) = delete;

  /// Appends one record (seq is assigned here) and returns its sequence
  /// number. The frame is written to the segment before returning; fsync
  /// runs when the group-commit cadence is due.
  std::uint64_t append(WalRecord rec);

  /// Forces an fsync of the current segment.
  void sync();

  struct Stats {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t segments = 0;  // segments opened by this instance
    std::uint64_t last_seq = 0;  // 0 until the first append
  };
  [[nodiscard]] Stats stats() const;

  /// Optional telemetry: appended bytes and fsyncs as monotone counters.
  void bind_metrics(obs::Counter* bytes, obs::Counter* fsyncs) noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    bytes_counter_ = bytes;
    fsync_counter_ = fsyncs;
  }

 private:
  void open_segment_locked();
  void sync_locked();

  WalConfig config_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  std::uint32_t segment_index_ = 0;
  std::size_t segment_written_ = 0;
  std::size_t unsynced_ = 0;  // records since the last fsync
  std::uint64_t next_seq_ = 1;
  Stats stats_;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* fsync_counter_ = nullptr;
};

/// Result of scanning every segment in a WAL directory, oldest first.
struct WalScanResult {
  std::vector<WalRecord> records;    // every valid record, log order
  std::uint64_t last_seq = 0;        // highest sequence seen
  std::uint32_t last_segment = 0;    // highest segment index present
  std::uint32_t next_segment = 1;    // where a fresh TaskWal should write
  std::uint64_t valid_bytes = 0;     // bytes covered by valid frames
  std::uint64_t truncated_bytes = 0; // torn tail dropped from the newest
  std::uint64_t corrupt_frames = 0;  // bad frames before a segment's end
  bool torn_tail = false;            // the newest segment ended mid-frame
};

/// Scans `dir`'s wal-*.log segments in index order, validating every
/// frame (length bounds, CRC, known type). A bad frame ends that
/// segment's scan; in the newest segment it is a torn tail and — when
/// `truncate_torn_tail` — the file is truncated back to the last valid
/// frame so the next scan is clean. Missing directory = empty log.
[[nodiscard]] WalScanResult scan_wal(const std::string& dir,
                                     bool truncate_torn_tail);

/// The acked-but-unterminal task set: accepted records with no matching
/// dispatched/expired/rejected record, in acceptance order. These are
/// exactly the tasks recovery must replay into the admission queue.
[[nodiscard]] std::vector<WalRecord> outstanding_tasks(
    const WalScanResult& scan);

/// Segment filename for index `i` (wal-%08u.log).
[[nodiscard]] std::string wal_segment_name(std::uint32_t index);

}  // namespace mfcp::storage
