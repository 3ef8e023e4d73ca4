// Time-partitioned on-disk store for round-journal records and task
// traces: JSONL lines routed into fixed sim-time-width chunks.
//
// Layout: chunk-<k>.jsonl holds every record whose timestamp falls in
// [k * chunk_hours, (k+1) * chunk_hours). Record timestamps are
// nondecreasing (the engine's simulated clock), so at most one chunk is
// ever open for appends; when time crosses into the next window the open
// chunk is sealed with an index footer line
//
//   #mfcp-chunk-index v1 chunk=<k> records=<n> min_hours=<a>
//       max_hours=<b> payload_bytes=<c>         (one line on disk)
//
// and the next chunk opens. Retention evicts whole chunks, oldest first,
// past a chunk-count budget — dropping a chunk loses a bounded, known
// time window, never a record in the middle of one.
//
// Chunk ids derive from absolute simulated time, so a restarted process
// (whose clock resumes from the recovered checkpoint) lands back in the
// right chunk; the newest chunk's footer is stripped on reopen and
// re-appended at the next seal, making sealing idempotent across
// restarts. Queries (GET /journal?from=&to=) read the chunk files
// overlapping the window and filter per record on the timestamp field
// embedded in the line — exact across chunk boundaries and restarts.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace mfcp::storage {

struct ChunkStoreConfig {
  std::string dir;           // created if missing
  double chunk_hours = 1.0;  // fixed sim-time width per chunk
  /// Retention: evict oldest chunks past this many on disk (0 = keep
  /// all). The open chunk is never evicted.
  std::size_t max_chunks = 64;
};

inline constexpr const char* kChunkFooterMagic = "#mfcp-chunk-index v1";

class ChunkStore {
 public:
  explicit ChunkStore(ChunkStoreConfig config);
  ~ChunkStore();
  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  /// Appends one JSONL record (no trailing newline) stamped at `hours`.
  /// Timestamps must be nondecreasing across calls. Thread-safe.
  void append(double hours, std::string_view jsonl_line);

  /// Every stored record with close_hours in [from_hours, to_hours],
  /// oldest first, across chunk boundaries. Records in evicted chunks
  /// are gone (bounded retention is the contract, see above).
  [[nodiscard]] std::vector<std::string> query(double from_hours,
                                               double to_hours) const;

  /// Flushes the open chunk's buffered writes to its file.
  void flush();

  struct Stats {
    std::uint64_t chunks = 0;    // on disk now (sealed + open)
    std::uint64_t sealed = 0;    // sealed by this instance
    std::uint64_t evicted = 0;   // evicted by this instance
    std::uint64_t records = 0;   // appended by this instance
    std::uint64_t bytes = 0;     // payload bytes on disk now
    std::int64_t open_chunk = -1;  // id of the open chunk (-1 = none)
  };
  [[nodiscard]] Stats stats() const;

  void bind_metrics(obs::Counter* chunks) noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    chunks_counter_ = chunks;
  }

  [[nodiscard]] const ChunkStoreConfig& config() const noexcept {
    return config_;
  }

  /// Chunk filename for id `k` (chunk-%08lld.jsonl).
  [[nodiscard]] static std::string chunk_name(std::int64_t k);

 private:
  struct ChunkMeta {
    std::uint64_t records = 0;
    std::uint64_t payload_bytes = 0;
    double min_hours = 0.0;
    double max_hours = 0.0;
    bool sealed = false;
  };

  [[nodiscard]] std::int64_t chunk_id(double hours) const noexcept;
  [[nodiscard]] std::string chunk_path(std::int64_t k) const;
  void open_chunk_locked(std::int64_t k);
  void seal_chunk_locked();
  void enforce_retention_locked();
  /// Extracts the close_hours value from a JSONL line; false if absent.
  [[nodiscard]] bool line_hours(std::string_view line,
                                double& hours) const;

  ChunkStoreConfig config_;
  mutable std::mutex mutex_;
  std::map<std::int64_t, ChunkMeta> chunks_;  // ordered: oldest first
  std::int64_t open_chunk_ = -1;
  int fd_ = -1;
  std::uint64_t sealed_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t appended_ = 0;
  obs::Counter* chunks_counter_ = nullptr;
};

}  // namespace mfcp::storage
