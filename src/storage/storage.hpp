// StorageManager: the durability layer behind --data-dir, owning the
// three on-disk components under one directory:
//
//   <data-dir>/wal/          task WAL segments        (storage/wal.hpp)
//   <data-dir>/checkpoints/  snapshots + MANIFEST     (checkpoint_manager)
//   <data-dir>/journal/      time-chunked JSONL store (chunk_store)
//
// Construction scans the WAL (truncating any torn tail) and caches the
// result; the engine's recover() then consumes `outstanding()` to replay
// acked-but-unterminal tasks, re-appends them to the fresh log, and calls
// compact_after_recovery() to drop the superseded segments — so the WAL
// is bounded by one process lifetime, not the platform's.
//
// Everything here is write-only from the engine's perspective: with
// storage attached the round journal, decisions, and metrics are
// byte-identical to a storage-free run (recovery aside, which by design
// injects the replayed arrivals).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "storage/checkpoint_manager.hpp"
#include "storage/chunk_store.hpp"
#include "storage/wal.hpp"

namespace mfcp::storage {

struct StorageConfig {
  std::string dir;  // data directory root (created if missing)
  // Fixed cadences, not settable: the WAL's group commit (see WalConfig)
  // and the engine rounds between checkpoint publishes (a final
  // checkpoint also lands at shutdown). Named like fields because
  // perfbench reads them as `StorageConfig{}.wal_fsync_every`. The
  // components' other knobs keep their own config defaults.
  static constexpr std::size_t wal_fsync_every = 32;
  static constexpr std::size_t checkpoint_every_rounds = 64;
};

/// Point-in-time storage state for /debug/storage and shutdown prints.
struct StorageStatus {
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t wal_segments = 0;
  std::uint64_t wal_last_seq = 0;
  std::uint64_t recovered_tasks = 0;     // replayed unterminal tasks
  std::uint64_t recovered_terminal = 0;  // WAL-witnessed terminal tasks
  std::uint64_t truncated_bytes = 0;     // torn tail dropped at startup
  std::uint64_t checkpoints = 0;         // published this process
  std::uint64_t checkpoint_generation = 0;
  std::uint64_t chunks = 0;
  std::uint64_t chunk_records = 0;
  std::uint64_t chunk_bytes = 0;
  std::uint64_t chunks_evicted = 0;
};

class StorageManager {
 public:
  explicit StorageManager(StorageConfig config);

  [[nodiscard]] TaskWal& wal() noexcept { return *wal_; }
  [[nodiscard]] CheckpointManager& checkpoints() noexcept {
    return checkpoints_;
  }
  [[nodiscard]] ChunkStore& journal() noexcept { return journal_; }
  [[nodiscard]] const ChunkStore& journal() const noexcept {
    return journal_;
  }

  /// The startup scan (already torn-tail-truncated).
  [[nodiscard]] const WalScanResult& recovery_scan() const noexcept {
    return scan_;
  }
  /// Acked-but-unterminal tasks from the startup scan, acceptance order.
  [[nodiscard]] std::vector<WalRecord> outstanding() const {
    return outstanding_tasks(scan_);
  }

  /// Called by the engine once replayed tasks are re-appended to the
  /// fresh log: deletes the pre-restart segments the scan covered.
  void compact_after_recovery();

  /// Recovery bookkeeping for /stats, /debug/storage, and metrics.
  void note_recovered(std::uint64_t replayed, std::uint64_t terminal);

  [[nodiscard]] StorageStatus status() const;

  /// Registers the mfcp_storage_* counters and wires them through the
  /// components (safe to skip: null-counter writes are no-ops).
  void bind_metrics(obs::MetricsRegistry* registry);

  [[nodiscard]] const StorageConfig& config() const noexcept {
    return config_;
  }

 private:
  StorageConfig config_;
  WalScanResult scan_;
  std::unique_ptr<TaskWal> wal_;
  CheckpointManager checkpoints_;
  ChunkStore journal_;
  std::atomic<std::uint64_t> recovered_tasks_{0};
  std::atomic<std::uint64_t> recovered_terminal_{0};
  obs::Counter* recovered_counter_ = nullptr;
};

}  // namespace mfcp::storage
