#include "storage/storage.hpp"

#include <filesystem>

#include "support/check.hpp"

namespace mfcp::storage {

namespace fs = std::filesystem;

namespace {

WalConfig make_wal_config(const StorageConfig& config,
                          const WalScanResult& scan) {
  WalConfig wal;
  wal.dir = (fs::path(config.dir) / "wal").string();
  wal.fsync_every = StorageConfig::wal_fsync_every;
  wal.start_seq = scan.last_seq + 1;
  wal.start_segment = scan.next_segment;
  return wal;
}

CheckpointConfig make_checkpoint_config(const StorageConfig& config) {
  CheckpointConfig ckpt;
  ckpt.dir = (fs::path(config.dir) / "checkpoints").string();
  return ckpt;
}

ChunkStoreConfig make_chunk_config(const StorageConfig& config) {
  ChunkStoreConfig chunk;
  chunk.dir = (fs::path(config.dir) / "journal").string();
  return chunk;
}

StorageConfig checked(StorageConfig config) {
  MFCP_CHECK(!config.dir.empty(), "storage needs a data directory");
  return config;
}

}  // namespace

StorageManager::StorageManager(StorageConfig config)
    : config_(checked(std::move(config))),
      scan_(scan_wal((fs::path(config_.dir) / "wal").string(),
                     /*truncate_torn_tail=*/true)),
      wal_(std::make_unique<TaskWal>(make_wal_config(config_, scan_))),
      checkpoints_(make_checkpoint_config(config_)),
      journal_(make_chunk_config(config_)) {}

void StorageManager::compact_after_recovery() {
  // The fresh log (opened at scan_.next_segment) now re-carries every
  // still-live acceptance, so the scanned segments are fully superseded.
  std::error_code ec;
  const fs::path dir = fs::path(config_.dir) / "wal";
  for (std::uint32_t s = 1; s <= scan_.last_segment; ++s) {
    fs::remove(dir / wal_segment_name(s), ec);
  }
}

void StorageManager::note_recovered(std::uint64_t replayed,
                                    std::uint64_t terminal) {
  recovered_tasks_.store(replayed, std::memory_order_relaxed);
  recovered_terminal_.store(terminal, std::memory_order_relaxed);
  if (recovered_counter_ != nullptr) {
    recovered_counter_->add(replayed);
  }
}

StorageStatus StorageManager::status() const {
  StorageStatus s;
  const TaskWal::Stats wal = wal_->stats();
  s.wal_records = wal.records;
  s.wal_bytes = wal.bytes;
  s.wal_fsyncs = wal.fsyncs;
  s.wal_segments = wal.segments;
  s.wal_last_seq = wal.last_seq;
  s.recovered_tasks = recovered_tasks_.load(std::memory_order_relaxed);
  s.recovered_terminal =
      recovered_terminal_.load(std::memory_order_relaxed);
  s.truncated_bytes = scan_.truncated_bytes;
  s.checkpoints = checkpoints_.published_total();
  s.checkpoint_generation = checkpoints_.generation();
  const ChunkStore::Stats chunk = journal_.stats();
  s.chunks = chunk.chunks;
  s.chunk_records = chunk.records;
  s.chunk_bytes = chunk.bytes;
  s.chunks_evicted = chunk.evicted;
  return s;
}

void StorageManager::bind_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  wal_->bind_metrics(&registry->counter("mfcp_storage_wal_bytes_total"),
                     &registry->counter("mfcp_storage_wal_fsyncs_total"));
  recovered_counter_ =
      &registry->counter("mfcp_storage_recovered_tasks_total");
  journal_.bind_metrics(&registry->counter("mfcp_storage_chunks_total"));
  checkpoints_.bind_metrics(
      &registry->counter("mfcp_storage_checkpoints_total"));
}

}  // namespace mfcp::storage
