#include "storage/checkpoint_manager.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "net/http.hpp"
#include "support/check.hpp"
#include "support/log.hpp"

namespace mfcp::storage {

namespace fs = std::filesystem;

namespace {

/// fsync a path (file or directory) so a rename's metadata is durable.
void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  MFCP_CHECK(fd >= 0, "cannot open " + path + " to fsync it");
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  MFCP_CHECK(synced, "fsync failed for " + path);
}

/// Parses "snapshot-%08llu.ckpt"; returns false for anything else.
bool parse_snapshot_name(const std::string& name, std::uint64_t& gen) {
  if (name.size() < 14 || name.rfind("snapshot-", 0) != 0 ||
      name.compare(name.size() - 5, 5, ".ckpt") != 0) {
    return false;
  }
  const std::optional<std::uint64_t> v =
      net::parse_u64(std::string_view(name).substr(9, name.size() - 14));
  if (!v.has_value()) {
    return false;
  }
  gen = *v;
  return true;
}

/// Reads the wrapper header off an open snapshot stream; false on any
/// mismatch (the payload reader never sees a bad wrapper).
bool read_snapshot_header(std::istream& is, std::uint64_t& wal_seq) {
  std::string magic;
  if (!std::getline(is, magic) || magic != kSnapshotMagic) {
    return false;
  }
  std::string key;
  return static_cast<bool>(is >> key >> wal_seq) && key == "wal_seq" &&
         is.get() == '\n';
}

}  // namespace

std::string snapshot_name(std::uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snapshot-%08llu.ckpt",
                static_cast<unsigned long long>(generation));
  return buf;
}

CheckpointManager::CheckpointManager(CheckpointConfig config)
    : config_(std::move(config)) {
  MFCP_CHECK(!config_.dir.empty(), "checkpoint manager needs a directory");
  MFCP_CHECK(config_.retain >= 1, "must retain at least one generation");
  fs::create_directories(config_.dir);
  // Resume generation numbering past whatever is already on disk, so a
  // restarted process never overwrites a retained snapshot.
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(config_.dir, ec)) {
    std::uint64_t gen = 0;
    if (parse_snapshot_name(entry.path().filename().string(), gen)) {
      generation_ = std::max(generation_, gen);
    }
  }
}

CheckpointInfo CheckpointManager::publish(
    std::uint64_t wal_seq, const std::function<void(std::ostream&)>& write) {
  CheckpointInfo info;
  info.generation = generation_ + 1;
  info.wal_seq = wal_seq;
  info.snapshot_path =
      (fs::path(config_.dir) / snapshot_name(info.generation)).string();
  const std::string tmp = info.snapshot_path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    MFCP_CHECK(os.good(), "cannot write checkpoint tmp " + tmp);
    os << kSnapshotMagic << "\n"
       << "wal_seq " << wal_seq << "\n";
    write(os);
    os.flush();
    MFCP_CHECK(os.good(), "checkpoint payload write failed for " + tmp);
  }
  fsync_path(tmp);
  fs::rename(tmp, info.snapshot_path);
  fsync_path(config_.dir);

  const std::string manifest = (fs::path(config_.dir) / "MANIFEST").string();
  const std::string manifest_tmp = manifest + ".tmp";
  {
    std::ofstream os(manifest_tmp, std::ios::trunc);
    MFCP_CHECK(os.good(), "cannot write manifest tmp " + manifest_tmp);
    os << kManifestMagic << "\n"
       << "generation " << info.generation << "\n"
       << "snapshot " << snapshot_name(info.generation) << "\n"
       << "wal_seq " << wal_seq << "\n";
    os.flush();
    MFCP_CHECK(os.good(), "manifest write failed for " + manifest_tmp);
  }
  fsync_path(manifest_tmp);
  fs::rename(manifest_tmp, manifest);
  fsync_path(config_.dir);

  generation_ = info.generation;
  ++published_;
  if (checkpoints_counter_ != nullptr) {
    checkpoints_counter_->add(1);
  }
  prune();
  return info;
}

void CheckpointManager::prune() const {
  std::error_code ec;
  std::vector<std::uint64_t> gens;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(config_.dir, ec)) {
    std::uint64_t gen = 0;
    if (parse_snapshot_name(entry.path().filename().string(), gen)) {
      gens.push_back(gen);
    }
  }
  std::sort(gens.begin(), gens.end());
  while (gens.size() > config_.retain) {
    fs::remove(fs::path(config_.dir) / snapshot_name(gens.front()), ec);
    gens.erase(gens.begin());
  }
}

std::optional<CheckpointInfo> CheckpointManager::load_latest(
    const std::function<bool(std::istream&)>& read) const {
  // Candidate order: the manifest's generation first (the published
  // truth), then every on-disk generation newest-first as fallback.
  std::vector<std::uint64_t> candidates;
  const std::string manifest = (fs::path(config_.dir) / "MANIFEST").string();
  {
    std::ifstream is(manifest);
    std::string magic;
    if (is.good() && std::getline(is, magic) && magic == kManifestMagic) {
      std::string key;
      std::uint64_t gen = 0;
      if (is >> key >> gen && key == "generation") {
        candidates.push_back(gen);
      }
    }
  }
  std::error_code ec;
  std::vector<std::uint64_t> on_disk;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(config_.dir, ec)) {
    std::uint64_t gen = 0;
    if (parse_snapshot_name(entry.path().filename().string(), gen)) {
      on_disk.push_back(gen);
    }
  }
  std::sort(on_disk.rbegin(), on_disk.rend());
  for (const std::uint64_t gen : on_disk) {
    if (candidates.empty() || gen != candidates.front()) {
      candidates.push_back(gen);
    }
  }

  for (const std::uint64_t gen : candidates) {
    CheckpointInfo info;
    info.generation = gen;
    info.snapshot_path =
        (fs::path(config_.dir) / snapshot_name(gen)).string();
    std::ifstream is(info.snapshot_path);
    if (!is.good() || !read_snapshot_header(is, info.wal_seq)) {
      MFCP_LOG(kWarn) << "checkpoint: generation " << gen
                      << " missing or bad header, trying older";
      continue;
    }
    try {
      if (read(is)) {
        return info;
      }
    } catch (const std::exception& e) {
      MFCP_LOG(kWarn) << "checkpoint: generation " << gen
                      << " rejected (" << e.what() << "), trying older";
    }
  }
  return std::nullopt;
}

}  // namespace mfcp::storage
