#include "storage/chunk_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "support/check.hpp"
#include "support/log.hpp"
#include "support/signal_safe.hpp"

namespace mfcp::storage {

namespace fs = std::filesystem;

namespace {

/// The JSON key whose numeric value timestamps a record: queries filter
/// on it per record, and a restart rebuilds footers from it.
constexpr std::string_view kTimeKey = "\"close_hours\":";

/// Parses "chunk-%08lld.jsonl"; returns false for anything else.
bool parse_chunk_name(const std::string& name, std::int64_t& k) {
  if (name.rfind("chunk-", 0) != 0 || name.size() < 13 ||
      name.compare(name.size() - 6, 6, ".jsonl") != 0) {
    return false;
  }
  // A signed decimal index; out-of-range digit strings fail the parse.
  const char* last = name.data() + name.size() - 6;
  const auto [ptr, ec] = std::from_chars(name.data() + 6, last, k);
  return ec == std::errc{} && ptr == last;
}

}  // namespace

std::string ChunkStore::chunk_name(std::int64_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "chunk-%08lld.jsonl",
                static_cast<long long>(k));
  return buf;
}

std::int64_t ChunkStore::chunk_id(double hours) const noexcept {
  return static_cast<std::int64_t>(
      std::floor(hours / config_.chunk_hours));
}

std::string ChunkStore::chunk_path(std::int64_t k) const {
  return (fs::path(config_.dir) / chunk_name(k)).string();
}

bool ChunkStore::line_hours(std::string_view line, double& hours) const {
  const std::size_t pos = line.find(kTimeKey);
  if (pos == std::string_view::npos) {
    return false;
  }
  // The value is a bare JSON number; strtod stops at the delimiter.
  char buf[64];
  const std::size_t start = pos + kTimeKey.size();
  const std::size_t n = std::min(line.size() - start, sizeof(buf) - 1);
  std::memcpy(buf, line.data() + start, n);
  buf[n] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end == buf) {
    return false;
  }
  hours = v;
  return true;
}

ChunkStore::ChunkStore(ChunkStoreConfig config)
    : config_(std::move(config)) {
  MFCP_CHECK(!config_.dir.empty(), "chunk store needs a directory");
  MFCP_CHECK(config_.chunk_hours > 0.0, "chunk width must be positive");
  fs::create_directories(config_.dir);

  // Rebuild chunk metadata from disk: sealed chunks are summarized by
  // their footers in principle, but a full line scan is cheap at startup
  // and also recovers chunks whose footer never landed.
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(config_.dir, ec)) {
    std::int64_t k = 0;
    if (!parse_chunk_name(entry.path().filename().string(), k)) {
      continue;
    }
    ChunkMeta meta;
    std::ifstream is(entry.path());
    std::string line;
    while (std::getline(is, line)) {
      if (line.rfind(kChunkFooterMagic, 0) == 0) {
        meta.sealed = true;
        continue;  // footer carries no payload
      }
      double h = 0.0;
      if (line_hours(line, h)) {
        meta.min_hours = meta.records == 0 ? h : std::min(meta.min_hours, h);
        meta.max_hours = meta.records == 0 ? h : std::max(meta.max_hours, h);
      }
      ++meta.records;
      meta.payload_bytes += line.size() + 1;
    }
    chunks_[k] = meta;
  }
  // The newest chunk reopens for appends: strip its footer (sealing is
  // re-done, idempotently, at the next window crossing).
  if (!chunks_.empty()) {
    const std::int64_t newest = chunks_.rbegin()->first;
    ChunkMeta& meta = chunks_[newest];
    if (meta.sealed) {
      fs::resize_file(chunk_path(newest), meta.payload_bytes, ec);
      meta.sealed = false;
    }
    open_chunk_ = newest;
  }
}

ChunkStore::~ChunkStore() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ChunkStore::open_chunk_locked(std::int64_t k) {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  const std::string path = chunk_path(k);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  MFCP_CHECK(fd_ >= 0, "cannot open journal chunk " + path);
  open_chunk_ = k;
  if (chunks_.emplace(k, ChunkMeta{}).second && chunks_counter_ != nullptr) {
    chunks_counter_->add(1);
  }
}

void ChunkStore::seal_chunk_locked() {
  if (open_chunk_ < 0) {
    return;
  }
  ChunkMeta& meta = chunks_[open_chunk_];
  char footer[192];
  const int n = std::snprintf(
      footer, sizeof(footer),
      "%s chunk=%lld records=%llu min_hours=%.17g max_hours=%.17g "
      "payload_bytes=%llu\n",
      kChunkFooterMagic, static_cast<long long>(open_chunk_),
      static_cast<unsigned long long>(meta.records), meta.min_hours,
      meta.max_hours, static_cast<unsigned long long>(meta.payload_bytes));
  if (fd_ < 0) {
    open_chunk_locked(open_chunk_);
  }
  MFCP_CHECK(support::write_all_fd(fd_, footer, static_cast<std::size_t>(n)),
             "journal chunk seal failed");
  ::close(fd_);
  fd_ = -1;
  meta.sealed = true;
  ++sealed_;
  open_chunk_ = -1;
}

void ChunkStore::enforce_retention_locked() {
  std::error_code ec;
  while (config_.max_chunks > 0 && chunks_.size() > config_.max_chunks) {
    const std::int64_t oldest = chunks_.begin()->first;
    if (oldest == open_chunk_) {
      return;  // never evict the chunk still receiving appends
    }
    fs::remove(chunk_path(oldest), ec);
    chunks_.erase(chunks_.begin());
    ++evicted_;
  }
}

void ChunkStore::append(double hours, std::string_view jsonl_line) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Clamp to the open chunk if the clock ever reads behind it (appends
  // are nondecreasing by contract; the clamp keeps a stray reading from
  // reopening a sealed window).
  const std::int64_t k = open_chunk_ < 0
                             ? chunk_id(hours)
                             : std::max(chunk_id(hours), open_chunk_);
  if (k != open_chunk_ || fd_ < 0) {
    if (open_chunk_ >= 0 && k != open_chunk_) {
      seal_chunk_locked();
      enforce_retention_locked();
    }
    open_chunk_locked(k);
  }
  std::string line(jsonl_line);
  line.push_back('\n');
  MFCP_CHECK(support::write_all_fd(fd_, line.data(), line.size()),
             "journal chunk append failed");
  ChunkMeta& meta = chunks_[k];
  meta.min_hours = meta.records == 0 ? hours : std::min(meta.min_hours, hours);
  meta.max_hours = meta.records == 0 ? hours : std::max(meta.max_hours, hours);
  ++meta.records;
  meta.payload_bytes += line.size();
  ++appended_;
}

std::vector<std::string> ChunkStore::query(double from_hours,
                                           double to_hours) const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [k, meta] : chunks_) {
    const double lo = static_cast<double>(k) * config_.chunk_hours;
    const double hi = lo + config_.chunk_hours;
    if (hi < from_hours || lo > to_hours) {
      continue;
    }
    std::ifstream is(chunk_path(k));
    std::string line;
    while (std::getline(is, line)) {
      if (line.rfind(kChunkFooterMagic, 0) == 0) {
        continue;
      }
      double h = 0.0;
      // Records without the timestamp field pass the chunk-level filter
      // only (conservative: better a spare record than a missing one).
      if (line_hours(line, h) && (h < from_hours || h > to_hours)) {
        continue;
      }
      out.push_back(line);
    }
  }
  return out;
}

void ChunkStore::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    ::fsync(fd_);
  }
}

ChunkStore::Stats ChunkStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.chunks = chunks_.size();
  s.sealed = sealed_;
  s.evicted = evicted_;
  s.records = appended_;
  for (const auto& [k, meta] : chunks_) {
    s.bytes += meta.payload_bytes;
  }
  s.open_chunk = open_chunk_;
  return s;
}

}  // namespace mfcp::storage
