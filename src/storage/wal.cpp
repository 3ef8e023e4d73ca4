#include "storage/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>

#include "support/check.hpp"
#include "support/log.hpp"
#include "support/signal_safe.hpp"

namespace mfcp::storage {

namespace fs = std::filesystem;

namespace {

// Little-endian scalar packing: the frame format is defined in bytes, not
// in host memory layout, so the log (and obs_selfcheck's independent
// parser) reads identically everywhere.
void put_u16(unsigned char* p, std::uint16_t v) noexcept {
  p[0] = static_cast<unsigned char>(v & 0xff);
  p[1] = static_cast<unsigned char>(v >> 8);
}

void put_u32(unsigned char* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
  }
}

void put_u64(unsigned char* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
  }
}

void put_f64(unsigned char* p, double v) noexcept {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(p, bits);
}

std::uint16_t get_u16(const unsigned char* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

std::uint64_t get_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

double get_f64(const unsigned char* p) noexcept {
  const std::uint64_t bits = get_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Parses "wal-%08u.log"; returns false for anything else.
bool parse_segment_name(const std::string& name, std::uint32_t& index) {
  if (name.size() != 16 || name.rfind("wal-", 0) != 0 ||
      name.compare(12, 4, ".log") != 0) {
    return false;
  }
  std::uint32_t v = 0;
  for (std::size_t i = 4; i < 12; ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return false;
    }
    v = v * 10 + static_cast<std::uint32_t>(name[i] - '0');
  }
  index = v;
  return true;
}

}  // namespace

bool is_terminal(WalRecordType type) noexcept {
  return type == WalRecordType::kDispatched ||
         type == WalRecordType::kExpired || type == WalRecordType::kRejected;
}

std::uint32_t crc32(const void* data, std::size_t n) noexcept {
  // IEEE 802.3 reflected polynomial, nibble-at-a-time (small table, no
  // startup cost worth caching).
  static constexpr std::uint32_t kNibble[16] = {
      0x00000000u, 0x1db71064u, 0x3b6e20c8u, 0x26d930acu,
      0x76dc4190u, 0x6b6b51f4u, 0x4db26158u, 0x5005713cu,
      0xedb88320u, 0xf00f9344u, 0xd6d6a3e8u, 0xcb61b38cu,
      0x9b64c2b0u, 0x86d3d2d4u, 0xa00ae278u, 0xbdbdf21cu};
  std::uint32_t crc = 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    crc = (crc >> 4) ^ kNibble[crc & 0x0f];
    crc = (crc >> 4) ^ kNibble[crc & 0x0f];
  }
  return crc ^ 0xffffffffu;
}

void encode_wal_payload(const WalRecord& rec,
                        unsigned char out[kWalPayloadBytes]) noexcept {
  out[0] = static_cast<unsigned char>(rec.type);
  put_u64(out + 1, rec.seq);
  put_u64(out + 9, rec.task_id);
  put_f64(out + 17, rec.hours);
  put_f64(out + 25, rec.deadline_hours);
  out[33] = static_cast<unsigned char>(static_cast<int>(rec.task.family));
  out[34] = static_cast<unsigned char>(static_cast<int>(rec.task.dataset));
  put_u16(out + 35, static_cast<std::uint16_t>(rec.task.depth));
  put_u16(out + 37, static_cast<std::uint16_t>(rec.task.width));
  put_u16(out + 39, static_cast<std::uint16_t>(rec.task.batch_size));
  put_f64(out + 41, rec.task.dataset_fraction);
}

bool decode_wal_payload(const unsigned char* data, std::size_t n,
                        WalRecord& out) noexcept {
  if (n != kWalPayloadBytes || data[0] < 1 || data[0] > 4) {
    return false;
  }
  out.type = static_cast<WalRecordType>(data[0]);
  out.seq = get_u64(data + 1);
  out.task_id = get_u64(data + 9);
  out.hours = get_f64(data + 17);
  out.deadline_hours = get_f64(data + 25);
  out.task.family = static_cast<sim::TaskFamily>(data[33]);
  out.task.dataset = static_cast<sim::DatasetKind>(data[34]);
  out.task.depth = get_u16(data + 35);
  out.task.width = get_u16(data + 37);
  out.task.batch_size = get_u16(data + 39);
  out.task.dataset_fraction = get_f64(data + 41);
  return true;
}

std::string wal_segment_name(std::uint32_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "wal-%08u.log", index);
  return buf;
}

// ------------------------------------------------------------ TaskWal ---

TaskWal::TaskWal(WalConfig config) : config_(std::move(config)) {
  MFCP_CHECK(!config_.dir.empty(), "WAL needs a directory");
  MFCP_CHECK(config_.start_seq > 0, "WAL sequence numbers start at 1");
  MFCP_CHECK(config_.start_segment > 0, "WAL segment indices start at 1");
  fs::create_directories(config_.dir);
  next_seq_ = config_.start_seq;
  segment_index_ = config_.start_segment;
  std::lock_guard<std::mutex> lock(mutex_);
  open_segment_locked();
}

TaskWal::~TaskWal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    if (unsynced_ > 0 && config_.fsync_every > 0) {
      // A destructor cannot throw; append() and sync() surface failures.
      try {
        sync_locked();
      } catch (const std::exception& e) {
        MFCP_LOG(kWarn) << "wal: final sync failed: " << e.what();
      }
    }
    ::close(fd_);
    fd_ = -1;
  }
}

void TaskWal::open_segment_locked() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  const std::string path =
      (fs::path(config_.dir) / wal_segment_name(segment_index_)).string();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  MFCP_CHECK(fd_ >= 0, "cannot open WAL segment " + path);
  segment_written_ = 0;
  ++stats_.segments;
}

void TaskWal::sync_locked() {
  if (fd_ >= 0 && unsynced_ > 0) {
    MFCP_CHECK(::fsync(fd_) == 0, "WAL fsync failed");
    unsynced_ = 0;
    ++stats_.fsyncs;
    if (fsync_counter_ != nullptr) {
      fsync_counter_->add(1);
    }
  }
}

std::uint64_t TaskWal::append(WalRecord rec) {
  unsigned char frame[kWalHeaderBytes + kWalPayloadBytes];
  std::lock_guard<std::mutex> lock(mutex_);
  rec.seq = next_seq_++;
  encode_wal_payload(rec, frame + kWalHeaderBytes);
  put_u32(frame, static_cast<std::uint32_t>(kWalPayloadBytes));
  put_u32(frame + 4, crc32(frame + kWalHeaderBytes, kWalPayloadBytes));
  // One write() per frame: O_APPEND makes the frame atomic with respect
  // to a SIGKILL (either fully in the page cache or not written at all
  // from this process's point of view — a machine crash can still tear
  // it, which is what the scan's torn-tail truncation handles).
  MFCP_CHECK(support::write_all_fd(fd_, frame, sizeof(frame)),
             "WAL append failed");
  segment_written_ += sizeof(frame);
  ++stats_.records;
  stats_.bytes += sizeof(frame);
  stats_.last_seq = rec.seq;
  if (bytes_counter_ != nullptr) {
    bytes_counter_->add(sizeof(frame));
  }
  ++unsynced_;
  if (config_.fsync_every > 0 && unsynced_ >= config_.fsync_every) {
    sync_locked();
  }
  if (segment_written_ >= config_.segment_bytes) {
    // Sync before the index moves, so a failed fsync leaves no gap in the
    // segment numbering.
    sync_locked();
    ++segment_index_;
    open_segment_locked();
  }
  return rec.seq;
}

void TaskWal::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
}

TaskWal::Stats TaskWal::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// --------------------------------------------------------------- scan ---

WalScanResult scan_wal(const std::string& dir, bool truncate_torn_tail) {
  WalScanResult out;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return out;  // no log yet: empty history, start at segment 1
  }
  std::vector<std::uint32_t> segments;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    std::uint32_t index = 0;
    if (parse_segment_name(entry.path().filename().string(), index)) {
      segments.push_back(index);
    }
  }
  std::sort(segments.begin(), segments.end());
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const bool newest = s + 1 == segments.size();
    const std::string path =
        (fs::path(dir) / wal_segment_name(segments[s])).string();
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      continue;
    }
    std::uint64_t valid_end = 0;
    unsigned char frame[kWalHeaderBytes + kWalPayloadBytes];
    for (;;) {
      const std::size_t got = std::fread(frame, 1, sizeof(frame), f);
      if (got == 0) {
        break;  // clean end of segment
      }
      WalRecord rec;
      const bool frame_ok =
          got == sizeof(frame) &&
          get_u32(frame) == kWalPayloadBytes &&
          get_u32(frame + 4) ==
              crc32(frame + kWalHeaderBytes, kWalPayloadBytes) &&
          decode_wal_payload(frame + kWalHeaderBytes, kWalPayloadBytes, rec);
      if (!frame_ok) {
        // A bad frame ends this segment's scan. In the newest segment it
        // is the expected torn tail of a crash; anywhere else we report
        // corruption but still keep everything before it.
        if (newest) {
          out.torn_tail = true;
        } else {
          ++out.corrupt_frames;
        }
        break;
      }
      valid_end += sizeof(frame);
      out.valid_bytes += sizeof(frame);
      out.last_seq = std::max(out.last_seq, rec.seq);
      out.records.push_back(rec);
    }
    // Anything past the last valid frame is the torn/corrupt tail.
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    if (size > 0 && static_cast<std::uint64_t>(size) > valid_end) {
      const std::uint64_t torn =
          static_cast<std::uint64_t>(size) - valid_end;
      out.truncated_bytes += torn;
      if (newest && truncate_torn_tail) {
        fs::resize_file(path, valid_end, ec);
        if (ec) {
          MFCP_LOG(kWarn) << "WAL: could not truncate torn tail of " << path;
        } else {
          MFCP_LOG(kInfo) << "WAL: truncated " << torn
                          << " torn byte(s) from " << path;
        }
      }
    }
    out.last_segment = std::max(out.last_segment, segments[s]);
  }
  out.next_segment = out.last_segment + 1;
  return out;
}

std::vector<WalRecord> outstanding_tasks(const WalScanResult& scan) {
  std::unordered_set<std::uint64_t> terminal;
  for (const WalRecord& rec : scan.records) {
    if (is_terminal(rec.type)) {
      terminal.insert(rec.task_id);
    }
  }
  std::vector<WalRecord> out;
  std::unordered_map<std::uint64_t, bool> seen;
  for (const WalRecord& rec : scan.records) {
    if (rec.type != WalRecordType::kAccepted ||
        terminal.count(rec.task_id) != 0) {
      continue;
    }
    if (!seen.emplace(rec.task_id, true).second) {
      continue;  // duplicate accepted record (replayed acceptance)
    }
    out.push_back(rec);
  }
  return out;
}

}  // namespace mfcp::storage
