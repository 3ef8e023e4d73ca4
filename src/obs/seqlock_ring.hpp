// Single-writer ring of fixed-size slots guarded by a per-slot seqlock:
// the one lock-free recent-activity buffer behind the flight recorder's
// event rings (obs/flight) and the sampling profiler's stack rings
// (obs/profiler).
//
// A slot is `Words` 64-bit words. Word 0 is the slot's sequence number
// (1-based; 0 marks an empty or mid-write slot) and words 1.. are
// payload the caller encodes. The writer invalidates the slot (seq word
// <- 0, relaxed), issues a release fence, stores the payload relaxed,
// then publishes with a release store of the sequence number. Readers
// copy a slot between an acquire load of its seq word and an acquire
// fence plus recheck, keeping it only when both reads see the expected
// sequence, so a concurrent overwrite is detected and skipped, never
// blocked on. The write side is atomic stores only: safe inside a signal
// handler (the profiler records from SIGPROF).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mfcp::obs {

template <std::size_t Words>
class SeqlockRing {
  static_assert(Words % 8 == 0, "a slot is whole 64-byte cache lines");
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "slots must be plain words for the raw crash dump");

 public:
  /// One slot as copied out by snapshot(): word 0 is its sequence number.
  using Slot = std::array<std::uint64_t, Words>;

  /// `capacity` is rounded up to a power of two, minimum 8.
  explicit SeqlockRing(std::size_t capacity)
      : mask_(std::bit_ceil(std::max<std::size_t>(capacity, 8)) - 1),
        slots_(std::make_unique<AtomicSlot[]>(mask_ + 1)) {}

  SeqlockRing(const SeqlockRing&) = delete;
  SeqlockRing& operator=(const SeqlockRing&) = delete;

  /// Publishes `payload[0..n)` as words 1..n of the next slot (n is
  /// clamped to Words - 1; later words keep stale values the encoding
  /// must not read). Only ever call from one thread at a time.
  void record(const std::uint64_t* payload, std::size_t n) noexcept {
    n = std::min(n, Words - 1);
    const std::uint64_t seq = head_.load(std::memory_order_relaxed) + 1;
    AtomicSlot& slot = slots_[(seq - 1) & mask_];
    // The release fence keeps the invalidation ahead of the payload
    // stores in every reader's view, so a reader can never pair a stale
    // sequence number with fresh payload words.
    slot.word[0].store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < n; ++i) {
      slot.word[1 + i].store(payload[i], std::memory_order_relaxed);
    }
    slot.word[0].store(seq, std::memory_order_release);
    head_.store(seq, std::memory_order_release);
  }

  /// Slots ever written (== the newest live sequence number).
  [[nodiscard]] std::uint64_t head() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Copies out the currently valid window, oldest first. Slots the
  /// writer overwrites mid-copy are skipped, so the result is always a
  /// consistent (possibly gappy at the oldest edge) suffix of the stream.
  /// Safe from any thread concurrently with the writer.
  [[nodiscard]] std::vector<Slot> snapshot() const {
    const std::uint64_t h = head();
    const std::uint64_t lo = h > capacity() ? h - capacity() + 1 : 1;
    std::vector<Slot> out;
    out.reserve(static_cast<std::size_t>(h + 1 - lo));
    for (std::uint64_t seq = lo; seq <= h; ++seq) {
      const AtomicSlot& slot = slots_[(seq - 1) & mask_];
      if (slot.word[0].load(std::memory_order_acquire) != seq) {
        continue;  // overwritten (or mid-write) since head was read
      }
      Slot copy{seq};
      for (std::size_t i = 1; i < Words; ++i) {
        copy[i] = slot.word[i].load(std::memory_order_relaxed);
      }
      // The acquire fence orders the payload loads before the recheck,
      // so an overwrite that raced the copy is caught.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.word[0].load(std::memory_order_relaxed) == seq) {
        out.push_back(copy);
      }
    }
    return out;
  }

  /// Empties the ring. Only call while no writer can be recording.
  void reset() noexcept {
    for (std::size_t i = 0; i <= mask_; ++i) {
      slots_[i].word[0].store(0, std::memory_order_relaxed);
    }
    head_.store(0, std::memory_order_release);
  }

  /// Raw slot memory for the crash path: capacity() slots of Words
  /// little-endian words, back to back. Writing these bytes with
  /// write(2) is the flight recorder's crash-dump format.
  [[nodiscard]] const void* raw_slots() const noexcept {
    return slots_.get();
  }
  [[nodiscard]] std::size_t raw_bytes() const noexcept {
    return capacity() * sizeof(AtomicSlot);
  }

 private:
  struct alignas(64) AtomicSlot {
    std::atomic<std::uint64_t> word[Words];
  };
  static_assert(sizeof(AtomicSlot) == Words * sizeof(std::uint64_t),
                "raw slot memory is the words back to back");

  std::size_t mask_;
  std::unique_ptr<AtomicSlot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace mfcp::obs
