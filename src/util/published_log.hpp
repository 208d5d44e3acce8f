// Append-only single-writer log with lock-free readers.
//
// The online engine's feeder thread appends R-graph nodes and edges here;
// any number of reader threads walk stable prefixes in place (or replay
// them into their own caches) without ever blocking the feeder. Two
// properties make that safe:
//
//  * Stable addresses. Storage is a spine of geometrically growing chunks
//    (2^10, 2^11, ... entries), never reallocated, so an entry's address is
//    fixed the moment it is written — readers hold no iterator a later
//    append could invalidate.
//  * Publication by the owner's count. The log keeps no published count of
//    its own: the writer appends entries (plain writes), and its owner
//    publishes the count later with release semantics — the online engine
//    copies it into its seqlock view at every commit. A reader that
//    acquires a count may read entries [0, count) with plain loads; the
//    happens-before edge covers both the entry and its chunk pointer, so
//    every access is either atomic or ordered — clean under TSan. An entry
//    past a reader's count is reachable only through an atomic link the
//    writer release-stored after filling it (see append()).
//
// Contract: exactly ONE writer thread (external synchronization, e.g. the
// engine's feed mutex); entries are immutable once counted by a reader,
// apart from atomic fields the writer updates through writable().
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <memory>
#include <utility>

namespace rdt {

template <typename T>
class PublishedLog {
 public:
  PublishedLog() = default;
  PublishedLog(const PublishedLog&) = delete;
  PublishedLog& operator=(const PublishedLog&) = delete;

  // Writer-side count (callable only by the writer; readers take the count
  // their owner published).
  std::size_t size() const { return count_; }

  // Valid for i below a published count (readers) or i < size() (the
  // writer).
  const T& operator[](std::size_t i) const {
    const Loc loc = locate(i);
    return chunks_[loc.chunk][loc.offset];
  }

  // Writer only, and only while no reader holds a prefix: rewinds the log
  // to empty but keeps every allocated chunk, so refilling after a reset
  // reuses the old storage. Entries above the new count become writable
  // again — the "immutable once published" guarantee restarts from here,
  // which is why concurrent readers are excluded (the engine's reset()
  // contract, not a lock, enforces that).
  void reset() { count_ = 0; }

  // Writer only, same exclusion contract as reset(): frees every chunk that
  // lies entirely above the current count. reset() deliberately keeps the
  // chunks so a recycled log regrows allocation-free; a *compacting* caller
  // pairs reset()+refill with this call to actually return the prefix
  // storage — the large tail chunks a long stream grew — to the allocator.
  // The spine itself is untouched, so reader addressing never changes.
  void release_unused_chunks() {
    const std::size_t first_free =
        count_ == 0 ? 0 : locate(count_ - 1).chunk + 1;
    for (std::size_t k = first_free; k < kMaxChunks; ++k) chunks_[k].reset();
  }

  // Writer-side accounting: bytes of allocated chunk storage (capacity, not
  // count — an allocated chunk is resident whether or not it is full).
  std::size_t resident_bytes() const {
    std::size_t bytes = 0;
    for (std::size_t k = 0; k < kMaxChunks; ++k)
      if (chunks_[k]) bytes += capacity_of(k) * sizeof(T);
    return bytes;
  }

  // Writer only.
  void push_back(T v) {
    append([&](T& slot) { slot = std::move(v); });
  }

  // Writer only: fill(slot) writes entry size() in place. Two uses
  // push_back cannot serve: entries with atomic fields (not assignable as a
  // whole; fill must set every field, since a slot a reset() rewound still
  // holds its old values), and a writer that links the new entry from
  // elsewhere with its own release store — a reader that acquires the link
  // sees the filled entry before any count includes it.
  template <typename Fill>
  void append(Fill&& fill) {
    const Loc loc = locate(count_);
    auto& chunk = chunks_[loc.chunk];
    if (!chunk) chunk = std::make_unique<T[]>(capacity_of(loc.chunk));
    fill(chunk[loc.offset]);
    ++count_;
  }

  // Writer only, i < size(): mutable access to a published entry, for its
  // atomic fields only — every other field stays immutable once published.
  T& writable(std::size_t i) {
    const Loc loc = locate(i);
    return chunks_[loc.chunk][loc.offset];
  }

 private:
  static constexpr std::size_t kBaseLog2 = 10;  // first chunk: 1024 entries
  static constexpr std::size_t kMaxChunks = 64 - kBaseLog2;

  struct Loc {
    std::size_t chunk;
    std::size_t offset;
  };

  // Chunk k holds entries [2^(10+k) - 2^10, 2^(10+k+1) - 2^10), so the
  // (chunk, offset) of a global index falls out of one bit_width.
  static Loc locate(std::size_t i) {
    const std::size_t v = i + (std::size_t{1} << kBaseLog2);
    const auto k = static_cast<std::size_t>(std::bit_width(v)) - 1;
    return {k - kBaseLog2, v - (std::size_t{1} << k)};
  }

  static std::size_t capacity_of(std::size_t chunk) {
    return std::size_t{1} << (kBaseLog2 + chunk);
  }

  std::array<std::unique_ptr<T[]>, kMaxChunks> chunks_;
  std::size_t count_ = 0;  // writer's private count
};

}  // namespace rdt
