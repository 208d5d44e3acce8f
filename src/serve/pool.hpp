// ServePool — the multi-tenant serving layer over OnlineEngine.
//
// One pool multiplexes many client *sessions* (independent checkpoint
// streams, each with its own OnlineEngine) over a fixed set of S *shards*.
// A session hashes to one shard for its whole lifetime; each shard owns a
// bounded MPSC frame queue and one worker thread that drains frames into
// the session engines via the batched feed(span) fast path. Clients submit
// pre-encoded wire frames (serve/wire.hpp) from any thread and run live
// queries (is_rdt_so_far / recovery_line / stats) concurrently — queries
// ride the engine's lock-free read path, so a query never blocks a shard
// worker and a worker never blocks a query.
//
// Lifecycle per session:
//   open_session(id)   — bind id to an engine (recycled via reset() when a
//                        closed session's engine is free, else fresh);
//   submit(frame)      — enqueue one encoded frame for the owning shard
//                        (FIFO per shard, so per-session event order is the
//                        submission order); blocks when the shard queue is
//                        full (backpressure, never unbounded memory);
//   queries            — valid from open until close_session returns;
//   close_session(id)  — enqueue the close *behind* every already-submitted
//                        frame; when the worker reaches it, the engine is
//                        retired to the shard's free list for reuse.
// drain() blocks until every shard's queue is empty and its worker idle —
// the pool-wide "all submitted work applied" barrier.
//
// The worker drains in batches. Under one lock it takes up to half the
// ring (max(1, queue_frames / 2) items) and wakes blocked producers once;
// the producers refill the other half while the batch applies. Taking the
// whole ring would leave a producer blocked on this shard while another
// shard's worker runs dry. The batch is grouped by session (ties keep
// submission order) and each session's frames are decoded into one span
// and fed with one engine feed() — FrameApplier below — so the engine
// commits once per session per batch, not once per frame. A second lock
// folds the batch's counters, retires closed sessions and recycles the
// frame buffers. Readers still only ever observe frame-boundary commit states
// (docs/online.md, prefix semantics): a coalesced feed commits at the end
// of a later frame, so a reader sees a subset of the states it could see
// when every frame was fed on its own.
//
// Steady-state serving does not allocate per event: frame byte buffers are
// recycled through a per-shard pool, the worker's batch and decode scratch
// is grow-only and bounded by the ring, feed() reuses the engine's internal
// pools, and a reopened session reuses a reset engine's arenas.
//
// Thread-safety contract (TSA-annotated, lint-enforced):
//   * every shard field is guarded by that shard's mu; cross-shard state is
//     immutable after construction;
//   * engines are held by shared_ptr: a query copies the pointer under the
//     shard mu, releases it, then queries lock-free — so a racing close
//     cannot free an engine out from under a query, and an engine is only
//     reset for reuse once no query still holds it (use_count() == 1 under
//     the shard mu, where every new reference is minted);
//   * exactly one thread (the shard worker) ever feeds a given engine, as
//     OnlineEngine's single-feeder contract requires.
//
// A malformed frame *payload* (the envelope was validated at submit) is
// dropped at decode time and counted in ShardStats::rejected — one bad
// client must not take down the pool. The events of a rejected frame that
// preceded the fault are applied, exactly like a failing feed() batch.
// Coalescing leaves this contract as it was with one feed() per frame: the
// other frames of the span apply as if fed one at a time.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "online/engine.hpp"
#include "serve/wire.hpp"
#include "util/thread_annotations.hpp"

namespace rdt::serve {

struct PoolOptions {
  int shards = 1;
  int num_processes = 2;           // process count of every session engine
  std::size_t queue_frames = 256;  // per-shard queue bound (backpressure)
  // Default retention policy of every session engine. A long-lived pool
  // should run bounded (RetentionPolicy::bounded()) so no single session can
  // grow without limit; open_session's two-argument overload opts an
  // individual session out of (or into) the default.
  RetentionPolicy retention{};
};

// Per-shard counters, read via shard_stats() or flushed to the obs registry
// by flush_metrics(). Average frame size is events / frames and the average
// coalesced span events / feeds; events per second is events over the
// caller's wall clock (bench/bench_serve.cpp).
// The retention fields are point-in-time samples over the shard's *open*
// sessions (engines on the free list are excluded): cumulative compaction /
// eviction counters plus the summed resident-bytes accounting.
struct ShardStats {
  long long frames = 0;            // frames fed into engines
  long long events = 0;            // events those frames carried
  long long feeds = 0;             // engine feed() calls (coalesced spans)
  long long rejected = 0;          // frames dropped for a malformed payload
  long long piggyback_frames = 0;  // frames whose piggyback section decoded
  long long piggyback_bits = 0;    // wire bits those sections carried
  long long piggyback_rejected = 0;  // sections dropped (bad ids or bytes)
  long long sessions_opened = 0;
  long long engines_recycled = 0;  // opens served by a reset() engine
  std::size_t max_queue_depth = 0;
  long long compactions = 0;           // across open sessions (cumulative)
  long long evicted_checkpoints = 0;   // across open sessions (cumulative)
  std::size_t resident_bytes = 0;      // summed engine accounting, sampled
};

// Per-session piggyback decoder. Only the shard worker touches the
// contents (one worker per shard, a session's frames applied in submission
// order); client threads merely create and drop the shared_ptr.
// num_processes == 0 means "not yet configured" — the first piggyback frame
// fixes the (protocol, codec) pair for the session's lifetime, since the
// delta codec's channel shadows are stateful across frames.
struct SessionCodec {
  PiggybackCodec codec;
  ProtocolKind protocol = ProtocolKind::kNoForce;
  PiggybackCodecKind kind = PiggybackCodecKind::kFlat;
  PayloadShape shape;
  int num_processes = 0;
};

// The shard worker's apply step for one session's queued frames, callable
// without a worker thread. Its scratch is grow-only, so the steady state
// allocates nothing; one applier serves every session of a shard.
class FrameApplier {
 public:
  explicit FrameApplier(int num_processes) : num_processes_(num_processes) {}

  // Applies `frames` — encoded frames of ONE session, in submission order —
  // to `engine` and `codec`, adding to the worker counters of `stats`
  // (frames, events, feeds, rejected, piggyback_*). The frames' events are
  // decoded into one span and fed with one feed() call, yet every outcome
  // equals applying the frames one at a time:
  //   * a frame that fails decode_frame is rejected and contributes no
  //     events;
  //   * a frame whose events the engine refuses is rejected, the events
  //     before the fault stay applied, and feeding resumes at the next
  //     frame (the fault is located by the events_consumed() delta);
  //   * piggyback sections decode in frame order, and only for frames
  //     whose events all applied; a section the codec cannot be set up
  //     for (PiggybackCodec::reset throws) rejects its frame.
  // Only the engine's retention cadence sees the difference: it runs at
  // feed() commits, so a compaction may land at a later frame boundary.
  void apply(OnlineEngine& engine, SessionCodec& codec,
             std::span<const std::span<const std::uint8_t>> frames,
             ShardStats& stats);

  // A span is fed once it holds this many events: caps the scratch for
  // sessions that queue many large frames.
  static constexpr std::size_t kMaxSpanEvents = std::size_t{1} << 16;

 private:
  // One frame of the current span: its events are events_[begin, end).
  struct Slot {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool ok = false;  // decoded, and every event applied
    bool has_piggyback = false;
    PiggybackSection piggyback;  // swapped out of frame_, buffers recycle
  };

  std::span<const StreamEvent> events_of(const Slot& slot) const {
    return {events_.data() + slot.begin, slot.end - slot.begin};
  }
  // Feeds events_ of the first `count` slots, rejecting each frame whose
  // events the engine refuses.
  void feed_span(OnlineEngine& engine, std::size_t count, ShardStats& stats);
  // Decodes one frame's piggyback section through the session codec into
  // the scratch planes. Returns false (and leaves the codec unconfigured,
  // so a later frame can start over) when the section's ids disagree with
  // the pool, a blob exceeds the codec's max_encoded_bytes(), or the bytes
  // are malformed; `bits` accumulates the wire bits of a successful decode.
  bool apply_piggyback(SessionCodec& sc, std::span<const StreamEvent> events,
                       const PiggybackSection& pb, long long* bits);

  int num_processes_;
  Frame frame_;
  std::vector<StreamEvent> events_;
  std::vector<Slot> slots_;
  // Planes the piggyback decoder fills.
  std::vector<CkptIndex> tdv_;
  std::vector<std::uint64_t> simple_;
  std::vector<std::uint64_t> causal_;
  CkptIndex index_ = 0;
};

class ServePool {
 public:
  explicit ServePool(PoolOptions options);
  ~ServePool();
  ServePool(const ServePool&) = delete;
  ServePool& operator=(const ServePool&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_processes() const { return options_.num_processes; }
  // The shard a session's frames are routed to (stable for the pool's
  // lifetime; exposed so tests can build shard-colliding workloads).
  int shard_of(SessionId id) const;

  // --- lifecycle -----------------------------------------------------------
  // Opens under the pool's default retention policy (PoolOptions::retention).
  void open_session(SessionId id);
  // Opens with a per-session policy: a trusted long-running tenant may keep
  // full history (RetentionPolicy::keep_all()) on a pool whose default is
  // bounded, and vice versa. The engine — fresh or recycled — is
  // constructed/reset under exactly this policy.
  void open_session(SessionId id, const RetentionPolicy& retention);
  // One encoded frame, exactly (the span must end where the frame ends).
  // Throws std::invalid_argument for a malformed envelope, an unknown or
  // closing session; blocks while the owning shard's queue is full.
  void submit(std::span<const std::uint8_t> frame);
  void close_session(SessionId id);
  // Blocks until every shard's queue is empty and its worker is idle.
  void drain();

  // --- live queries (valid between open_session and close_session) --------
  // The structured results mirror OnlineEngine's horizon-aware surface
  // (online/options.hpp): recovery_line and session_stats are always kOk,
  // but the shape is shared so callers handle one result type.
  bool is_rdt_so_far(SessionId id) const;
  RecoveryResult recovery_line(SessionId id) const;
  StatsResult session_stats(SessionId id) const;
  // The session engine's cumulative eviction counters + resident bytes.
  RetentionStats session_retention(SessionId id) const;
  long long events_consumed(SessionId id) const;

  ShardStats shard_stats(int shard) const;
  // In an observability build with a session active, fold the per-shard
  // counters into the registry (names "serve.*" / "serve.shard<k>.*").
  void flush_metrics() const;

 private:
  // One queue slot: an encoded frame, or a close marker (empty bytes).
  // The engine pointer is resolved at submit time so the worker feeds
  // without a second session-map lookup.
  struct Item {
    std::vector<std::uint8_t> bytes;
    SessionId session = 0;
    std::shared_ptr<OnlineEngine> engine;
    std::shared_ptr<SessionCodec> codec;
    bool close = false;
  };

  struct Session {
    std::shared_ptr<OnlineEngine> engine;
    std::shared_ptr<SessionCodec> codec;
    bool closing = false;  // close queued; rejects further submits
  };

  struct Shard {
    mutable AnnotatedMutex mu;
    // Condition variables pair with mu (std::condition_variable_any waits
    // directly on the AnnotatedMutex, keeping the capability visible to
    // TSA at every guarded access).
    std::condition_variable_any nonempty;  // queue gained an item
    std::condition_variable_any space;     // queue lost items
    std::condition_variable_any idle;      // queue empty and worker idle
    std::vector<Item> ring RDT_GUARDED_BY(mu);  // fixed-capacity FIFO
    std::size_t head RDT_GUARDED_BY(mu) = 0;
    std::size_t count RDT_GUARDED_BY(mu) = 0;
    bool busy RDT_GUARDED_BY(mu) = false;  // worker applying a batch
    bool stopping RDT_GUARDED_BY(mu) = false;
    std::unordered_map<SessionId, Session> sessions RDT_GUARDED_BY(mu);
    std::vector<std::shared_ptr<OnlineEngine>> free_engines
        RDT_GUARDED_BY(mu);
    std::vector<std::vector<std::uint8_t>> buffer_pool RDT_GUARDED_BY(mu);
    ShardStats stats RDT_GUARDED_BY(mu);
    std::thread worker;  // started last in the constructor, joined first
  };

  Shard& shard_for(SessionId id) const { return *shards_[static_cast<std::size_t>(shard_of(id))]; }
  std::shared_ptr<OnlineEngine> engine_of(SessionId id) const;
  void push_item(Shard& shard, Item item) RDT_REQUIRES(shard.mu);
  void worker_loop(Shard& shard);

  const PoolOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rdt::serve
