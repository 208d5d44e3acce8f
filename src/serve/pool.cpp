#include "serve/pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/hooks.hpp"
#include "protocols/registry.hpp"
#include "util/check.hpp"

namespace rdt::serve {

ServePool::ServePool(PoolOptions options) : options_(options) {
  RDT_REQUIRE(options_.shards >= 1, "need at least one shard");
  RDT_REQUIRE(options_.num_processes >= 1, "need at least one process");
  RDT_REQUIRE(options_.queue_frames >= 1, "need a queue of at least one frame");
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    {
      // The worker is not running yet, but TSA checks the guarded writes.
      const MutexLock lock(shard->mu);
      shard->ring.resize(options_.queue_frames);
    }
    shards_.push_back(std::move(shard));
  }
  // Workers start only once the shard table is complete and immutable.
  for (auto& shard : shards_) {
    Shard& s = *shard;
    s.worker = std::thread([this, &s] { worker_loop(s); });
  }
}

ServePool::~ServePool() {
  for (auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    shard->stopping = true;
    shard->nonempty.notify_all();
  }
  // Workers drain whatever is still queued, then exit.
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

int ServePool::shard_of(SessionId id) const {
  // splitmix64 finalizer: adjacent session ids (the common client pattern)
  // must not pile onto one shard, so the route mixes before it reduces.
  std::uint64_t x = id + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<int>(x % static_cast<std::uint64_t>(shards_.size()));
}

void ServePool::open_session(SessionId id) {
  open_session(id, options_.retention);
}

void ServePool::open_session(SessionId id, const RetentionPolicy& retention) {
  Shard& s = shard_for(id);
  std::shared_ptr<OnlineEngine> engine;
  bool recycled = false;
  {
    const MutexLock lock(s.mu);
    RDT_REQUIRE(s.sessions.find(id) == s.sessions.end(),
                "session id is already open on this pool");
    // Reuse guard: the shard mu is where every engine reference is minted,
    // so use_count() == 1 observed here proves no query still holds it.
    if (!s.free_engines.empty() && s.free_engines.back().use_count() == 1) {
      engine = std::move(s.free_engines.back());
      s.free_engines.pop_back();
      recycled = true;
    }
  }
  // Construction / reset runs outside the lock: both are O(n^2) in the
  // process count and must not stall the shard worker. A recycled engine is
  // reset under the *incoming* session's policy — the retention caps keep a
  // previous tenant's arenas from leaking capacity into this one.
  const EngineOptions engine_options{options_.num_processes, retention};
  if (recycled)
    engine->reset(engine_options);
  else
    engine = std::make_shared<OnlineEngine>(engine_options);
  const MutexLock lock(s.mu);
  const bool inserted =
      s.sessions
          .emplace(id, Session{std::move(engine),
                               std::make_shared<SessionCodec>(), false})
          .second;
  RDT_REQUIRE(inserted, "session id is already open on this pool");
  ++s.stats.sessions_opened;
  if (recycled) ++s.stats.engines_recycled;
}

void ServePool::push_item(Shard& shard, Item item) {
  const std::size_t slot = (shard.head + shard.count) % shard.ring.size();
  shard.ring[slot] = std::move(item);
  ++shard.count;
  shard.stats.max_queue_depth =
      std::max(shard.stats.max_queue_depth, shard.count);
  shard.nonempty.notify_one();
}

void ServePool::submit(std::span<const std::uint8_t> frame) {
  const FrameHeader header = peek_frame(frame, 0);
  RDT_REQUIRE(header.frame_end == frame.size(),
              "submit expects exactly one encoded frame");
  Shard& s = shard_for(header.session);
  const MutexLock lock(s.mu);
  std::shared_ptr<OnlineEngine> engine;
  std::shared_ptr<SessionCodec> codec;
  for (;;) {
    // Re-validate after every wait: the session can be closed (or the map
    // rehashed by another open) while this thread slept on backpressure.
    const auto it = s.sessions.find(header.session);
    RDT_REQUIRE(it != s.sessions.end() && !it->second.closing,
                "frame submitted for a session that is not open");
    if (s.count < s.ring.size()) {
      engine = it->second.engine;
      codec = it->second.codec;
      break;
    }
    s.space.wait(s.mu);
  }
  Item item;
  if (!s.buffer_pool.empty()) {
    item.bytes = std::move(s.buffer_pool.back());
    s.buffer_pool.pop_back();
  }
  item.bytes.assign(frame.begin(), frame.end());
  item.session = header.session;
  item.engine = std::move(engine);
  item.codec = std::move(codec);
  push_item(s, std::move(item));
}

void ServePool::close_session(SessionId id) {
  Shard& s = shard_for(id);
  const MutexLock lock(s.mu);
  const auto it = s.sessions.find(id);
  RDT_REQUIRE(it != s.sessions.end() && !it->second.closing,
              "close of a session that is not open");
  it->second.closing = true;  // later submits fail; queued frames still apply
  while (s.count == s.ring.size()) s.space.wait(s.mu);
  Item item;
  item.session = id;
  item.close = true;
  push_item(s, std::move(item));
}

void ServePool::drain() {
  for (auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    while (shard->count > 0 || shard->busy) shard->idle.wait(shard->mu);
  }
}

void ServePool::worker_loop(Shard& s) {
  // Worker-local scratch, grow-only and bounded by the ring.
  const std::size_t max_batch = std::max<std::size_t>(1, options_.queue_frames / 2);
  FrameApplier applier(options_.num_processes);
  std::vector<Item> batch;
  std::vector<std::size_t> order;  // batch indices of the frames
  std::vector<std::span<const std::uint8_t>> group;
  batch.reserve(max_batch);
  order.reserve(max_batch);
  group.reserve(max_batch);
  for (;;) {
    {
      const MutexLock lock(s.mu);
      s.busy = false;
      if (s.count == 0) {
        s.idle.notify_all();
        while (s.count == 0 && !s.stopping) s.nonempty.wait(s.mu);
        if (s.count == 0) return;  // stopping, queue fully drained
      }
      const std::size_t take = std::min(s.count, max_batch);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(s.ring[s.head]));
        s.head = (s.head + 1) % s.ring.size();
      }
      s.count -= take;
      s.busy = true;
      s.space.notify_all();
    }
    // Group the frames by session; ties keep batch order, which is the
    // session's submission order.
    order.clear();
    for (std::size_t i = 0; i < batch.size(); ++i)
      if (!batch[i].close) order.push_back(i);
    std::sort(order.begin(), order.end(), [&batch](std::size_t a, std::size_t b) {
      return std::pair(batch[a].session, a) < std::pair(batch[b].session, b);
    });
    ShardStats applied;
    for (std::size_t g = 0; g < order.size();) {
      const Item& first = batch[order[g]];
      group.clear();
      for (; g < order.size() && batch[order[g]].session == first.session; ++g)
        group.emplace_back(batch[order[g]].bytes);
      applier.apply(*first.engine, *first.codec, group, applied);
    }
    // Drop the engine references before parking, so an idle worker never
    // pins a closed session's engine against the reuse guard.
    for (Item& item : batch) {
      item.engine.reset();
      item.codec.reset();
    }
    const MutexLock lock(s.mu);
    s.stats.frames += applied.frames;
    s.stats.events += applied.events;
    s.stats.feeds += applied.feeds;
    s.stats.rejected += applied.rejected;
    s.stats.piggyback_frames += applied.piggyback_frames;
    s.stats.piggyback_bits += applied.piggyback_bits;
    s.stats.piggyback_rejected += applied.piggyback_rejected;
    // A close marker trails every frame of its session, and the session's
    // frames in this batch are applied by now.
    for (Item& item : batch) {
      if (!item.close) {
        s.buffer_pool.push_back(std::move(item.bytes));
        continue;
      }
      const auto it = s.sessions.find(item.session);
      // The closing flag blocks a second close and open_session rejects the
      // id while mapped, so the entry must still be here.
      RDT_ASSERT(it != s.sessions.end());
      s.free_engines.push_back(std::move(it->second.engine));
      s.sessions.erase(it);
    }
    batch.clear();
  }
}

void FrameApplier::apply(OnlineEngine& engine, SessionCodec& codec,
                         std::span<const std::span<const std::uint8_t>> frames,
                         ShardStats& stats) {
  std::size_t next = 0;
  while (next < frames.size()) {
    // Decode frames into one span until it holds kMaxSpanEvents events.
    events_.clear();
    std::size_t count = 0;
    while (next < frames.size() && events_.size() < kMaxSpanEvents) {
      if (slots_.size() == count) slots_.emplace_back();
      Slot& slot = slots_[count++];
      slot.begin = events_.size();
      try {
        std::size_t offset = 0;
        decode_frame(frames[next++], offset, frame_);
        events_.insert(events_.end(), frame_.events.begin(), frame_.events.end());
        slot.ok = true;
        slot.has_piggyback = frame_.has_piggyback;
        if (slot.has_piggyback) std::swap(slot.piggyback, frame_.piggyback);
      } catch (const std::invalid_argument&) {
        // Envelope checks passed at submit, but the payload can still be
        // bad. One bad frame is the client's problem, not the pool's.
        slot.ok = false;
      }
      slot.end = events_.size();
    }
    feed_span(engine, count, stats);
    for (std::size_t i = 0; i < count; ++i) {
      Slot& slot = slots_[i];
      bool pb_ok = true;
      long long pb_bits = 0;
      // Control data rides behind the events: decode it through the
      // session codec so serve traffic exercises the exact path the replay
      // engine measures. A bad section is counted separately — the events
      // already applied stand, like a failing feed() batch tail.
      if (slot.ok && slot.has_piggyback) {
        try {
          pb_ok = apply_piggyback(codec, events_of(slot), slot.piggyback, &pb_bits);
        } catch (const std::invalid_argument&) {
          slot.ok = false;  // the codec refused the section's geometry
        }
      }
      if (!slot.ok) {
        ++stats.rejected;
        continue;
      }
      ++stats.frames;
      stats.events += static_cast<long long>(slot.end - slot.begin);
      if (!slot.has_piggyback) continue;
      if (pb_ok) {
        ++stats.piggyback_frames;
        stats.piggyback_bits += pb_bits;
      } else {
        ++stats.piggyback_rejected;
      }
    }
  }
}

void FrameApplier::feed_span(OnlineEngine& engine, std::size_t count,
                             ShardStats& stats) {
  std::size_t start = 0;  // first event not yet fed
  std::size_t slot = 0;   // first slot that may hold a fault
  while (start < events_.size()) {
    const long long before = engine.events_consumed();
    ++stats.feeds;
    try {
      engine.feed(std::span<const StreamEvent>(events_).subspan(start));
      return;
    } catch (const std::invalid_argument&) {
      // The stream's own sequencing rules, enforced by feed, can still be
      // broken. feed applied exactly the events before the fault; reject
      // the frame holding it and resume at the next frame.
      const std::size_t fault = start + static_cast<std::size_t>(engine.events_consumed() - before);
      while (slots_[slot].end <= fault) ++slot;
      RDT_ASSERT(slot < count && slots_[slot].ok);
      slots_[slot].ok = false;
      start = slots_[slot].end;
    }
  }
}

bool FrameApplier::apply_piggyback(SessionCodec& sc,
                                   std::span<const StreamEvent> events,
                                   const PiggybackSection& pb,
                                   long long* bits) {
  if (pb.num_processes != num_processes_) return false;
  if (sc.num_processes == 0) {
    const ProtocolInfo& info = ProtocolRegistry::instance().info(pb.protocol);
    sc.codec.reset(pb.codec, pb.num_processes, info.shape);
    sc.protocol = pb.protocol;
    sc.kind = pb.codec;
    sc.shape = info.shape;
    sc.num_processes = pb.num_processes;
  } else if (sc.protocol != pb.protocol || sc.kind != pb.codec) {
    // The delta codec's shadows are per-(protocol, codec) state; a stream
    // that changes either mid-session is out of contract. Unconfigure so
    // the client can start over cleanly.
    sc.num_processes = 0;
    return false;
  }
  const auto n = static_cast<std::size_t>(sc.num_processes);
  const std::size_t row_words = bitdetail::words_for(n);
  if (sc.shape.tdv && tdv_.size() < n) tdv_.resize(n);
  if (sc.shape.simple && simple_.size() < row_words) simple_.resize(row_words);
  if (sc.shape.causal && causal_.size() < n * row_words) causal_.resize(n * row_words);
  const std::size_t max_blob = sc.codec.max_encoded_bytes();
  std::size_t start = 0;
  std::size_t blob = 0;
  for (const StreamEvent& e : events) {
    if (e.kind != EventKind::kSend) continue;
    const std::uint32_t len = pb.sizes[blob++];
    if (e.p >= sc.num_processes || e.q >= sc.num_processes || len > max_blob) {
      sc.num_processes = 0;
      return false;
    }
    PiggybackSlot slot;
    if (sc.shape.tdv) slot.tdv = {tdv_.data(), n};
    if (sc.shape.simple) slot.simple = {simple_.data(), n};
    if (sc.shape.causal) slot.causal = {causal_.data(), n, n};
    if (sc.shape.index) slot.index = &index_;
    std::size_t offset = 0;
    const std::span<const std::uint8_t> blob_bytes{pb.bytes.data() + start, len};
    try {
      sc.codec.decode(e.p, e.q, blob_bytes, offset, slot);
    } catch (const std::invalid_argument&) {
      sc.num_processes = 0;
      return false;
    }
    if (offset != len) {  // trailing bytes inside the blob framing
      sc.num_processes = 0;
      return false;
    }
    *bits += 8LL * len;
    start += len;
  }
  return true;
}

std::shared_ptr<OnlineEngine> ServePool::engine_of(SessionId id) const {
  Shard& s = shard_for(id);
  const MutexLock lock(s.mu);
  const auto it = s.sessions.find(id);
  RDT_REQUIRE(it != s.sessions.end(),
              "query for a session that is not open");
  return it->second.engine;
}

bool ServePool::is_rdt_so_far(SessionId id) const {
  return engine_of(id)->is_rdt_so_far();
}

RecoveryResult ServePool::recovery_line(SessionId id) const {
  return engine_of(id)->recovery_line();
}

StatsResult ServePool::session_stats(SessionId id) const {
  return engine_of(id)->stats();
}

RetentionStats ServePool::session_retention(SessionId id) const {
  return engine_of(id)->retention_stats();
}

long long ServePool::events_consumed(SessionId id) const {
  return engine_of(id)->events_consumed();
}

ShardStats ServePool::shard_stats(int shard) const {
  RDT_REQUIRE(shard >= 0 && shard < num_shards(), "shard index out of range");
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  const MutexLock lock(s.mu);
  ShardStats out = s.stats;
  // Retention sampling: each engine's counters are lock-free relaxed loads,
  // so holding the shard mu here never blocks the worker's feed path.
  for (const auto& [id, session] : s.sessions) {
    const RetentionStats r = session.engine->retention_stats();
    out.compactions += r.compactions;
    out.evicted_checkpoints += r.evicted_checkpoints;
    out.resident_bytes += r.resident_bytes;
  }
  return out;
}

void ServePool::flush_metrics() const {
  if constexpr (!obs::kObsEnabled) return;
  obs::ObsSession* session = obs::ObsSession::current();
  if (session == nullptr) return;
  auto& m = session->metrics();
  for (int i = 0; i < num_shards(); ++i) {
    const ShardStats s = shard_stats(i);
    const std::string prefix = "serve.shard" + std::to_string(i) + ".";
    m.add(m.counter(prefix + "frames"), s.frames);
    m.add(m.counter(prefix + "events"), s.events);
    m.add(m.counter(prefix + "feeds"), s.feeds);
    m.add(m.counter(prefix + "rejected"), s.rejected);
    m.add(m.counter(prefix + "piggyback.frames"), s.piggyback_frames);
    m.add(m.counter(prefix + "piggyback.bits"), s.piggyback_bits);
    m.add(m.counter(prefix + "piggyback.rejected"), s.piggyback_rejected);
    m.add(m.counter(prefix + "queue.max_depth"),
          static_cast<long long>(s.max_queue_depth));
    m.add(m.counter("serve.frames"), s.frames);
    m.add(m.counter("serve.events"), s.events);
    m.add(m.counter("serve.sessions.opened"), s.sessions_opened);
    m.add(m.counter("serve.engines.recycled"), s.engines_recycled);
    m.add(m.counter("serve.retention.compactions"), s.compactions);
    m.add(m.counter("serve.retention.evicted_checkpoints"),
          s.evicted_checkpoints);
    m.add(m.counter("serve.retention.resident_bytes"),
          static_cast<long long>(s.resident_bytes));
  }
}

}  // namespace rdt::serve
