#include "online/engine.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "obs/hooks.hpp"
#include "util/check.hpp"
#include "util/mem_accounting.hpp"

namespace rdt {

namespace {

// Single-writer counter bump. The mirrors are atomic only so readers can
// load them race-free; the feeder is the sole writer, so a relaxed
// load/modify/store (not an RMW) is exact.
template <typename T>
inline void bump(std::atomic<T>& c, T d) {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

// Cadence of the resident-bytes probe during feeding (events between
// refresh_resident_bytes() calls when no compaction runs).
constexpr long long kMemProbeEvents = 1 << 18;

}  // namespace

OnlineEngine::OnlineEngine(const EngineOptions& options)
    : num_processes_(options.num_processes),
      retention_(options.retention),
      machine_(options.num_processes) {
  RDT_REQUIRE(options.num_processes >= 1, "need at least one process");
  // TSA checks calls into RDT_REQUIRES helpers even from the constructor,
  // so take the (uncontended, single-threaded) feed lock for the body.
  const MutexLock lock(feed_mu_);
  const auto n = static_cast<std::size_t>(options.num_processes);
  clocks_.assign(n, VectorClock(options.num_processes));
  state_.resize(n);
  node_ids_.resize(n);
  summary_nodes_.assign(n, -1);
  tdv_pub_ = std::make_unique<std::atomic<CkptIndex>[]>(n * n);
  clock_pub_ = std::make_unique<std::atomic<std::int64_t>[]>(n * n);
  proc_pub_ = std::make_unique<PubProc[]>(n);
  rc_.node_ids.resize(n);
  rc_.durable_snap.assign(n, 0);
  bootstrap_processes();
  if constexpr (kAuditsEnabled) {
    // The shadow is keep-all, so it never builds a shadow of its own.
    if (retention_.enabled)
      shadow_ = std::make_unique<OnlineEngine>(EngineOptions{options.num_processes});
  }
  refresh_resident_bytes();
}

void OnlineEngine::bootstrap_processes() {
  const auto n = static_cast<std::size_t>(num_processes());
  for (ProcessId p = 0; p < num_processes(); ++p) {
    auto& ps = state_[static_cast<std::size_t>(p)];
    ps.pending.assign(n, 0);
    ps.last_node = next_node_++;  // the implicit initial C_{p,0}
    node_log_.push_back(CkptId{p, 0});
    node_ids_[static_cast<std::size_t>(p)].ids.push_back(ps.last_node);
  }
  publish_all();  // own TDV entries are already 1 (interval I_{p,1})
}

void OnlineEngine::reset(const EngineOptions& options) {
  RDT_REQUIRE(options.num_processes >= 1, "need at least one process");
  const MutexLock lock(feed_mu_);
  // Bracket with the seqlock so a contract-violating late reader spins
  // through the teardown instead of tearing a half-reset snapshot.
  const WriteTicket ticket(seq_);
  const auto n = static_cast<std::size_t>(options.num_processes);
  const bool resized = options.num_processes != this->num_processes();
  num_processes_.store(options.num_processes, std::memory_order_relaxed);
  retention_ = options.retention;

  machine_.reset(options.num_processes);
  clocks_.resize(n);
  for (VectorClock& c : clocks_) c.reset(options.num_processes);

  // Retire every live piggyback buffer into the pools before dropping the
  // message table, so the next stream's sends start out allocation-free.
  for (MessageState& ms : msgs_) {
    if (ms.delivered) continue;  // delivery already recycled these
    tdv_pool_.push_back(std::move(ms.tdv));
    clock_pool_.push_back(std::move(ms.clock));
  }
  msgs_.clear();
  msgs_base_ = 0;

  state_.resize(n);
  for (auto& ps : state_) {
    ps.durable = 0;
    ps.last_node = -1;
    ps.frontier = -1;
    ps.deliveries = 0;
    ps.open_retained = 0;
    ps.vio = 0;
    ps.interval_sends.clear();
    ps.saved.reset(tdv_pool_);
  }

  node_ids_.resize(n);
  for (auto& t : node_ids_) {
    t.ids.clear();
    t.base = 0;
  }
  summary_nodes_.assign(n, -1);
  next_node_ = 0;
  events_since_compact_ = 0;
  events_since_mem_probe_ = 0;
  deferred_publish_ = false;
  node_log_.reset();
  edge_log_.reset();

  if (retention_.enabled) {
    // A bounded engine must not inherit a pathological previous session's
    // arenas: cap the recycled pools and actually free the logs' chunk
    // storage (a keep-all reset keeps all of it, the historical behavior).
    if (tdv_pool_.size() > retention_.max_pool_buffers)
      tdv_pool_.resize(retention_.max_pool_buffers);
    if (clock_pool_.size() > retention_.max_pool_buffers)
      clock_pool_.resize(retention_.max_pool_buffers);
    if (msgs_.capacity() > retention_.max_reset_message_capacity)
      std::vector<MessageState>{}.swap(msgs_);
    node_log_.release_unused_chunks();
    edge_log_.release_unused_chunks();
  }

  if (resized) {
    tdv_pub_ = std::make_unique<std::atomic<CkptIndex>[]>(n * n);
    clock_pub_ = std::make_unique<std::atomic<std::int64_t>[]>(n * n);
    proc_pub_ = std::make_unique<PubProc[]>(n);
  }
  for (std::size_t p = 0; p < n; ++p)
    proc_pub_[p].horizon.store(0, std::memory_order_relaxed);

  permanent_.store(0, std::memory_order_relaxed);
  live_vio_.store(0, std::memory_order_relaxed);
  retained_total_.store(0, std::memory_order_relaxed);
  delivered_.store(0, std::memory_order_relaxed);
  causal_junctions_.store(0, std::memory_order_relaxed);
  noncausal_junctions_.store(0, std::memory_order_relaxed);
  events_consumed_.store(0, std::memory_order_relaxed);
  sends_observed_.store(0, std::memory_order_relaxed);
  internals_observed_.store(0, std::memory_order_relaxed);
  checkpoints_observed_.store(0, std::memory_order_relaxed);
  // Retention counters deliberately survive: they are lifetime metrics,
  // like rc_.recovery_sweeps.
  // Bump (never rewind) the epoch: a memo keyed to a pre-reset epoch must
  // not validate against the recycled graph.
  bump(recovery_epoch_, std::uint64_t{1});

  {
    // feed_mu_ -> rc_.mu is a fresh lock order, but safe: no query path
    // acquires them in the other order (heavy queries take rc_.mu and then
    // only the seqlock, never feed_mu_).
    const MutexLock reader_lock(rc_.mu);
    rc_.reach.reset(retention_.enabled ? retention_.max_pooled_reach_rows
                                       : 0);
    rc_.node_ckpt.clear();
    rc_.node_ids.resize(n);
    for (auto& t : rc_.node_ids) {
      t.ids.clear();
      t.base = 0;
    }
    rc_.nodes_consumed = 0;
    rc_.edges_consumed = 0;
    rc_.durable_snap.assign(n, 0);
    rc_.recovery_memo_valid = false;
    // rc_.recovery_sweeps survives: it is a cumulative metrics counter.
  }

  bootstrap_processes();
  if constexpr (kAuditsEnabled) {
    if (retention_.enabled) {
      if (shadow_)
        shadow_->reset(EngineOptions{options.num_processes});
      else
        shadow_ = std::make_unique<OnlineEngine>(EngineOptions{options.num_processes});
    } else {
      shadow_.reset();
    }
  }
  audit_published_state();
  refresh_resident_bytes();
}

template <typename Fn>
auto OnlineEngine::read_stable(Fn&& fn) const -> decltype(fn()) {
  for (int spins = 0;; ++spins) {
    const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
    if ((s1 & 1) == 0) {
      auto out = fn();
      seqlock_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) return out;
    }
    // A long feed() batch keeps seq_ odd for its whole duration — back off
    // instead of burning the feeder's core.
    if (spins >= 32) std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// Feeder side: mirrors.

void OnlineEngine::publish_tdv_row(ProcessId j) {
  if (deferred_publish_) return;
  const auto n = static_cast<std::size_t>(num_processes());
  const Tdv& t = machine_.at(j);
  std::atomic<CkptIndex>* row = tdv_pub_.get() + static_cast<std::size_t>(j) * n;
  for (std::size_t i = 0; i < n; ++i)
    row[i].store(t[i], std::memory_order_relaxed);
}

void OnlineEngine::publish_tdv_own(ProcessId j) {
  if (deferred_publish_) return;
  const auto n = static_cast<std::size_t>(num_processes());
  const auto jj = static_cast<std::size_t>(j);
  tdv_pub_[jj * n + jj].store(machine_.at(j)[jj], std::memory_order_relaxed);
}

void OnlineEngine::publish_clock_row(ProcessId j) {
  if (deferred_publish_) return;
  const auto n = static_cast<std::size_t>(num_processes());
  const VectorClock& c = clocks_[static_cast<std::size_t>(j)];
  std::atomic<std::int64_t>* row =
      clock_pub_.get() + static_cast<std::size_t>(j) * n;
  for (ProcessId i = 0; i < num_processes(); ++i)
    row[static_cast<std::size_t>(i)].store(c.get(i), std::memory_order_relaxed);
}

void OnlineEngine::publish_clock_own(ProcessId j) {
  if (deferred_publish_) return;
  const auto n = static_cast<std::size_t>(num_processes());
  const auto jj = static_cast<std::size_t>(j);
  clock_pub_[jj * n + jj].store(clocks_[jj].get(j), std::memory_order_relaxed);
}

void OnlineEngine::publish_proc(ProcessId p) {
  if (deferred_publish_) return;
  const auto& ps = state_[static_cast<std::size_t>(p)];
  PubProc& pub = proc_pub_[static_cast<std::size_t>(p)];
  pub.durable.store(ps.durable, std::memory_order_relaxed);
  pub.open_retained.store(ps.open_retained, std::memory_order_relaxed);
  // pub.horizon is written only by compact_locked()/reset(): the horizon
  // moves at compaction, never per event.
}

void OnlineEngine::publish_all() {
  for (ProcessId p = 0; p < num_processes(); ++p) {
    publish_tdv_row(p);
    publish_clock_row(p);
    publish_proc(p);
  }
}

void OnlineEngine::audit_published_state() const {
  if constexpr (!kAuditsEnabled) return;
  const auto n = static_cast<std::size_t>(num_processes());
  long long vio = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const auto& ps = state_[j];
    const Tdv& live = machine_.at(static_cast<ProcessId>(j));
    int v = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (ps.pending[k] > live[k]) ++v;
      RDT_AUDIT(tdv_pub_[j * n + k].load(std::memory_order_relaxed) == live[k],
                "published TDV mirror diverged from the live TDV");
      RDT_AUDIT(clock_pub_[j * n + k].load(std::memory_order_relaxed) ==
                    clocks_[j].get(static_cast<ProcessId>(k)),
                "published clock mirror diverged from the live clock");
    }
    RDT_AUDIT(v == ps.vio,
              "per-process pending-vs-live census diverged from its counter");
    vio += v;
    RDT_AUDIT(proc_pub_[j].durable.load(std::memory_order_relaxed) ==
                  ps.durable,
              "published durable index diverged");
    RDT_AUDIT(proc_pub_[j].open_retained.load(std::memory_order_relaxed) ==
                  ps.open_retained,
              "published open-interval event count diverged");
    RDT_AUDIT(proc_pub_[j].horizon.load(std::memory_order_relaxed) ==
                  node_ids_[j].base,
              "published retention horizon diverged from the id table base");
  }
  RDT_AUDIT(vio == live_vio_.load(std::memory_order_relaxed),
            "live violation census diverged from its counter");
}

// ---------------------------------------------------------------------------
// Feeder side: event bodies. Caller holds feed_mu_ inside a WriteTicket;
// every RDT_REQUIRE fires before the first mutation of its event.

void OnlineEngine::ensure_frontier(ProcessId p) {
  auto& ps = state_[static_cast<std::size_t>(p)];
  if (ps.frontier != -1) return;
  ps.frontier = next_node_++;
  node_log_.push_back(CkptId{p, ps.durable + 1});
  // The process edge C_{p,durable} -> C_{p,durable+1}. After a compaction
  // that evicted C_{p,durable} itself (line == durable), last_node IS the
  // process's summary node and the edge is the collapsed stand-in.
  edge_log_.push_back(EdgeRec{static_cast<std::uint32_t>(ps.last_node),
                              static_cast<std::uint32_t>(ps.frontier) << 1});
  bump(recovery_epoch_, std::uint64_t{1});
}

int OnlineEngine::node_of(const CkptId& c) const {
  RDT_REQUIRE(c.process >= 0 && c.process < num_processes(),
              "process id out of range");
  const auto& ps = state_[static_cast<std::size_t>(c.process)];
  if (c.index == ps.durable + 1 && ps.frontier != -1) return ps.frontier;
  const NodeIdTable& t = node_ids_[static_cast<std::size_t>(c.process)];
  RDT_REQUIRE(c.index >= t.base && c.index <= ps.durable,
              "checkpoint not (yet) known to the engine or evicted");
  return t.ids[static_cast<std::size_t>(c.index - t.base)];
}

void OnlineEngine::evaluate_mm(const CkptId& target, ProcessId k,
                               CkptIndex si) {
  const ProcessId j = target.process;
  auto& pj = state_[static_cast<std::size_t>(j)];
  if (k == j) {
    // Same-process trackability is positional and never changes.
    if (si > target.index) bump(permanent_, 1LL);
    return;
  }
  if (target.index <= pj.durable) {
    // Frozen target: the saved TDV is the final word. The window lookup is
    // the retention-safety proof in executable form: a frozen junction
    // target always carries an in-edge from a still-volatile node, so it is
    // invalid in every sweep since the junction formed — strictly above any
    // recovery line a compaction could have released rows behind.
    if (pj.saved.at(target.index)[static_cast<std::size_t>(k)] < si)
      bump(permanent_, 1LL);
    return;
  }
  // Open target: the live TDV can only grow, so once it covers the start
  // the junction is doubled forever; otherwise it stays pending until the
  // next checkpoint of P_j freezes the interval.
  const Tdv& live = machine_.at(j);
  if (live[static_cast<std::size_t>(k)] >= si) return;
  CkptIndex& slot = pj.pending[static_cast<std::size_t>(k)];
  const bool was_vio = slot > live[static_cast<std::size_t>(k)];
  slot = std::max(slot, si);
  if (!was_vio) {
    // The slot now exceeds the live entry (si does), so the census grows.
    ++pj.vio;
    bump(live_vio_, 1LL);
  }
}

void OnlineEngine::refresh_vio(ProcessId j) {
  auto& pj = state_[static_cast<std::size_t>(j)];
  // Only a grown live TDV can change the census here, and growth can only
  // cover violations — with none outstanding there is nothing to recount.
  if (pj.vio == 0) return;
  const Tdv& live = machine_.at(j);
  int v = 0;
  for (std::size_t k = 0; k < pj.pending.size(); ++k)
    if (pj.pending[k] > live[k]) ++v;
  if (v != pj.vio) {
    bump(live_vio_, static_cast<long long>(v - pj.vio));
    pj.vio = v;
  }
}

void OnlineEngine::do_send(MsgId m, ProcessId sender, ProcessId receiver) {
  RDT_REQUIRE(sender >= 0 && sender < num_processes() && receiver >= 0 &&
                  receiver < num_processes() && sender != receiver,
              "invalid send endpoints");
  RDT_REQUIRE(m == msgs_base_ + static_cast<MsgId>(msgs_.size()),
              "message ids must arrive densely in send order");
  ensure_frontier(sender);
  auto& ps = state_[static_cast<std::size_t>(sender)];
  clocks_[static_cast<std::size_t>(sender)].tick(sender);
  publish_clock_own(sender);

  MessageState ms;
  ms.sender = sender;
  ms.receiver = receiver;
  ms.send_interval = ps.durable + 1;
  ms.deliveries_at_sender = ps.deliveries;
  if (!tdv_pool_.empty()) {
    ms.tdv = std::move(tdv_pool_.back());
    tdv_pool_.pop_back();
  }
  machine_.send(sender, ms.tdv);
  if (!clock_pool_.empty()) {
    ms.clock = std::move(clock_pool_.back());
    clock_pool_.pop_back();
  }
  ms.clock = clocks_[static_cast<std::size_t>(sender)];
  ps.interval_sends.push_back(m);
  msgs_.push_back(std::move(ms));

  bump(events_consumed_, 1LL);
  bump(sends_observed_, 1LL);
}

void OnlineEngine::do_deliver(MsgId m, ProcessId sender, ProcessId receiver) {
  RDT_REQUIRE(m >= 0 && m < msgs_base_ + static_cast<MsgId>(msgs_.size()),
              "unknown message id");
  // Compaction only ever drops *delivered* messages, so an id below the
  // window base is a redelivery, not an unknown message.
  RDT_REQUIRE(m >= msgs_base_, "message already delivered");
  MessageState& ms = msgs_[static_cast<std::size_t>(m - msgs_base_)];
  RDT_REQUIRE(!ms.delivered, "message already delivered");
  RDT_REQUIRE(ms.sender == sender && ms.receiver == receiver,
              "delivery endpoints disagree with the send");
  ensure_frontier(receiver);
  auto& pr = state_[static_cast<std::size_t>(receiver)];

  ms.delivered = true;
  ms.deliver_interval = pr.durable + 1;
  // The R-graph message edge C_{sender,send_interval} -> C_{receiver,open}.
  // A *late* edge — the send interval already evicted — collapses its tail
  // onto the sender's summary node: the head is volatile (above every past
  // and future line at creation), so no retained-to-retained answer can
  // ever traverse the real tail.
  int tail;
  if (ms.send_interval <
      node_ids_[static_cast<std::size_t>(sender)].base) {
    tail = summary_nodes_[static_cast<std::size_t>(sender)];
    RDT_ASSERT(tail >= 0);
    bump(late_edges_, 1LL);
  } else {
    tail = node_of({sender, ms.send_interval});
  }
  edge_log_.push_back(
      EdgeRec{static_cast<std::uint32_t>(tail),
              (static_cast<std::uint32_t>(pr.frontier) << 1) | 1u});
  bump(recovery_epoch_, std::uint64_t{1});

  clocks_[static_cast<std::size_t>(receiver)].tick(receiver);
  clocks_[static_cast<std::size_t>(receiver)].merge(ms.clock);
  publish_clock_row(receiver);
  machine_.deliver(receiver, ms.tdv);
  publish_tdv_row(receiver);
  // The merge may have covered pending starts; recount the receiver.
  refresh_vio(receiver);

  // The delivery joins the closed prefix and retains its matching send.
  bump(delivered_, 1);
  bump(retained_total_, 2);
  ++pr.open_retained;
  publish_proc(receiver);
  auto& psender = state_[static_cast<std::size_t>(sender)];
  if (ms.send_interval == psender.durable + 1) {
    ++psender.open_retained;
    publish_proc(sender);
  }
  bump(causal_junctions_, ms.deliveries_at_sender);

  // Non-causal junctions with m as the *incoming* message: every send of
  // the receiver earlier in this same interval. A junction only exists in
  // the closed prefix once its outgoing message is delivered too, so the
  // verdict is deferred to that delivery when needed. Sends of an open
  // interval are always at or above the message window base: the window
  // only drops messages whose send interval has closed.
  for (const MsgId out : pr.interval_sends) {
    RDT_ASSERT(out >= msgs_base_);
    MessageState& mo = msgs_[static_cast<std::size_t>(out - msgs_base_)];
    if (mo.delivered) {
      bump(noncausal_junctions_, 1LL);
      evaluate_mm({mo.receiver, mo.deliver_interval}, ms.sender,
                  ms.send_interval);
    } else {
      mo.deferred.emplace_back(ms.sender, ms.send_interval);
    }
  }
  // Junctions with m as the *outgoing* message, discovered while it was in
  // flight: they materialize now, targeting the receiver's open interval.
  for (const auto& [k, si] : ms.deferred) {
    bump(noncausal_junctions_, 1LL);
    evaluate_mm({receiver, pr.durable + 1}, k, si);
  }
  ms.deferred.clear();
  ms.deferred.shrink_to_fit();
  ++pr.deliveries;

  // The piggyback snapshots are spent; recycle their buffers for later sends.
  tdv_pool_.push_back(std::move(ms.tdv));
  ms.tdv = Tdv();
  clock_pool_.push_back(std::move(ms.clock));
  ms.clock = VectorClock();

  bump(events_consumed_, 1LL);
}

void OnlineEngine::do_internal(ProcessId p) {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  ensure_frontier(p);
  auto& ps = state_[static_cast<std::size_t>(p)];
  clocks_[static_cast<std::size_t>(p)].tick(p);
  publish_clock_own(p);
  ++ps.open_retained;
  publish_proc(p);
  bump(retained_total_, 1);
  bump(events_consumed_, 1LL);
  bump(internals_observed_, 1LL);
}

void OnlineEngine::do_checkpoint(ProcessId p, CkptIndex index) {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  auto& ps = state_[static_cast<std::size_t>(p)];
  RDT_REQUIRE(index == ps.durable + 1,
              "checkpoint indexes must advance one at a time");
  ensure_frontier(p);

  // Freeze the open interval: its TDV becomes the saved vector of C_{p,x},
  // which settles every junction that was pending against it. The saved
  // vector IS the live one before the own-entry bump, so the number of
  // settled violations is exactly the process's live census.
  Tdv& saved = ps.saved.emplace_back(tdv_pool_);
  machine_.checkpoint(p, saved);
  publish_tdv_own(p);
  long long settled = 0;
  for (std::size_t k = 0; k < ps.pending.size(); ++k) {
    if (ps.pending[k] > saved[k]) ++settled;
    ps.pending[k] = 0;
  }
  RDT_ASSERT(settled == ps.vio);
  if (settled > 0) {
    bump(permanent_, settled);
    bump(live_vio_, -settled);
  }
  ps.vio = 0;

  ++ps.durable;
  node_ids_[static_cast<std::size_t>(p)].ids.push_back(ps.frontier);
  ps.last_node = ps.frontier;
  ps.frontier = -1;
  ps.interval_sends.clear();
  ps.open_retained = 0;
  clocks_[static_cast<std::size_t>(p)].tick(p);
  publish_clock_own(p);
  publish_proc(p);

  bump(retained_total_, 1);
  bump(recovery_epoch_, std::uint64_t{1});
  bump(events_consumed_, 1LL);
  bump(checkpoints_observed_, 1LL);
}

void OnlineEngine::do_event(const StreamEvent& e) {
  switch (e.kind) {
    case EventKind::kSend:
      do_send(e.msg, e.p, e.q);
      break;
    case EventKind::kDeliver:
      do_deliver(e.msg, e.p, e.q);
      break;
    case EventKind::kInternal:
      do_internal(e.p);
      break;
    case EventKind::kCheckpoint:
      do_checkpoint(e.p, e.index);
      break;
    default:
      RDT_REQUIRE(false, "unknown stream event kind");
  }
  // The keep-all shadow twin replays the event only after this engine
  // accepted it, so a precondition failure leaves the twins in lockstep.
  if (shadow_) shadow_->feed(std::span<const StreamEvent>(&e, 1));
  ++events_since_compact_;
  ++events_since_mem_probe_;
}

// ---------------------------------------------------------------------------
// Intake entry points.

void OnlineEngine::on_send(MsgId m, ProcessId sender, ProcessId receiver) {
  const MutexLock lock(feed_mu_);
  {
    const WriteTicket ticket(seq_);
    do_event(StreamEvent::send(m, sender, receiver));
    audit_published_state();
  }
  after_commit();
}

void OnlineEngine::on_deliver(MsgId m, ProcessId sender, ProcessId receiver) {
  const MutexLock lock(feed_mu_);
  {
    const WriteTicket ticket(seq_);
    do_event(StreamEvent::deliver(m, sender, receiver));
    audit_published_state();
  }
  after_commit();
}

void OnlineEngine::on_internal(ProcessId p) {
  const MutexLock lock(feed_mu_);
  {
    const WriteTicket ticket(seq_);
    do_event(StreamEvent::internal(p));
    audit_published_state();
  }
  after_commit();
}

void OnlineEngine::on_checkpoint(ProcessId p, CkptIndex index) {
  const MutexLock lock(feed_mu_);
  {
    const WriteTicket ticket(seq_);
    do_event(StreamEvent::checkpoint(p, index));
    audit_published_state();
  }
  after_commit();
}

void OnlineEngine::feed(std::span<const StreamEvent> events) {
  const MutexLock lock(feed_mu_);
  if (events.empty()) return;
  // Amortize the message-table growth across the batch — but keep the
  // geometric growth policy: a bare reserve(size + sends) would reallocate
  // to the exact request on every batch and make long streams quadratic.
  std::size_t sends = 0;
  for (const StreamEvent& e : events)
    if (e.kind == EventKind::kSend) ++sends;
  if (msgs_.size() + sends > msgs_.capacity())
    msgs_.reserve(std::max(msgs_.size() + sends, msgs_.capacity() * 2));
  {
    const WriteTicket ticket(seq_);
    // No reader can observe the mirrors while the ticket holds seq_ odd, so
    // publish once at commit instead of per event. A precondition failure
    // still republishes before the ticket closes — the contract is that
    // event k failing leaves exactly events [0, k) applied AND visible.
    deferred_publish_ = true;
    try {
      for (const StreamEvent& e : events) do_event(e);
    } catch (...) {
      deferred_publish_ = false;
      publish_all();
      throw;
    }
    deferred_publish_ = false;
    publish_all();
    audit_published_state();
  }
  after_commit();
}

void OnlineEngine::after_commit() {
  if (retention_.enabled && retention_.compact_every_events > 0 &&
      events_since_compact_ >= retention_.compact_every_events) {
    // Reset the cadence counter whether or not the pass evicts: a stream
    // whose line is stuck must not degrade to a sweep per event.
    events_since_compact_ = 0;
    compact_locked(retention_.min_evictable_checkpoints);
  }
  if (events_since_mem_probe_ >= kMemProbeEvents) {
    events_since_mem_probe_ = 0;
    refresh_resident_bytes();
  }
}

// ---------------------------------------------------------------------------
// Retention: prefix compaction.

bool OnlineEngine::compact() {
  const MutexLock lock(feed_mu_);
  if (!retention_.enabled) return false;
  events_since_compact_ = 0;
  // Manual compaction evicts whatever the line allows, however little.
  return compact_locked(1);
}

bool OnlineEngine::compact_locked(long long min_evictable) {
  const auto n = static_cast<std::size_t>(num_processes());

  // Phase 1: bring the reader graph fully current and run one recovery
  // sweep on it (memoized — a subsequent recovery_line() at this epoch is
  // free). Readers may interleave before phase 2; they see the pre-compact
  // graph, whose answers are identical.
  RecoveryOutcome outcome;
  {
    const MutexLock reader_lock(rc_.mu);
    catch_up_reader(node_log_.size(), edge_log_.size());
    std::vector<CkptIndex>& durable_snap = rc_.durable_snap;
    for (std::size_t p = 0; p < n; ++p) durable_snap[p] = state_[p].durable;
    outcome = recovery_sweep_locked();
    rc_.recovery_memo = outcome;
    rc_.recovery_memo_epoch = recovery_epoch_.load(std::memory_order_relaxed);
    rc_.recovery_memo_valid = true;
  }

  long long evictable = 0;
  for (std::size_t p = 0; p < n; ++p)
    evictable +=
        outcome.line.indices[p] + 1 - node_ids_[p].base;  // line is monotone
  RDT_ASSERT(evictable >= 0);
  if (evictable < min_evictable) return false;

  long long released_saved = 0;
  std::size_t dropped_msgs = 0;
  long long dropped_edges = 0;
  {
    // Phase 2: the rebuild. rc_.mu comes BEFORE the write ticket: a reader
    // that entered its seqlock retry loop while holding rc_.mu would
    // otherwise spin forever against a ticket blocked on that same mutex.
    const MutexLock reader_lock(rc_.mu);
    const WriteTicket ticket(seq_);

    // (1) Saved-TDV prefix: rows at or behind the line can never be read
    // again (evaluate_mm's window containment proof), recycle them.
    for (std::size_t p = 0; p < n; ++p)
      released_saved += static_cast<long long>(state_[p].saved.release_through(
          outcome.line.indices[p], tdv_pool_));
    if (tdv_pool_.size() > retention_.max_pool_buffers)
      tdv_pool_.resize(retention_.max_pool_buffers);
    if (clock_pool_.size() > retention_.max_pool_buffers)
      clock_pool_.resize(retention_.max_pool_buffers);

    // (2) Dead message prefix: delivered AND send interval closed means no
    // code path can touch the row again (self-delivery re-checks are ruled
    // out by `delivered`, junction discovery only reads open-interval
    // sends, reset() only reads undelivered rows).
    while (dropped_msgs < msgs_.size()) {
      const MessageState& ms = msgs_[dropped_msgs];
      if (!ms.delivered) break;
      if (ms.send_interval >
          state_[static_cast<std::size_t>(ms.sender)].durable)
        break;
      ++dropped_msgs;
    }
    if (dropped_msgs > 0) {
      msgs_.erase(msgs_.begin(),
                  msgs_.begin() + static_cast<std::ptrdiff_t>(dropped_msgs));
      msgs_base_ += static_cast<MsgId>(dropped_msgs);
    }

    // (3) R-graph rebuild. Retained nodes keep their checkpoint identity
    // and their relative log order; everything at or behind the line (and
    // every previous summary) folds onto a fresh per-process summary node.
    // An edge survives iff its head is retained — the evicted region is
    // closed (no retained tail can point into it), so a dropped edge's tail
    // is always evicted too, and a kept edge's tail is either retained or
    // collapses onto a summary.
    const std::size_t old_nodes = node_log_.size();
    const std::size_t old_edges = edge_log_.size();
    std::vector<EdgeRec> old_edge_list;
    old_edge_list.reserve(old_edges);
    for (std::size_t i = 0; i < old_edges; ++i)
      old_edge_list.push_back(edge_log_[i]);

    std::vector<int> remap(old_nodes, -1);
    node_log_.reset();
    for (ProcessId p = 0; p < num_processes(); ++p) {
      summary_nodes_[static_cast<std::size_t>(p)] = p;
      node_log_.push_back(CkptId{p, -1});
    }
    int next = num_processes();
    for (std::size_t u = 0; u < old_nodes; ++u) {
      const CkptId c = rc_.node_ckpt[u];
      if (c.index >= 0 &&
          c.index > outcome.line.indices[static_cast<std::size_t>(c.process)]) {
        remap[u] = next++;
        node_log_.push_back(c);
      } else {
        remap[u] = c.process;  // fold onto the process's summary node
      }
    }
    next_node_ = next;
    node_log_.release_unused_chunks();

    edge_log_.reset();
    for (const EdgeRec& e : old_edge_list) {
      const int head = remap[static_cast<std::size_t>(e.enc >> 1)];
      if (head < num_processes()) {
        ++dropped_edges;  // head evicted, and with it the whole edge
        continue;
      }
      edge_log_.push_back(
          EdgeRec{static_cast<std::uint32_t>(
                      remap[static_cast<std::size_t>(e.from)]),
                  (static_cast<std::uint32_t>(head) << 1) | (e.enc & 1u)});
    }
    edge_log_.release_unused_chunks();

    // (4) Feeder id tables, per-process node handles, horizon mirrors.
    for (std::size_t p = 0; p < n; ++p) {
      const CkptIndex new_base = outcome.line.indices[p] + 1;
      NodeIdTable& t = node_ids_[p];
      const auto drop = static_cast<std::size_t>(new_base - t.base);
      t.ids.erase(t.ids.begin(),
                  t.ids.begin() + static_cast<std::ptrdiff_t>(drop));
      t.base = new_base;
      for (int& id : t.ids) id = remap[static_cast<std::size_t>(id)];
      auto& ps = state_[p];
      ps.last_node = remap[static_cast<std::size_t>(ps.last_node)];
      if (ps.frontier != -1)
        ps.frontier = remap[static_cast<std::size_t>(ps.frontier)];
      proc_pub_[p].horizon.store(new_base, std::memory_order_relaxed);
    }

    // (5) Reader cache rebuild over the new logs; the recovery memo stays
    // valid — eviction changes no sweep (the epoch was not bumped).
    const std::size_t new_nodes = node_log_.size();
    const std::size_t new_edges = edge_log_.size();
    rc_.reach.reset(retention_.max_pooled_reach_rows);
    rc_.node_ckpt.clear();
    for (std::size_t p = 0; p < n; ++p) {
      rc_.node_ids[p].ids.clear();
      rc_.node_ids[p].base = outcome.line.indices[p] + 1;
    }
    for (std::size_t i = 0; i < new_nodes; ++i) {
      const CkptId c = node_log_[i];
      const int id = rc_.reach.add_node();
      RDT_ASSERT(id == static_cast<int>(i));
      rc_.node_ckpt.push_back(c);
      if (c.index < 0) continue;  // summary nodes have no table entry
      NodeIdTable& t = rc_.node_ids[static_cast<std::size_t>(c.process)];
      RDT_ASSERT(c.index == t.base + static_cast<CkptIndex>(t.ids.size()));
      t.ids.push_back(id);
    }
    for (std::size_t i = 0; i < new_edges; ++i) {
      const EdgeRec e = edge_log_[i];
      rc_.reach.add_edge(static_cast<int>(e.from),
                         static_cast<int>(e.enc >> 1), (e.enc & 1u) != 0);
    }
    rc_.nodes_consumed = new_nodes;
    rc_.edges_consumed = new_edges;

    bump(compactions_, 1LL);
    bump(evicted_ckpts_, evictable);
    bump(evicted_edges_, dropped_edges);
    bump(evicted_saved_, released_saved);
    bump(evicted_msgs_, static_cast<long long>(dropped_msgs));
  }

  events_since_mem_probe_ = 0;
  refresh_resident_bytes();
  audit_compact_equivalence();
  return true;
}

void OnlineEngine::audit_compact_equivalence() {
  if constexpr (!kAuditsEnabled) return;
  if (!shadow_) return;
  RDT_AUDIT(stats().value == shadow_->stats().value,
            "compacted engine's stats diverged from the keep-all shadow");
  RDT_AUDIT(is_rdt_so_far() == shadow_->is_rdt_so_far(),
            "compacted engine's RDT verdict diverged from the shadow");
  const RecoveryOutcome mine = recovery_line().value;
  const RecoveryOutcome oracle = shadow_->recovery_line().value;
  RDT_AUDIT(mine.line == oracle.line &&
                mine.rollback_intervals == oracle.rollback_intervals &&
                mine.total_rollback == oracle.total_rollback,
            "compacted engine's recovery line diverged from the shadow");
  // Z-path spot checks over the corners of every process's retained window
  // (horizon, durable, open frontier): full status+value equality, so an
  // answer the shadow still gives must be bit-identical, never "evicted".
  std::vector<CkptId> sample;
  for (ProcessId p = 0; p < num_processes(); ++p) {
    const auto& ps = state_[static_cast<std::size_t>(p)];
    const CkptIndex lo = node_ids_[static_cast<std::size_t>(p)].base;
    sample.push_back({p, lo});
    if (ps.durable > lo) sample.push_back({p, ps.durable});
    if (ps.frontier != -1) sample.push_back({p, ps.durable + 1});
  }
  for (const CkptId& a : sample)
    for (const CkptId& b : sample)
      RDT_AUDIT(zreach(a, b) == shadow_->zreach(a, b),
                "compacted engine's zreach diverged from the shadow");
}

std::size_t OnlineEngine::feeder_resident_bytes() const {
  // Capacity accounting of the feeder-owned containers. Deliberately
  // approximate at the leaves (VectorClock internals are opaque): the
  // dominant terms — logs, message window, saved-TDV windows, pools — are
  // exact, which is what the flat-RSS gate in bench_longrun leans on.
  std::size_t bytes = node_log_.resident_bytes() + edge_log_.resident_bytes();
  bytes += mem::vec_bytes(msgs_);
  for (const MessageState& ms : msgs_)
    bytes += mem::vec_bytes(ms.tdv) + mem::vec_bytes(ms.deferred);
  bytes += mem::nested_vec_bytes(tdv_pool_);
  bytes += mem::vec_bytes(clock_pool_);
  for (const auto& ps : state_)
    bytes += ps.saved.resident_bytes() + mem::vec_bytes(ps.interval_sends) +
             mem::vec_bytes(ps.pending);
  for (const auto& t : node_ids_) bytes += mem::vec_bytes(t.ids);
  return bytes;
}

void OnlineEngine::refresh_resident_bytes() {
  std::size_t reader = 0;
  {
    const MutexLock reader_lock(rc_.mu);
    reader = rc_.reach.resident_bytes() + mem::vec_bytes(rc_.node_ckpt);
    for (const auto& t : rc_.node_ids) reader += mem::vec_bytes(t.ids);
  }
  resident_bytes_.store(feeder_resident_bytes() + reader,
                        std::memory_order_relaxed);
}

CkptIndex OnlineEngine::first_retained(ProcessId p) const {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  return proc_pub_[static_cast<std::size_t>(p)].horizon.load(
      std::memory_order_relaxed);
}

RetentionStats OnlineEngine::retention_stats() const {
  RetentionStats s;
  s.enabled = retention_.enabled;
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.evicted_checkpoints = evicted_ckpts_.load(std::memory_order_relaxed);
  s.evicted_edges = evicted_edges_.load(std::memory_order_relaxed);
  s.evicted_saved_tdvs = evicted_saved_.load(std::memory_order_relaxed);
  s.evicted_messages = evicted_msgs_.load(std::memory_order_relaxed);
  s.late_edges_collapsed = late_edges_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Wait-free-ish queries: seqlock snapshots of the mirrors.

long long OnlineEngine::events_consumed() const {
  return events_consumed_.load(std::memory_order_relaxed);
}

CkptIndex OnlineEngine::current_interval(ProcessId p) const {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  return proc_pub_[static_cast<std::size_t>(p)].durable.load(
             std::memory_order_relaxed) +
         1;
}

Tdv OnlineEngine::live_tdv(ProcessId p) const {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  const auto n = static_cast<std::size_t>(num_processes());
  const std::atomic<CkptIndex>* row =
      tdv_pub_.get() + static_cast<std::size_t>(p) * n;
  return read_stable([&] {
    Tdv t(n);
    for (std::size_t i = 0; i < n; ++i)
      t[i] = row[i].load(std::memory_order_relaxed);
    return t;
  });
}

VectorClock OnlineEngine::live_clock(ProcessId p) const {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  const auto n = static_cast<std::size_t>(num_processes());
  const std::atomic<std::int64_t>* row =
      clock_pub_.get() + static_cast<std::size_t>(p) * n;
  return read_stable([&] {
    VectorClock c(num_processes());
    for (ProcessId i = 0; i < num_processes(); ++i)
      c.set(i, row[static_cast<std::size_t>(i)].load(std::memory_order_relaxed));
    return c;
  });
}

bool OnlineEngine::is_rdt_so_far() const {
  // Both counters must come from one quiescent window: a checkpoint settles
  // pending violations by moving them between the two.
  return read_stable([&] {
    return permanent_.load(std::memory_order_relaxed) == 0 &&
           live_vio_.load(std::memory_order_relaxed) == 0;
  });
}

StatsResult OnlineEngine::stats() const {
  const auto n = static_cast<std::size_t>(num_processes());
  OnlineStats s = read_stable([&] {
    OnlineStats out;
    out.processes = num_processes();
    out.messages = delivered_.load(std::memory_order_relaxed);
    out.causal_junctions = causal_junctions_.load(std::memory_order_relaxed);
    out.noncausal_junctions =
        noncausal_junctions_.load(std::memory_order_relaxed);
    int virtuals = 0;
    int durable_ckpts = 0;
    for (std::size_t p = 0; p < n; ++p) {
      if (proc_pub_[p].open_retained.load(std::memory_order_relaxed) > 0)
        ++virtuals;  // build() would close this interval
      durable_ckpts +=
          proc_pub_[p].durable.load(std::memory_order_relaxed) + 1;
    }
    out.virtual_finals = virtuals;
    out.events = retained_total_.load(std::memory_order_relaxed) + virtuals;
    out.checkpoints = durable_ckpts + virtuals;
    return out;
  });
  // The prefix counters aggregate over evicted history too — never evicted.
  return StatsResult::make(s);
}

// ---------------------------------------------------------------------------
// Heavy queries: reader-side cache under rc_.mu.

void OnlineEngine::catch_up_reader(std::size_t nodes,
                                   std::size_t edges) const {
  for (; rc_.nodes_consumed < nodes; ++rc_.nodes_consumed) {
    const CkptId c = node_log_[rc_.nodes_consumed];
    const int id = rc_.reach.add_node();
    rc_.node_ckpt.push_back(c);
    // Summary nodes (index -1) enter the cache only through the compaction
    // rebuild, which installs the tables directly — but tolerate them here
    // so the replay path has one invariant, not two.
    if (c.index < 0) continue;
    auto& t = rc_.node_ids[static_cast<std::size_t>(c.process)];
    // Per-process node indexes appear consecutively in the log (C_{p,0},
    // then each successive frontier), so the id table needs no gaps.
    RDT_ASSERT(c.index == t.base + static_cast<CkptIndex>(t.ids.size()));
    t.ids.push_back(id);
  }
  for (; rc_.edges_consumed < edges; ++rc_.edges_consumed) {
    const EdgeRec e = edge_log_[rc_.edges_consumed];
    rc_.reach.add_edge(static_cast<int>(e.from),
                       static_cast<int>(e.enc >> 1), (e.enc & 1u) != 0);
  }
}

OnlineEngine::NodeLookup OnlineEngine::reader_lookup(const CkptId& c) const {
  if (c.process < 0 || c.process >= num_processes())
    return {QueryStatus::kInvalid, -1};
  const NodeIdTable& t = rc_.node_ids[static_cast<std::size_t>(c.process)];
  if (c.index < 0 ||
      c.index >= t.base + static_cast<CkptIndex>(t.ids.size()))
    return {QueryStatus::kInvalid, -1};
  if (c.index < t.base) return {QueryStatus::kEvicted, -1};
  return {QueryStatus::kOk,
          t.ids[static_cast<std::size_t>(c.index - t.base)]};
}

ZreachResult OnlineEngine::zreach(const CkptId& from, const CkptId& to) const {
  const MutexLock lock(rc_.mu);
  struct Counts {
    std::size_t nodes, edges;
  };
  // Only the log counts need the seqlock; the entries below them are
  // immutable and already published by the logs' own release stores.
  const Counts c = read_stable([&] {
    return Counts{node_log_.size_published(), edge_log_.size_published()};
  });
  catch_up_reader(c.nodes, c.edges);
  const NodeLookup a = reader_lookup(from);
  const NodeLookup b = reader_lookup(to);
  // Invalid outranks evicted: naming a checkpoint the stream never produced
  // is a caller mistake however much history remains.
  if (a.status == QueryStatus::kInvalid || b.status == QueryStatus::kInvalid)
    return ZreachResult::invalid_result();
  if (a.status == QueryStatus::kEvicted || b.status == QueryStatus::kEvicted)
    return ZreachResult::evicted_result();
  return ZreachResult::make(rc_.reach.msg_reach(a.node, b.node));
}

RecoveryOutcome OnlineEngine::recovery_sweep_locked() const {
  RDT_TRACE_SPAN("online", "recovery_sweep");
  const auto n = static_cast<std::size_t>(num_processes());

  // Wang's rollback propagation from the frontier seeds: restarting P_i at
  // its last durable checkpoint invalidates everything R-reachable from
  // C_{i,durable+1} (when that interval has opened — visible to the reader
  // as one table entry beyond the durable index).
  std::vector<int> seeds;
  for (std::size_t p = 0; p < n; ++p) {
    const NodeIdTable& t = rc_.node_ids[p];
    if (t.base + static_cast<CkptIndex>(t.ids.size()) ==
        rc_.durable_snap[p] + 2)
      seeds.push_back(t.ids.back());
  }

  std::vector<CkptIndex> min_invalid(n, std::numeric_limits<CkptIndex>::max());
  // Aliases bound under rc_.mu for the propagate_rollback callbacks (the
  // lambda-vs-TSA idiom from util/thread_annotations.hpp).
  const IncrementalReach& reach = rc_.reach;
  const std::vector<CkptId>& node_ckpt = rc_.node_ckpt;
  propagate_rollback(
      rc_.scratch, reach.num_nodes(), seeds,
      [&](int u, auto&& emit) { reach.for_each_successor(u, emit); },
      [&](int u) {
        const CkptId c = node_ckpt[static_cast<std::size_t>(u)];
        if (c.index < 0) return;  // summary nodes have no in-edges; unreachable
        CkptIndex& m = min_invalid[static_cast<std::size_t>(c.process)];
        m = std::min(m, c.index);
      });

  RecoveryOutcome out;
  out.line.indices.resize(n);
  out.rollback_intervals.resize(n);
  for (ProcessId i = 0; i < num_processes(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const CkptIndex upper = rc_.durable_snap[idx];
    const CkptIndex line =
        min_invalid[idx] <= upper ? min_invalid[idx] - 1 : upper;
    RDT_ASSERT(line >= 0);  // C_{i,0} can never be invalidated
    out.line.indices[idx] = line;
    const CkptIndex lost = upper - line;
    out.rollback_intervals[idx] = lost;
    out.total_rollback += lost;
    if (upper > 0)
      out.worst_fraction =
          std::max(out.worst_fraction,
                   static_cast<double>(lost) / static_cast<double>(upper));
  }
  ++rc_.recovery_sweeps;
  return out;
}

RecoveryResult OnlineEngine::recovery_line() const {
  const MutexLock lock(rc_.mu);
  const auto n = static_cast<std::size_t>(num_processes());
  struct Snap {
    std::uint64_t epoch = 0;
    std::size_t nodes = 0, edges = 0;
  };
  // TSA analyzes the lambda as a separate function that does not hold
  // rc_.mu; bind the scratch vector under the lock and capture the alias
  // (the house idiom from util/thread_annotations.hpp).
  std::vector<CkptIndex>& durable_snap = rc_.durable_snap;
  const Snap snap = read_stable([&] {
    Snap s;
    s.epoch = recovery_epoch_.load(std::memory_order_relaxed);
    s.nodes = node_log_.size_published();
    s.edges = edge_log_.size_published();
    for (std::size_t p = 0; p < n; ++p)
      durable_snap[p] = proc_pub_[p].durable.load(std::memory_order_relaxed);
    return s;
  });
  if (rc_.recovery_memo_valid && rc_.recovery_memo_epoch == snap.epoch)
    return RecoveryResult::make(rc_.recovery_memo);
  catch_up_reader(snap.nodes, snap.edges);
  const RecoveryOutcome out = recovery_sweep_locked();
  rc_.recovery_memo = out;
  rc_.recovery_memo_epoch = snap.epoch;
  rc_.recovery_memo_valid = true;
  // The sweep runs entirely at or above the horizon, so eviction can never
  // make the answer unavailable.
  return RecoveryResult::make(out);
}

void OnlineEngine::flush_metrics() const {
  if constexpr (!obs::kObsEnabled) return;
  obs::ObsSession* session = obs::ObsSession::current();
  if (session == nullptr) return;
  auto& m = session->metrics();
  m.add(m.counter("online.events"),
        events_consumed_.load(std::memory_order_relaxed));
  m.add(m.counter("online.events.send"),
        sends_observed_.load(std::memory_order_relaxed));
  m.add(m.counter("online.events.deliver"),
        delivered_.load(std::memory_order_relaxed));
  m.add(m.counter("online.events.internal"),
        internals_observed_.load(std::memory_order_relaxed));
  m.add(m.counter("online.events.checkpoint"),
        checkpoints_observed_.load(std::memory_order_relaxed));
  m.add(m.counter("online.junctions.causal"),
        causal_junctions_.load(std::memory_order_relaxed));
  m.add(m.counter("online.junctions.noncausal"),
        noncausal_junctions_.load(std::memory_order_relaxed));
  m.add(m.counter("online.retention.compactions"),
        compactions_.load(std::memory_order_relaxed));
  m.add(m.counter("online.retention.evicted_checkpoints"),
        evicted_ckpts_.load(std::memory_order_relaxed));
  m.add(m.counter("online.retention.evicted_messages"),
        evicted_msgs_.load(std::memory_order_relaxed));
  long long sweeps = 0;
  {
    const MutexLock lock(rc_.mu);
    sweeps = rc_.recovery_sweeps;
  }
  m.add(m.counter("online.recovery.sweeps"), sweeps);
}

}  // namespace rdt
