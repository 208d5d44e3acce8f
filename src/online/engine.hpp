// OnlineEngine — the incremental analysis kernel.
//
// The paper's point is that RDT has *visible* characterizations: predicates
// a process can evaluate online, from locally observable information, as
// each event arrives. This engine is the analysis-side counterpart: it
// consumes one event at a time (send / deliver / internal / checkpoint) and
// keeps every answer of the batch pipeline live at any prefix of the
// stream —
//   * is_rdt_so_far()  — does the pattern observed so far satisfy RDT?
//   * recovery_line()  — where would every process restart after a failure
//                        right now?
//   * zreach(a, b)     — is there a message chain (Z-path) between two
//                        checkpoints?
//   * stats()          — live junction / checkpoint / event counts.
//
// Prefix semantics. A prefix of a stream is not yet a valid Pattern: some
// sends are still in flight. The engine answers as if the batch pipeline ran
// on the *closed* prefix — the observed events minus the sends of
// undelivered messages, finalized with virtual checkpoints (exactly what
// PatternBuilder::build() would produce). An undelivered send can never
// carry a rollback dependency, so this is the only consistent reading;
// tests/online_equivalence_test.cpp checks bit-identity against the batch
// pipeline at every prefix.
//
// Mechanics (each layer is the incremental half of a batch analysis):
//   * TDV      — one TdvMachine (core/tdv.hpp) advanced per event; message
//                payloads carry TDV + vector-clock snapshots like a real
//                protocol's piggyback.
//   * R-graph  — nodes are created lazily: C_{p,0} up front, then the
//                *frontier* node C_{p,durable+1} on the first event of each
//                open interval; nodes and edges go into append-only
//                published logs. Each edge record links the previous edge
//                with the same tail, and each node record holds the head of
//                that out-edge chain, so readers walk successors in place.
//   * RDT      — Wang's MM characterization (the minimal one: every
//                two-message chain across a non-causal junction must be
//                doubled), evaluated per junction at the moment both
//                messages are delivered. Verdicts against frozen target
//                checkpoints are permanent (the engine keeps the saved-TDV
//                history, because a junction can be discovered after its
//                target froze); verdicts against the still-open interval
//                stay *pending*, and the engine maintains the count of
//                pending starts the live TDV has not yet covered, so the
//                RDT verdict is two counter reads.
//   * Recovery — one propagate_rollback() sweep (recovery/rollback.hpp)
//                straight over the published logs, seeded at the frontier
//                nodes and memoized per graph epoch. It touches only the
//                part of the graph it reaches, however many edges were
//                committed since the last query.
//   * Z-paths  — zreach() keeps closure rows in a reader-side
//                IncrementalReach (rgraph/incremental.hpp), caught up
//                lazily from the logs on each zreach() call only.
//
// Amortized cost is O(1) per event in history length: every closure row
// consumes every edge once, junction work is per junction, and all other
// per-event work is O(n) in the process count only. bench/bench_stream.cpp
// measures this (flat events/sec over 10x trace growth).
//
// Thread-safety: ONE feeder thread, any number of reader threads, and the
// readers never block the feeder.
//   * The feeder (on_* / feed / compact) serializes on a private feed mutex
//     and mutates only plain feeder state. Every commit ends in one
//     publish(), which copies each reader-visible value into a single view
//     under a seqlock version counter (odd = copy in flight). The commits
//     are a feed() (an on_* call is a feed() of one event; a feed() that
//     fails at event k commits events [0, k)), a compaction pass, and
//     reset(). R-graph nodes and edges go into append-only PublishedLogs,
//     whose counts the view carries.
//   * `const` queries read only the view, retrying if a copy raced them, so
//     they take no lock the feeder could ever hold and only ever see commit
//     states. A query that lands mid-batch returns the previous commit at
//     once: the retry window is one copy, never a batch.
//   * The heavy queries (recovery_line, zreach) serialize on a separate
//     reader-side mutex guarding their scratch, the memoized rollback sweep
//     and zreach's lazily caught-up closure cache. They snapshot only O(n)
//     values from the view (log counts, durable indexes, frontier node ids)
//     and then compute on the log prefixes those counts name, so the feeder
//     is again never blocked — a query observes the engine as of its
//     snapshot. recovery_line walks the out-edge chains in place: a chain
//     head is an acquire load, and edges at or beyond the snapshot's count
//     are skipped, so the walk sees exactly the snapshot's graph. A
//     compaction rebuilds the logs and publishes while holding the reader
//     mutex, so a heavy query never pairs an old view with rebuilt logs.
//
// Feeding: implement-by-subscription — the engine IS a PatternListener.
// Attach it to a PatternBuilder (set_listener), to a replay
// (ReplayOptions::online) or a DES run (SimConfig::online), call the on_*
// methods directly, or hand whole batches to feed() — one write-side
// acquisition per batch, bit-identical to the same events fed one at a
// time.
//
// Retention (PR 9). With a RetentionPolicy enabled (EngineOptions), the
// engine bounds resident memory to the live frontier: compact() — manual or
// automatic on the policy's cadence — folds everything at or behind the
// current recovery line into one summary node per process and releases the
// storage (saved-TDV rows, R-graph nodes/edges, closure rows, the
// delivered-and-closed message prefix). Correctness rests on two facts the
// paper provides:
//  * The recovery line is monotone. A node's in-edges freeze when its
//    interval closes, and every new edge's head is volatile at creation —
//    so once no volatile node reaches C_{p,x}, none ever will, and a
//    checkpoint at or behind the line stays there forever.
//  * The evicted region is closed. Any node that reaches a valid node is
//    itself valid (reaching an invalid... conversely: a retained node can
//    never have an edge to an evicted one, because the edge would make the
//    evicted head's validity imply the tail's). Hence dropping the evicted
//    prefix changes no retained-to-retained Z-path, no recovery sweep, and
//    no junction verdict — every query about retained state is bit-identical
//    to a keep-all engine, which RDT_AUDITS builds cross-check against a
//    shadow unevicted twin at every compaction.
// Queries about evicted checkpoints are unanswerable by design, so the
// query surface is structured: zreach/recovery_line/stats return a
// QueryResult whose status distinguishes "false" from "evicted — behind
// the retention horizon" (online/options.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "causality/vector_clock.hpp"
#include "ccp/builder.hpp"
#include "core/tdv.hpp"
#include "online/options.hpp"
#include "recovery/recovery_line.hpp"
#include "recovery/rollback.hpp"
#include "rgraph/incremental.hpp"
#include "util/published_log.hpp"
#include "util/thread_annotations.hpp"

namespace rdt {

// TSan cannot instrument std::atomic_thread_fence (GCC's -Wtsan rejects it
// under -Werror). Every value the engine's seqlock guards is itself a
// std::atomic, so sanitizer builds drop the fences: TSan still proves every
// shared access atomic, while regular builds keep the fences that order the
// relaxed view copy against the version counter.
#if defined(__SANITIZE_THREAD__)
#define RDT_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RDT_TSAN_BUILD 1
#endif
#endif
inline void seqlock_fence([[maybe_unused]] std::memory_order order) noexcept {
#if !defined(RDT_TSAN_BUILD)
  std::atomic_thread_fence(order);
#endif
}

// A trivially copyable value kept as relaxed atomic words: the unit the
// engine's seqlock copies. A load is word-wise, so only a seqlock read
// bracket makes it one consistent value.
template <typename T>
class AtomicWords {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % 8 == 0);
  static constexpr std::size_t kWords = sizeof(T) / 8;

 public:
  // Word by word: a wider load of fields the feeder just stored one by one
  // would stall on store forwarding.
  void store(const T& value) noexcept {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < kWords; ++i) {
      std::uint64_t w = 0;
      std::memcpy(&w, bytes + 8 * i, 8);
      words_[i].store(w, std::memory_order_relaxed);
    }
  }
  // The first `words` words only (the rest keep T's defaults): a reader of
  // T's leading fields touches no more cache lines than they span.
  T load(std::size_t words = kWords) const noexcept {
    T value;
    auto* bytes = reinterpret_cast<unsigned char*>(&value);
    for (std::size_t i = 0; i < words; ++i) {
      const std::uint64_t w = words_[i].load(std::memory_order_relaxed);
      std::memcpy(bytes + 8 * i, &w, 8);
    }
    return value;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kWords> words_{};
};

// Live counts over the closed prefix (the fields shared with PatternStats,
// which they must equal at every prefix).
struct OnlineStats {
  int processes = 0;
  int messages = 0;       // delivered messages
  int events = 0;         // events of the closed prefix, incl. virtual finals
  int checkpoints = 0;    // incl. initial and virtual finals
  int virtual_finals = 0;
  long long causal_junctions = 0;
  long long noncausal_junctions = 0;

  friend bool operator==(const OnlineStats&, const OnlineStats&) = default;
};

// One stream event for batched ingest. ccp's Event describes a finished
// pattern slot (no process endpoints), so the batch API carries the same
// arguments the PatternListener callbacks take.
struct StreamEvent {
  EventKind kind = EventKind::kInternal;
  ProcessId p = -1;      // acting process (the sender for send/deliver)
  ProcessId q = -1;      // receiver for send/deliver
  MsgId msg = kNoMsg;
  CkptIndex index = -1;  // checkpoint index for kCheckpoint

  static StreamEvent send(MsgId m, ProcessId sender, ProcessId receiver) {
    return {EventKind::kSend, sender, receiver, m, -1};
  }
  static StreamEvent deliver(MsgId m, ProcessId sender, ProcessId receiver) {
    return {EventKind::kDeliver, sender, receiver, m, -1};
  }
  static StreamEvent internal(ProcessId p) {
    return {EventKind::kInternal, p, -1, kNoMsg, -1};
  }
  static StreamEvent checkpoint(ProcessId p, CkptIndex index) {
    return {EventKind::kCheckpoint, p, -1, kNoMsg, index};
  }

  friend bool operator==(const StreamEvent&, const StreamEvent&) = default;
};

// Structured query answers (online/options.hpp has the status semantics).
using ZreachResult = QueryResult<bool>;
using RecoveryResult = QueryResult<RecoveryOutcome>;
using StatsResult = QueryResult<OnlineStats>;

class OnlineEngine final : public PatternListener {
 public:
  // The canonical construction path: process count + retention policy.
  explicit OnlineEngine(const EngineOptions& options);

  // Rewind to the freshly-constructed state under `options`, recycling
  // every arena the old stream grew: the message table, piggyback pools,
  // published logs, closure rows, and (when the process count is unchanged)
  // the view arrays all keep their allocations, so a serving pool can
  // hand a recycled engine to a new session without paying the stream's
  // warm-up allocations again. The recycled engine is bit-identical to a
  // fresh OnlineEngine(options) on every query
  // (tests/online_equivalence_test.cpp pins this).
  //
  // When the incoming policy is retention-enabled, recycled capacity is
  // capped (max_pool_buffers / max_reset_message_capacity /
  // max_pooled_reach_rows and the published logs' unused chunks), so a
  // pathological previous session cannot permanently inflate a pooled
  // engine. A keep-all reset preserves the historical unbounded recycling.
  //
  // Concurrency contract: reset is a *lifecycle* operation, not a feed —
  // the caller must guarantee no concurrent feeder OR reader for its
  // duration (the serving pool quiesces the session's shard first). reset
  // ends in a commit like any feed, but log prefixes a reader captured
  // before reset are dead.
  void reset(const EngineOptions& options);

  // The policy the engine was constructed/reset with. Lifecycle-stable:
  // changes only in the constructor and reset(), whose contract excludes
  // concurrent callers.
  const RetentionPolicy& retention() const { return retention_; }

  // --- event intake (PatternListener) --------------------------------------
  void on_send(MsgId m, ProcessId sender, ProcessId receiver) override;
  void on_deliver(MsgId m, ProcessId sender, ProcessId receiver) override;
  void on_internal(ProcessId p) override;
  void on_checkpoint(ProcessId p, CkptIndex index) override;

  // Batched intake: one commit for the whole span, with the message table
  // reserved up front. Bit-identical to calling the on_* methods once per
  // event in order (a precondition failure at event k leaves exactly events
  // [0, k) applied and visible, like k single calls and a failing one).
  void feed(std::span<const StreamEvent> events);

  // --- live queries ---------------------------------------------------------
  int num_processes() const {
    return num_processes_.load(std::memory_order_relaxed);
  }
  // Raw events observed (including in-flight sends; not the prefix count).
  long long events_consumed() const;
  // The open interval index I_{p,durable+1} the next event of p lands in.
  CkptIndex current_interval(ProcessId p) const;

  // Snapshots of the live causal planes. Note these cover *all* observed
  // events — a vector clock ticks on in-flight sends too, so live_clock is
  // the stream's causal view, not the closed prefix's.
  Tdv live_tdv(ProcessId p) const;
  VectorClock live_clock(ProcessId p) const;

  // RDT verdict for the closed prefix (== satisfies_rdt of its Pattern).
  // Counter-based, unaffected by eviction — always answerable.
  bool is_rdt_so_far() const;
  // Recovery outcome if a failure happened now: every process restarts at
  // or below its last durable checkpoint (== recover_after_failure).
  // Always kOk: the recovery sweep runs entirely above the horizon.
  RecoveryResult recovery_line() const;
  // Z-path between two checkpoints (== ReachabilityClosure::msg_reach).
  // kOk with the answer when both endpoints are retained (index in
  // [first_retained(p), durable], or durable+1 when that interval has
  // opened); kEvicted when either endpoint is behind the retention horizon;
  // kInvalid when either names a checkpoint the stream never produced
  // (which used to throw).
  ZreachResult zreach(const CkptId& from, const CkptId& to) const;

  // Always kOk: the prefix counters are never evicted.
  StatsResult stats() const;

  // --- retention ------------------------------------------------------------
  // Fold everything at or behind the current recovery line into per-process
  // summary nodes and release the storage. Returns true when anything was
  // evicted. Feeder-side operation (serializes on the feed mutex): call it
  // from the feeding thread, or rely on the policy's automatic cadence.
  bool compact();
  // The smallest checkpoint index of p still answerable: 0 until a
  // compaction first advances the horizon to recovery line + 1 (the at-line
  // checkpoint is evicted too — its Z-paths may run through the evicted
  // region). Lock-free.
  CkptIndex first_retained(ProcessId p) const;
  // Cumulative eviction counters + the resident-bytes snapshot. Lock-free.
  RetentionStats retention_stats() const;

  // In an observability build with a session active, fold the engine's
  // accumulated counters into the session registry (names "online.*").
  // Once per stream — the per-event path touches no registry state.
  void flush_metrics() const;

 private:
  // ----- feeder-private state (guarded by feed_mu_) ------------------------
  struct ProcessState {
    CkptIndex durable = 0;  // highest frozen checkpoint index
    int last_node = -1;     // engine node of C_{p,durable}
    int frontier = -1;      // engine node of C_{p,durable+1}, -1 until opened
    long long deliveries = 0;  // deliveries at p so far (causal junctions)
    int open_retained = 0;  // retained non-ckpt events in the open interval
    // Count of pending[] entries the live TDV has not covered yet — the
    // process's contribution to live_vio_.
    int vio = 0;
    std::vector<MsgId> interval_sends;  // sends in the open interval
    // pending[k] = highest start index si of an unresolved MM junction from
    // P_k whose target is the open interval (0 = none). Settled at the next
    // checkpoint; its covered/uncovered census lives in `vio`.
    std::vector<CkptIndex> pending;
    // The TDV frozen at each C_{p,x} — needed because a junction targeting
    // C_{p,x} can be discovered arbitrarily late, but only while C_{p,x} is
    // above the recovery line; compact() releases the rows behind it.
    SavedTdvWindow saved;
  };

  struct MessageState {
    ProcessId sender = -1;
    ProcessId receiver = -1;
    CkptIndex send_interval = -1;
    CkptIndex deliver_interval = -1;  // set at delivery
    long long deliveries_at_sender = 0;
    bool delivered = false;
    Tdv tdv;            // piggyback snapshots, freed at delivery
    VectorClock clock;
    // MM starts (k, si) of junctions where this message is the outgoing
    // one, discovered before it was delivered; drained at delivery.
    std::vector<std::pair<ProcessId, CkptIndex>> deferred;
  };

  // End of an out-edge chain.
  static constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};

  // R-graph edge as logged for readers: tail node, (head << 1) | message,
  // and the log index of the tail's previous out-edge (kNoEdge if none).
  struct EdgeRec {
    std::uint32_t from = 0;
    std::uint32_t enc = 0;
    std::uint32_t prev = kNoEdge;
  };

  // R-graph node as logged for readers: its checkpoint (index -1 marks a
  // per-process summary node) and the log index of its newest out-edge.
  // out_head is the one field the feeder rewrites after publication: it is
  // stored with release as the edge is appended, before any view counts
  // the edge, and loaded with acquire.
  struct NodeRec {
    CkptId ckpt;
    std::atomic<std::uint32_t> out_head{kNoEdge};
  };

  // Every counter readers see, bumped plainly by the feeder and copied into
  // the view at each commit. Ordered by reader: is_rdt_so_far(), stats()
  // and events_consumed() read the first kCheapWords words, the heavy
  // queries the first kGraphWords, so each touches as few cache lines of
  // the view as it can.
  struct Counters {
    long long permanent = 0;  // MM violations vs frozen targets
    long long live_vio = 0;   // pending starts the live TDV misses
    // Prefix counters (see stats()).
    long long retained_total = 0;  // prefix events minus virtual finals
    long long delivered = 0;
    long long causal_junctions = 0;
    long long noncausal_junctions = 0;
    long long events = 0;  // raw events consumed
    // Bumped whenever the R-graph or the durable frontier changes — the
    // recovery memo's validity key. reset() bumps it too, never rewinds.
    std::uint64_t recovery_epoch = 0;
    // Published log counts, taken by publish().
    std::size_t nodes = 0;
    std::size_t edges = 0;
    // Intake counters (flush_metrics).
    long long sends = 0;
    long long internals = 0;
    long long checkpoints = 0;
    // Cumulative across reset(); resident_bytes is the capacity-accounted
    // footprint (util/mem_accounting.hpp), refreshed at reset, every
    // compaction and every ~256k fed events.
    RetentionStats retention;

    friend bool operator==(const Counters&, const Counters&) = default;
  };
  static constexpr std::size_t kCheapWords = 7;
  static constexpr std::size_t kGraphWords = 10;
  static_assert(offsetof(Counters, events) == 8 * (kCheapWords - 1) &&
                offsetof(Counters, edges) == 8 * (kGraphWords - 1));

  // One process's reader-visible state.
  struct ProcView {
    CkptIndex durable = 0;
    int open_retained = 0;
    // first_retained(p): smallest retained checkpoint index (the retention
    // horizon). 0 until a compaction advances it.
    CkptIndex horizon = 0;
    // Engine node of C_{p,durable+1}, -1 until that interval opens: the
    // recovery sweep's seed.
    int frontier = -1;
  };

  // What readers see: every reader-visible value as of the last commit,
  // rewritten by publish() inside the seqlock write bracket.
  struct View {
    AtomicWords<Counters> counters;
    std::unique_ptr<AtomicWords<ProcView>[]> procs;      // [p]
    std::unique_ptr<std::atomic<CkptIndex>[]> tdv;       // n*n, row-major
    std::unique_ptr<std::atomic<std::int64_t>[]> clock;  // n*n, row-major
  };

  // [p]: engine node of C_{p,x} at ids[x - base]; base is the retention
  // horizon (first retained index). The feeder table covers x <= durable;
  // the reader-cache table additionally holds the open frontier node.
  struct NodeIdTable {
    CkptIndex base = 0;
    std::vector<int> ids;
  };

  // Seqlock write bracket (Boehm's fence recipe) around publish()'s copy.
  // Readers observing an odd seq_, or a seq_ change across their reads,
  // retry.
  class WriteTicket {
   public:
    explicit WriteTicket(std::atomic<std::uint64_t>& seq) : seq_(seq) {
      seq_.store(seq_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
      seqlock_fence(std::memory_order_release);
    }
    ~WriteTicket() {
      seqlock_fence(std::memory_order_release);
      seq_.store(seq_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
    }
    WriteTicket(const WriteTicket&) = delete;
    WriteTicket& operator=(const WriteTicket&) = delete;

   private:
    std::atomic<std::uint64_t>& seq_;
  };

  // Runs fn() under the seqlock read protocol until a tear-free execution;
  // fn must only load from view_.
  template <typename Fn>
  auto read_stable(Fn&& fn) const -> decltype(fn());

  // Reader-side state of the heavy queries: zreach's lazily caught-up
  // closure cache, the recovery sweep's scratch and its memo. Guarded by
  // its own mutex: heavy queries serialize with each other here, never
  // with the feeder.
  struct ReaderCache {
    AnnotatedMutex mu;
    // zreach's view of the R-graph (also the recovery oracle in
    // RDT_AUDITS builds); recovery_line never reads it.
    IncrementalReach reach RDT_GUARDED_BY(mu);
    std::vector<NodeIdTable> node_ids RDT_GUARDED_BY(mu);
    std::size_t nodes_consumed RDT_GUARDED_BY(mu) = 0;
    std::size_t edges_consumed RDT_GUARDED_BY(mu) = 0;
    // The recovery sweep's snapshot and scratch, all sized by the process
    // count or the sweep's reach, never by the graph.
    std::vector<CkptIndex> durable_snap RDT_GUARDED_BY(mu);
    std::vector<int> frontier_snap RDT_GUARDED_BY(mu);
    std::vector<int> seeds RDT_GUARDED_BY(mu);
    std::vector<CkptIndex> min_invalid RDT_GUARDED_BY(mu);
    SparseVisited visited RDT_GUARDED_BY(mu);
    std::vector<int> stack RDT_GUARDED_BY(mu);
    RecoveryOutcome recovery_memo RDT_GUARDED_BY(mu);
    std::uint64_t recovery_memo_epoch RDT_GUARDED_BY(mu) = 0;
    bool recovery_memo_valid RDT_GUARDED_BY(mu) = false;
    long long recovery_sweeps RDT_GUARDED_BY(mu) = 0;
  };

  // Event bodies: they mutate feeder state only; feed() publishes.
  void do_event(const StreamEvent& e) RDT_REQUIRES(feed_mu_);
  void do_send(MsgId m, ProcessId sender, ProcessId receiver)
      RDT_REQUIRES(feed_mu_);
  void do_deliver(MsgId m, ProcessId sender, ProcessId receiver)
      RDT_REQUIRES(feed_mu_);
  void do_internal(ProcessId p) RDT_REQUIRES(feed_mu_);
  void do_checkpoint(ProcessId p, CkptIndex index) RDT_REQUIRES(feed_mu_);

  // The one commit point: copies every reader-visible value into view_
  // inside the seqlock write bracket. The commit of a single event `only`
  // copies just the rows it can have changed: its acting process's, and a
  // delivery's receiver's.
  void publish(const StreamEvent* only = nullptr) RDT_REQUIRES(feed_mu_);
  // Copies process p's row into view_; runs inside publish()'s bracket.
  void copy_row(ProcessId p) RDT_REQUIRES(feed_mu_);
  // RDT_AUDITS-only: check view_ against the feeder state.
  void audit_published_state() const RDT_REQUIRES(feed_mu_);

  // Feeder work after a feed's commit: the policy's automatic compaction
  // and the periodic resident-bytes probe, each a commit of its own.
  void after_commit() RDT_REQUIRES(feed_mu_);
  // The compaction pass proper; returns true when anything was evicted.
  // Skips the rebuild when fewer than `min_evictable` checkpoints lie at or
  // behind the line (the recovery sweep it ran is memoized either way).
  bool compact_locked(long long min_evictable) RDT_REQUIRES(feed_mu_);
  // RDT_AUDITS + retention builds only: compare every answerable query
  // against the keep-all shadow twin after a compaction.
  void audit_compact_equivalence() RDT_REQUIRES(feed_mu_);
  // Recompute counters_.retention.resident_bytes over feeder and reader
  // state.
  void refresh_resident_bytes() RDT_REQUIRES(feed_mu_, rc_.mu);
  std::size_t feeder_resident_bytes() const RDT_REQUIRES(feed_mu_);

  void ensure_frontier(ProcessId p) RDT_REQUIRES(feed_mu_);
  // Append an R-graph node; returns its engine id.
  int log_node(const CkptId& c) RDT_REQUIRES(feed_mu_);
  // Append an R-graph edge and link it into its tail's out-edge chain.
  void log_edge(int from, std::uint32_t enc) RDT_REQUIRES(feed_mu_);
  int node_of(const CkptId& c) const RDT_REQUIRES(feed_mu_);  // feeder side
  // Verdict for one MM junction: the two-message chain entering target's
  // process from C_{k,si} must be trackable at `target`.
  void evaluate_mm(const CkptId& target, ProcessId k, CkptIndex si)
      RDT_REQUIRES(feed_mu_);
  // Recount process j's pending-vs-live census after its live TDV grew.
  void refresh_vio(ProcessId j) RDT_REQUIRES(feed_mu_);

  // Reader side: one seqlock snapshot of the view's counters, or of only
  // their first `words` words.
  Counters load_counters(std::size_t words = sizeof(Counters) / 8) const;

  // Reader side; caller holds rc_.mu. Replays log entries into zreach's
  // closure cache.
  void catch_up_reader(std::size_t nodes, std::size_t edges) const
      RDT_REQUIRES(rc_.mu);
  // Horizon-aware checkpoint-id resolution against the reader tables.
  struct NodeLookup {
    QueryStatus status = QueryStatus::kInvalid;
    int node = -1;
  };
  NodeLookup reader_lookup(const CkptId& c) const RDT_REQUIRES(rc_.mu);
  // One rollback sweep over the first `edges` logged edges, seeded from
  // rc_.frontier_snap and bounded by rc_.durable_snap (caller fills both);
  // bumps rc_.recovery_sweeps. `nodes` is the matching node count, read
  // only by the RDT_AUDITS oracle.
  RecoveryOutcome recovery_sweep_locked(std::size_t nodes,
                                        std::size_t edges) const
      RDT_REQUIRES(rc_.mu);

  mutable AnnotatedMutex feed_mu_;  // serializes feeders (on_* / feed)

  // Changes only in reset() (a quiesced lifecycle operation, which the
  // constructor runs too); atomic so the lock-free query paths may read it
  // race-free.
  std::atomic<int> num_processes_{0};
  // Lifecycle-stable like num_processes_ (written only by reset(), read by
  // retention()); plain because it is never written while another thread
  // can run.
  RetentionPolicy retention_;

  TdvMachine machine_ RDT_GUARDED_BY(feed_mu_);
  std::vector<VectorClock> clocks_ RDT_GUARDED_BY(feed_mu_);
  std::vector<ProcessState> state_ RDT_GUARDED_BY(feed_mu_);
  // The live message window: msgs_[m - msgs_base_] for m >= msgs_base_.
  // compact() drops the prefix of messages that are delivered AND whose
  // send interval has closed — nothing can ever read those rows again.
  std::vector<MessageState> msgs_ RDT_GUARDED_BY(feed_mu_);
  MsgId msgs_base_ RDT_GUARDED_BY(feed_mu_) = 0;
  // Spent piggyback buffers, recycled: a delivery retires its message's TDV
  // and clock snapshots here, the next send reuses their capacity, so the
  // steady-state feed path performs no per-event heap allocation.
  std::vector<Tdv> tdv_pool_ RDT_GUARDED_BY(feed_mu_);
  std::vector<VectorClock> clock_pool_ RDT_GUARDED_BY(feed_mu_);
  std::vector<NodeIdTable> node_ids_ RDT_GUARDED_BY(feed_mu_);
  // Engine node of each process's summary node (-1 before the first
  // compaction). A summary node stands for the whole evicted prefix of its
  // process: it has no in-edges, so it can never affect a retained answer,
  // but it gives late edges (a delivery whose send interval was evicted)
  // and the collapsed in-edges of retained nodes a well-formed tail.
  std::vector<int> summary_nodes_ RDT_GUARDED_BY(feed_mu_);
  // Events applied since the last compaction attempt / resident probe.
  long long events_since_compact_ RDT_GUARDED_BY(feed_mu_) = 0;
  long long events_since_mem_probe_ RDT_GUARDED_BY(feed_mu_) = 0;
  // RDT_AUDITS + retention builds: a keep-all twin fed the same events,
  // the oracle for audit_compact_equivalence(). Null otherwise.
  std::unique_ptr<OnlineEngine> shadow_ RDT_GUARDED_BY(feed_mu_);
  // The feeder's counters; readers see them only through publish()'s copy.
  Counters counters_ RDT_GUARDED_BY(feed_mu_);

  // ----- published state (written by the feeder, read by anyone) -----------
  // A cache line of its own that starts with seq_ and the cheap counters,
  // so a cheap query's reads share it and no feeder-private write lands in
  // it between commits.
  alignas(64) std::atomic<std::uint64_t> seq_{0};
  View view_;
  PublishedLog<NodeRec> node_log_;  // engine node -> checkpoint, append order
  PublishedLog<EdgeRec> edge_log_;

  mutable ReaderCache rc_;
};

}  // namespace rdt
