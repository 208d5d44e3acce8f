// The span-tracing pipeline: ObsSession installation, ScopedSpan balance
// and nesting, and the chrome://tracing export — which must be valid JSON
// (round-tripped through util/json) matching the rdt-trace-v1 schema, with
// the metrics snapshot embedded. These classes are compiled in every build;
// only the RDT_TRACE_SPAN / RDT_COUNT macro layer is compile-time gated,
// and its on/off behaviour is asserted at the end.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace_log.hpp"
#include "util/json.hpp"

namespace rdt::obs {
namespace {

TEST(ObsSession, InstallsAsCurrentAndDeactivates) {
  EXPECT_EQ(ObsSession::current(), nullptr);
  {
    ObsSession session;
    EXPECT_EQ(ObsSession::current(), &session);
    session.deactivate();
    EXPECT_EQ(ObsSession::current(), nullptr);
    session.deactivate();  // idempotent
  }
  EXPECT_EQ(ObsSession::current(), nullptr);
  {
    ObsSession session;  // destructor-driven uninstall
    EXPECT_EQ(ObsSession::current(), &session);
  }
  EXPECT_EQ(ObsSession::current(), nullptr);
}

TEST(ObsSession, SecondConcurrentSessionIsRejected) {
  ObsSession session;
  EXPECT_THROW(ObsSession(), std::invalid_argument);
  // The failed constructor must not have clobbered the active session.
  EXPECT_EQ(ObsSession::current(), &session);
}

TEST(ScopedSpan, BalancedAndNested) {
  ObsSession session;
  {
    ScopedSpan outer("test", "outer");
    { ScopedSpan inner("test", "inner", "k", "v"); }
    { ScopedSpan inner2("test", "inner2"); }
  }
  const std::vector<SpanEvent> events = session.trace().sorted_events();
  ASSERT_EQ(events.size(), 3u);  // every opened span closed exactly once
  // Same thread, sorted by start time: inner spans follow the outer one...
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "inner2");
  // ...and each is contained in it.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[0].ts_us);
    EXPECT_LE(events[i].ts_us + events[i].dur_us,
              events[0].ts_us + events[0].dur_us);
  }
  EXPECT_STREQ(events[1].arg_name, "k");
  EXPECT_STREQ(events[1].arg_value, "v");
}

TEST(ScopedSpan, InertWithoutASession) {
  { ScopedSpan span("test", "nobody-listens"); }  // must not crash
  ObsSession session;
  EXPECT_EQ(session.trace().size(), 0u);
}

TEST(TraceLog, ThreadsGetDistinctTids) {
  ObsSession session;
  { ScopedSpan main_span("test", "main"); }
  std::thread worker([] { ScopedSpan span("test", "worker"); });
  worker.join();
  const std::vector<SpanEvent> events = session.trace().sorted_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

// The export contract: parseable JSON, rdt-trace-v1 schema, complete
// events only, metrics embedded — exactly what tools/rdt_stats validates.
TEST(ChromeTrace, ExportMatchesSchema) {
  ObsSession session;
  {
    ScopedSpan replay("replay", "replay", "protocol", "bhmr");
    ScopedSpan inner("sweep", "sweep.worker");
  }
  MetricsRegistry& metrics = session.metrics();
  metrics.add(metrics.counter("replay.bhmr.replays"), 3);
  metrics.add(metrics.counter("replay.bhmr.forced.c1"), 14);
  const std::vector<long long> bounds{1, 2, 4};
  const HistogramId h = metrics.histogram("sweep.item_us", bounds);
  metrics.record(h, 2);
  metrics.record(h, 100);
  session.deactivate();

  std::ostringstream os;
  session.write_chrome_trace(os);
  const json::Value doc = json::parse(os.str());

  EXPECT_EQ(doc.at("otherData").at("schema").as_string(), "rdt-trace-v1");
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");

  const json::Array& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  for (const json::Value& ev : events) {
    EXPECT_EQ(ev.at("ph").as_string(), "X");  // complete events only
    EXPECT_GE(ev.at("ts").as_int(), 0);
    EXPECT_GE(ev.at("dur").as_int(), 0);
    EXPECT_EQ(ev.at("pid").as_int(), 0);
    EXPECT_GE(ev.at("tid").as_int(), 0);
  }
  // Sorted by start time within the thread: the outer replay span first,
  // carrying its protocol argument.
  EXPECT_EQ(events[0].at("name").as_string(), "replay");
  EXPECT_EQ(events[0].at("cat").as_string(), "replay");
  EXPECT_EQ(events[0].at("args").at("protocol").as_string(), "bhmr");
  EXPECT_EQ(events[1].at("name").as_string(), "sweep.worker");
  EXPECT_TRUE(events[1].at("args").as_object().empty());

  const json::Value& counters = doc.at("metrics").at("counters");
  EXPECT_EQ(counters.at("replay.bhmr.replays").as_int(), 3);
  EXPECT_EQ(counters.at("replay.bhmr.forced.c1").as_int(), 14);

  const json::Value& hist = doc.at("metrics").at("histograms").at("sweep.item_us");
  EXPECT_EQ(hist.at("count").as_int(), 2);
  EXPECT_EQ(hist.at("sum").as_int(), 102);
  EXPECT_EQ(hist.at("min").as_int(), 2);
  EXPECT_EQ(hist.at("max").as_int(), 100);
  const json::Array& counts = hist.at("counts").as_array();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[1].as_int(), 1);   // value 2 -> bucket (1, 2]
  EXPECT_EQ(counts[3].as_int(), 1);   // value 100 -> overflow
}

TEST(ChromeTrace, EscapesSpecialCharacters) {
  ObsSession session;
  { ScopedSpan span("cat\"egory", "na\\me\n", "arg\t", "va\"lue"); }
  session.deactivate();
  std::ostringstream os;
  session.write_chrome_trace(os);
  const json::Value doc = json::parse(os.str());  // must still parse
  const json::Array& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("name").as_string(), "na\\me\n");
  EXPECT_EQ(events[0].at("cat").as_string(), "cat\"egory");
  EXPECT_EQ(events[0].at("args").at("arg\t").as_string(), "va\"lue");
}

TEST(ChromeTrace, EmptyCaptureIsStillValid) {
  ObsSession session;
  session.deactivate();
  std::ostringstream os;
  session.write_chrome_trace(os);
  const json::Value doc = json::parse(os.str());
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
  EXPECT_EQ(doc.at("otherData").at("schema").as_string(), "rdt-trace-v1");
  EXPECT_TRUE(doc.at("metrics").at("counters").as_object().empty());
}

TEST(ChromeTrace, EmptyCaptureBytesArePinned) {
  ObsSession session;
  session.deactivate();
  std::ostringstream os;
  session.write_chrome_trace(os);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\",\"otherData\":"
            "{\"schema\":\"rdt-trace-v1\"},\"metrics\":{\"counters\":{},"
            "\"histograms\":{}}}\n");
}

// The counters/histograms block both writers share: the chrome trace's
// "metrics" object and a bench report's observability section.
TEST(MetricsJson, SnapshotSpellingIsPinned) {
  ObsSession session;
  MetricsRegistry& metrics = session.metrics();
  metrics.add(metrics.counter("replay.fdas.replays"), 3);
  metrics.add(metrics.counter("des.events"), 0);
  const std::vector<long long> bounds{1, 2};
  const HistogramId h = metrics.histogram("sweep.item_us", bounds);
  metrics.record(h, 1);
  metrics.record(h, 100);
  session.deactivate();

  const json::Value block = to_json(metrics.snapshot());
  EXPECT_EQ(block.dump(),
            R"({"counters":{"replay.fdas.replays":3,"des.events":0},)"
            R"("histograms":{"sweep.item_us":{"bounds":[1,2],"counts":[1,0,1],)"
            R"("count":2,"sum":101,"min":1,"max":100}}})");

  std::ostringstream os;
  session.write_chrome_trace(os);
  EXPECT_EQ(json::parse(os.str()).at("metrics"), block);
}

// The macro layer: hooks record if and only if observability is compiled
// in (-DRDT_OBS=ON). Both builds run this test; the expectation flips.
TEST(Hooks, MacrosAreCompileTimeGated) {
  ObsSession session;
  {
    RDT_TRACE_SPAN("test", "macro-span");
    RDT_COUNT("test.hits");
    RDT_COUNT_N("test.hits", 2);
  }
  if constexpr (kObsEnabled) {
    EXPECT_EQ(session.trace().size(), 1u);
    EXPECT_EQ(session.metrics().counter_total(
                  session.metrics().counter("test.hits")),
              3);
  } else {
    EXPECT_EQ(session.trace().size(), 0u);
    EXPECT_EQ(session.metrics().num_counters(), 0u);
  }
}

}  // namespace
}  // namespace rdt::obs
