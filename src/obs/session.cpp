#include "obs/session.hpp"

#include <ostream>

#include "util/check.hpp"

namespace rdt::obs {

std::atomic<ObsSession*> ObsSession::current_{nullptr};

ObsSession::ObsSession() : start_(std::chrono::steady_clock::now()) {
  ObsSession* expected = nullptr;
  RDT_REQUIRE(current_.compare_exchange_strong(expected, this,
                                               std::memory_order_acq_rel),
              "another ObsSession is already active");
  active_ = true;
}

ObsSession::~ObsSession() { deactivate(); }

void ObsSession::deactivate() {
  if (!active_) return;
  active_ = false;
  ObsSession* expected = this;
  current_.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
}

void ObsSession::write_chrome_trace(std::ostream& os) const {
  // Events are dumped one at a time rather than built into one document:
  // a long capture holds many more spans than a report holds rows.
  os << "{\"traceEvents\":[";
  const char* sep = "";
  for (const SpanEvent& ev : trace_.sorted_events()) {
    json::Object args;
    if (ev.arg_name != nullptr && ev.arg_value != nullptr)
      args.emplace_back(ev.arg_name, ev.arg_value);
    os << sep;
    json::Value(json::Object{{"name", ev.name},
                             {"cat", ev.cat},
                             {"ph", "X"},
                             {"ts", ev.ts_us},
                             {"dur", ev.dur_us},
                             {"pid", 0},
                             {"tid", ev.tid},
                             {"args", std::move(args)}})
        .dump(os);
    sep = ",";
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"rdt-trace-v1\"}"
     << ",\"metrics\":";
  json::Value(to_json(metrics_.snapshot())).dump(os);
  os << "}\n";
}

}  // namespace rdt::obs
