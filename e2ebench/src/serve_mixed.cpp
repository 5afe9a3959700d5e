// serve_mixed: a `paragraph serve` child with the 4-member Algorithm 2
// ensemble, fed a seeded mix of flat and hierarchical decks. Phase one is
// an open loop (seeded Poisson arrivals at a fixed rate, pipelined over
// kServeConnections connections, each request timed from its due time);
// phase two is a closed loop that saturates the daemon.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <poll.h>
#include <thread>

#include "bench.h"
#include "circuit/spice_parser.h"
#include "core/ensemble.h"
#include "fixtures.h"
#include "gnn/plan.h"
#include "inputs.h"
#include "obs/control.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "probe.h"
#include "proc.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "stats.h"
#include "trace.h"

namespace e2ebench {

namespace pg = paragraph;

namespace {

struct ServeSetup {
  ServeInputs in;
  std::string ens_path;
  std::string socket_path;
  std::string log_path;
  std::vector<NamedValues> refs;    // per pool deck
  std::vector<std::string> bodies;  // per pool deck: the deck as a JSON string
};

std::size_t open_count(double seconds) {
  const auto want = static_cast<std::size_t>(kServeRatePerS * seconds * kServeOpenShare);
  return std::max(want, samples_for_tail(kServeTailPct));
}

ServeSetup prepare(const RunArgs& a) {
  ServeSetup s;
  // The saturation phase cycles through closed_seq if it runs out.
  s.in = serve_inputs(a.seed, kServeRatePerS, open_count(a.seconds), 4096);
  const auto ds = pg::dataset::build_dataset(kFixtureSeed, kFixtureScale);
  s.ens_path = a.work_dir + "/ensemble.bin";
  train_fixture_ensemble(ds).save(s.ens_path);
  s.socket_path = a.work_dir + "/serve.sock";
  s.log_path = a.work_dir + "/serve.log";
  const auto ens = pg::core::CapEnsemble::load(s.ens_path);
  for (const Deck& d : s.in.pool) {
    const auto sample = sample_from_text(d.text);
    s.refs.push_back(named_values(sample, pg::dataset::TargetKind::kCap, ens.predict(ds, sample)));
    s.bodies.push_back(pg::obs::JsonValue(d.text).dump());
  }
  return s;
}

std::string request_frame(const ServeSetup& s, std::size_t deck, std::int64_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"netlist\":" + s.bodies[deck] + "}";
}

// Parses one response frame. Returns its id (-1 when unparsable) and sets
// `correct` when it is ok and matches the reference of `deck_of(id)`.
template <typename DeckOf>
std::int64_t check_response(const ServeSetup& s, const std::string& payload, const DeckOf& deck_of,
                            bool* correct) {
  *correct = false;
  const auto resp = pg::obs::JsonValue::parse(payload);
  if (!resp || !resp->is_object()) return -1;
  const auto* id = resp->find("id");
  if (id == nullptr || !id->is_number()) return -1;
  const std::int64_t rid = id->as_int();
  const auto* ok = resp->find("ok");
  const auto* preds = resp->find("predictions");
  const auto* cap = preds != nullptr ? preds->find("CAP") : nullptr;
  const std::size_t deck = deck_of(rid);
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool() || cap == nullptr || !cap->is_object() ||
      deck >= s.refs.size()) {
    note("serve_mixed: request %lld failed: %.300s", static_cast<long long>(rid), payload.c_str());
    return rid;
  }
  NamedValues got;
  got.reserve(cap->items().size());
  for (const auto& [name, v] : cap->items()) got.emplace_back(name, v.is_number() ? v.as_double() : std::nan(""));
  std::string why;
  *correct = same_predictions(got, s.refs[deck], &why);
  if (!*correct)
    note("serve_mixed: request %lld (%s) wrong: %s", static_cast<long long>(rid),
         s.in.pool[deck].name.c_str(), why.c_str());
  return rid;
}

pg::serve::ServeClient connect_when_ready(const ServeSetup& s, Daemon& d) {
  const auto t0 = Clock::now();
  for (;;) {
    try {
      return pg::serve::ServeClient::connect_unix(s.socket_path);
    } catch (const std::exception&) {
      if (!d.running() || secs_since(t0) > 60.0)
        throw std::runtime_error("serve daemon did not come up: " + head_of_file(s.log_path));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
}

// Spawns the daemon (the untraced command line plus `extra`) and times
// spawn -> first correct answer (deck 0, the most popular one; id -1, so it
// never collides with an open-loop request id).
std::unique_ptr<Daemon> spawn(const RunArgs& a, const ServeSetup& s, double* setup_s,
                              const std::vector<std::string>& extra = {}) {
  std::filesystem::remove(s.socket_path);
  const auto t0 = Clock::now();
  std::vector<std::string> argv{a.paragraph, "serve", "--socket", s.socket_path, "--ensemble",
                                s.ens_path, "--threads", "1"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  auto d = std::make_unique<Daemon>(argv, s.log_path);
  auto c = connect_when_ready(s, *d);
  pg::serve::write_frame(c.fd(), request_frame(s, 0, -1));
  std::string payload;
  if (!pg::serve::read_frame(c.fd(), &payload)) throw std::runtime_error("serve closed the connection");
  bool correct = false;
  check_response(s, payload, [](std::int64_t) { return std::size_t{0}; }, &correct);
  if (!correct) throw std::runtime_error("serve: first answer is wrong");
  *setup_s = secs_since(t0);
  return d;
}

struct Conns {
  std::vector<pg::serve::ServeClient> c;
  std::vector<pollfd> fds;
  Conns(const ServeSetup& s, Daemon& d) {
    for (std::size_t i = 0; i < kServeConnections; ++i) {
      c.push_back(connect_when_ready(s, d));
      fds.push_back({c.back().fd(), POLLIN, 0});
    }
  }
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Open loop over requests first..first+n-1 of open_seq (the request ids):
// one sender thread writes each request when it falls due, round-robin
// over the connections without waiting for answers; this thread reads the
// answers. The stretch starts when it is called, at the schedule time of
// request `first - 1`.
std::vector<Request> open_loop(const ServeSetup& s, Conns& conns, std::size_t first, std::size_t n,
                               bool* transport_ok) {
  std::vector<Request> reqs(n);
  const double base_ms = first > 0 ? s.in.open_due_ms[first - 1] : 0.0;
  for (std::size_t i = 0; i < n; ++i) reqs[i].due_ms = s.in.open_due_ms[first + i] - base_ms;
  const auto t0 = Clock::now();
  std::atomic<bool> send_failed{false};
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(t0 + std::chrono::duration<double, std::milli>(reqs[i].due_ms));
        const std::string frame = request_frame(s, s.in.open_seq[first + i], static_cast<std::int64_t>(first + i));
        reqs[i].sent_ms = ms_since(t0);
        reqs[i].sent = true;
        pg::serve::write_frame(conns.c[i % conns.c.size()].fd(), frame);
      }
    } catch (const std::exception& e) {
      note("serve_mixed: send failed: %s", e.what());
      send_failed = true;
    }
  });
  const auto index_of = [&](std::int64_t id) {
    return id >= static_cast<std::int64_t>(first) && id < static_cast<std::int64_t>(first + n)
               ? static_cast<std::size_t>(id) - first
               : n;
  };
  const auto deck_of = [&](std::int64_t id) {
    return index_of(id) < n ? s.in.open_seq[static_cast<std::size_t>(id)] : s.refs.size();
  };
  const double give_up_ms = reqs[n - 1].due_ms + 30000.0;
  std::size_t received = 0;
  std::string payload;
  *transport_ok = true;
  while (received < n && ms_since(t0) < give_up_ms && !send_failed) {
    if (poll(conns.fds.data(), conns.fds.size(), 100) < 0 && errno != EINTR) break;
    for (auto& p : conns.fds) {
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      try {
        if (!pg::serve::read_frame(p.fd, &payload)) throw std::runtime_error("connection closed");
      } catch (const std::exception& e) {
        note("serve_mixed: read failed: %s", e.what());
        *transport_ok = false;
        p.fd = -1;  // poll ignores it from now on
        continue;
      }
      const double done = ms_since(t0);
      bool correct = false;
      const std::size_t i = index_of(check_response(s, payload, deck_of, &correct));
      if (i >= n || reqs[i].answered) continue;
      Request& r = reqs[i];
      r.done_ms = done;
      r.answered = true;
      r.correct = correct;
      ++received;
    }
    if (std::all_of(conns.fds.begin(), conns.fds.end(), [](const pollfd& p) { return p.fd < 0; })) break;
  }
  sender.join();
  for (std::size_t i = 0; i < conns.fds.size(); ++i) conns.fds[i].fd = conns.c[i].fd();
  if (send_failed) *transport_ok = false;
  // Back on the schedule's own clock, so stretches line up in a trace.
  for (Request& r : reqs) r.due_ms += base_ms, r.sent_ms += base_ms, r.done_ms += base_ms;
  return reqs;
}

struct ClosedResult {
  std::size_t attempted = 0;
  std::size_t correct = 0;
  double elapsed_s = 0.0;
  std::int64_t next_id = 0;  // the id the next closed-loop stretch starts at
};

// Closed loop: each connection sends its next request as soon as its
// previous one is answered, for `seconds`. Closed-loop ids start after the
// open loop's and continue from `first_id` across stretches, walking
// closed_seq.
ClosedResult closed_loop(const ServeSetup& s, Conns& conns, double seconds, std::int64_t first_id) {
  ClosedResult r;
  const auto base = static_cast<std::int64_t>(s.in.open_seq.size());
  const auto deck_of = [&](std::int64_t id) {
    return id >= base ? s.in.closed_seq[static_cast<std::size_t>(id - base) % s.in.closed_seq.size()]
                      : s.refs.size();
  };
  std::int64_t next = first_id;
  const auto send = [&](std::size_t c) {
    pg::serve::write_frame(conns.c[c].fd(), request_frame(s, deck_of(next), next));
    ++next;
    ++r.attempted;
  };
  const auto t0 = Clock::now();
  std::vector<bool> busy(conns.c.size(), true);
  for (std::size_t c = 0; c < conns.c.size(); ++c) send(c);
  std::string payload;
  double last_done = 0.0;
  while (std::find(busy.begin(), busy.end(), true) != busy.end()) {
    if (secs_since(t0) > seconds + 60.0) break;  // a stuck daemon: unanswered requests count as failed
    if (poll(conns.fds.data(), conns.fds.size(), 100) < 0 && errno != EINTR) break;
    for (std::size_t c = 0; c < conns.fds.size(); ++c) {
      if (!busy[c] || (conns.fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!pg::serve::read_frame(conns.fds[c].fd, &payload)) throw std::runtime_error("serve closed a connection");
      last_done = secs_since(t0);
      bool correct = false;
      check_response(s, payload, deck_of, &correct);
      r.correct += correct;
      if (last_done < seconds)
        send(c);
      else
        busy[c] = false;
    }
  }
  r.elapsed_s = last_done;
  r.next_id = next;
  return r;
}

pg::obs::JsonValue fetch_stats(const ServeSetup& s) {
  auto c = pg::serve::ServeClient::connect_unix(s.socket_path);
  const auto resp = c.admin("stats", 1);
  const auto* stats = resp.find("stats");
  if (stats == nullptr) throw std::runtime_error("serve: no stats document");
  return *stats;
}

double stats_num(const pg::obs::JsonValue& root, std::initializer_list<const char*> keys) {
  const pg::obs::JsonValue* v = &root;
  for (const char* k : keys) {
    if (!v->is_object() || (v = v->find(k)) == nullptr) return 0.0;
  }
  return v->is_number() ? v->as_double() : 0.0;
}

struct PhaseResults {
  std::vector<Request> open;  // indexed by request id
  ClosedResult closed;        // summed over the stretches
  std::vector<pg::obs::JsonValue> open_stats;  // stats document after each open stretch
  pg::obs::JsonValue stats;                    // ...and at the end
  bool transport_ok = true;
  int exit_code = 0;
};

// The first `open_n` open-loop requests and `closed_s` of saturation,
// interleaved in `passes` back-to-back stretches (open, then closed) so a
// change in the host's speed during the run reaches both phases alike;
// then the daemon is stopped. With a probe, the host is probed after each
// stretch, while the daemon is idle.
PhaseResults run_phases(const ServeSetup& s, std::unique_ptr<Daemon> d, std::size_t open_n,
                        double closed_s, int passes, HostProbe* probe = nullptr) {
  PhaseResults r;
  {
    Conns conns(s, *d);
    r.closed.next_id = static_cast<std::int64_t>(s.in.open_seq.size());
    for (int p = 0; p < passes; ++p) {
      const std::size_t first = open_n * static_cast<std::size_t>(p) / static_cast<std::size_t>(passes);
      const std::size_t last = open_n * static_cast<std::size_t>(p + 1) / static_cast<std::size_t>(passes);
      bool ok = true;
      const auto part = open_loop(s, conns, first, last - first, &ok);
      r.transport_ok &= ok;
      r.open.insert(r.open.end(), part.begin(), part.end());
      r.open_stats.push_back(fetch_stats(s));
      if (probe) probe->sample();
      if (closed_s <= 0.0) continue;
      const ClosedResult c = closed_loop(s, conns, closed_s / passes, r.closed.next_id);
      if (probe) probe->sample();
      r.closed.attempted += c.attempted;
      r.closed.correct += c.correct;
      r.closed.elapsed_s += c.elapsed_s;
      r.closed.next_id = c.next_id;
    }
  }
  r.stats = fetch_stats(s);
  r.exit_code = d->stop();
  if (r.exit_code != 0) note("serve_mixed: daemon exited %d: %s", r.exit_code, head_of_file(s.log_path).c_str());
  return r;
}

void report_properties(const ServeSetup& s) {
  const auto p = measure_properties(s.in.pool, s.in.open_seq, kServeBatchWindow);
  std::string hist;
  for (const auto& [bucket, count] : p.size_histogram) hist += " " + bucket + ":" + std::to_string(count);
  note("serve_mixed inputs: %zu open-loop requests over %zu decks; hier share %.3f, "
       "repeat-within-%zu share %.3f, distinct share %.3f; devices histogram%s",
       s.in.open_seq.size(), s.in.pool.size(), p.hier_share, kServeBatchWindow, p.dup_share,
       p.distinct_share, hist.c_str());
}

Outcome run_untraced(const RunArgs& a, const ServeSetup& s) {
  Outcome o;
  HostProbe& probe = *a.probe;
  std::vector<double> setup;
  std::unique_ptr<Daemon> d;
  for (int i = 0; i < kServeSetupSpawns; ++i) {
    if (d) d->stop();
    probe.sample();
    double t = 0.0;
    d = spawn(a, s, &t);
    setup.push_back(t);
  }
  const PhaseResults r = run_phases(s, std::move(d), s.in.open_seq.size(),
                                    a.seconds * (1.0 - kServeOpenShare), kServePasses, &probe);
  const double f = host_factor(probe);
  // Goodput at the reference probe time: latency * f <= limit.
  const OpenLoopSummary sum = summarize_open_loop(r.open, kServeLimitMs / f);
  o.attempted = sum.attempted + r.closed.attempted;
  o.failed = o.attempted - sum.correct - r.closed.correct;
  o.correct = o.failed == 0 && r.transport_ok && r.exit_code == 0;
  if (sum.latencies_ms.empty() || r.closed.elapsed_s <= 0.0) return o;
  const double answers_per_s = static_cast<double>(r.closed.correct) / r.closed.elapsed_s;
  o.metrics["setup_s"] = median(setup) * f;
  o.metrics["latency_p50_ms"] = percentile(sum.latencies_ms, 50) * f;
  o.metrics["latency_tail_ms"] = percentile(sum.latencies_ms, kServeTailPct) * f;
  o.metrics["decks_per_s"] = answers_per_s / f;
  o.metrics["slo_goodput"] = sum.goodput();
  o.metrics["ok_share"] = static_cast<double>(o.attempted - o.failed) / static_cast<double>(o.attempted);
  o.metrics["peak_rss_mb"] = stats_num(r.stats, {"process", "peak_rss_kb"}) / 1024.0;
  note("serve_mixed: open loop %zu requests at %.1f/s, tail = p%d; saturation %zu requests in %.1f s; "
       "generator late p99 %.2f ms; daemon batches %.0f (mean size %.2f), coalesced %.0f of %.0f",
       sum.attempted, kServeRatePerS, kServeTailPct, r.closed.attempted, r.closed.elapsed_s,
       sum.lateness_ms.empty() ? 0.0 : percentile(sum.lateness_ms, 99),
       stats_num(r.stats, {"server", "batches"}),
       stats_num(r.stats, {"metrics", "histograms", "serve.batch_size", "mean"}),
       stats_num(r.stats, {"server", "coalesced"}), stats_num(r.stats, {"server", "responses"}));
  note("serve_mixed: raw setup %.4f s, %.1f answers/s, open-loop latency %s; host probe median %.2f ms "
       "(factor %.3f)",
       median(setup), answers_per_s, percentile_summary(sum.latencies_ms).c_str(), probe.median_ms(), f);
  return o;
}

// ---- traced run -----------------------------------------------------------

// The daemon's own per-request record (the always-on `recent` ring of its
// stats document) of one open-loop request.
struct DaemonRecord {
  std::size_t id = 0;  // open-loop request id
  bool hier = false;
  bool coalesced = false;
  double deck_bytes = 0.0;
  double queue_us = 0.0, parse_us = 0.0, plan_us = 0.0, predict_us = 0.0, serialize_us = 0.0,
         total_us = 0.0;
  double service_us() const { return parse_us + plan_us + predict_us; }
};

// The ok records of open-loop requests 0..n-1 in the stats documents,
// each request once.
std::vector<DaemonRecord> open_records(const ServeSetup& s, const std::vector<pg::obs::JsonValue>& docs,
                                       std::size_t n) {
  std::vector<DaemonRecord> out;
  std::vector<bool> seen(n, false);
  for (const auto& stats : docs) {
    const auto* recent = stats.find("recent");
    if (recent == nullptr || !recent->is_array()) continue;
    for (const auto& e : recent->elements()) {
      const auto* id = e.find("client_id");
      const auto* ok = e.find("ok");
      const auto* phases = e.find("phases");
      if (id == nullptr || !id->is_number() || id->as_int() < 0 || id->as_int() >= static_cast<std::int64_t>(n) ||
          seen[static_cast<std::size_t>(id->as_int())] || ok == nullptr || !ok->is_bool() || !ok->as_bool() ||
          phases == nullptr)
        continue;
      DaemonRecord r;
      r.id = static_cast<std::size_t>(id->as_int());
      seen[r.id] = true;
      r.hier = s.in.pool[s.in.open_seq[r.id]].hier;
      const auto* co = e.find("coalesced");
      r.coalesced = co != nullptr && co->is_bool() && co->as_bool();
      r.deck_bytes = stats_num(e, {"deck_bytes"});
      r.queue_us = stats_num(*phases, {"queue_us"});
      r.parse_us = stats_num(*phases, {"parse_us"});
      r.plan_us = stats_num(*phases, {"plan_us"});
      r.predict_us = stats_num(*phases, {"predict_us"});
      r.serialize_us = stats_num(*phases, {"serialize_us"});
      r.total_us = stats_num(*phases, {"total_us"});
      out.push_back(r);
    }
  }
  return out;
}

// Mean of `field` in ms over the records that did their own work (a
// coalesced record repeats its group's figures) and pass `keep`.
template <typename Field, typename Keep>
double mean_ms(const std::vector<DaemonRecord>& recs, Field field, Keep keep) {
  std::vector<double> v;
  for (const auto& r : recs)
    if (!r.coalesced && keep(r)) v.push_back(field(r) / 1000.0);
  return mean(v);
}

Outcome run_traced(const RunArgs& a, const ServeSetup& s) {
  Outcome o;
  Tracer t(true);
  const std::size_t n_open = s.in.open_seq.size();
  const std::string ring = std::to_string(n_open + 16);

  // Run A: the daemon as the untraced run starts it, with a request ring
  // that holds the whole open loop. Its always-on records give the parse,
  // plan and predict phases of every request; its stats document the
  // serve.* figures.
  double setup_s = 0.0;
  HostProbe& probe = *a.probe;
  probe.sample();
  const PhaseResults ra = run_phases(s, spawn(a, s, &setup_s, {"--recent", ring}), n_open,
                                     a.seconds * (1.0 - kServeOpenShare), kServePasses, &probe);
  // Run B: the same daemon with --metrics-out (instrumentation on) over the
  // first half of the open loop. Its phase profile shows where the
  // normaliser rebuild runs; its records against A's price the
  // instrumentation.
  const std::string profile_path = a.work_dir + "/serve-metrics.json";
  const std::size_t n_half = n_open / 2;
  const PhaseResults rb = run_phases(
      s, spawn(a, s, &setup_s, {"--recent", ring, "--metrics-out", profile_path}), n_half, 0.0, 1);
  const auto profile = read_json_file(profile_path);

  const OpenLoopSummary sum = summarize_open_loop(ra.open, kServeLimitMs);
  const OpenLoopSummary sum_b = summarize_open_loop(rb.open, kServeLimitMs);
  o.attempted = sum.attempted + ra.closed.attempted + sum_b.attempted;
  o.failed = o.attempted - sum.correct - ra.closed.correct - sum_b.correct;
  o.correct = o.failed == 0 && ra.transport_ok && rb.transport_ok && ra.exit_code == 0 && rb.exit_code == 0;

  const auto recs = open_records(s, ra.open_stats, n_open);
  const auto recs_b = open_records(s, rb.open_stats, n_half);
  for (std::size_t i = 0; i < ra.open.size(); ++i) {
    const Request& q = ra.open[i];
    if (!q.answered) continue;
    // Generator spans on lane 2, timed from the open loop's start.
    const int root = t.add({"loadgen.request", q.due_ms * 1000.0, q.done_ms * 1000.0, -1,
                            static_cast<std::int64_t>(i), 2});
    t.add({"loadgen.late", q.due_ms * 1000.0, q.sent_ms * 1000.0, root, static_cast<std::int64_t>(i), 2});
  }
  // The daemon's phases of each request on lane 3, laid out in order and
  // ending when the generator saw the answer.
  for (const DaemonRecord& r : recs) {
    const double end = ra.open[r.id].done_ms * 1000.0;
    const auto rid = static_cast<std::int64_t>(r.id);
    const int root = t.add({"daemon.request", end - r.total_us, end, -1, rid, 3});
    double at = end - r.total_us;
    for (const auto& [name, us] : {std::pair<const char*, double>{"daemon.queue", r.queue_us},
                                   {"daemon.parse", r.parse_us}, {"daemon.plan", r.plan_us},
                                   {"daemon.predict", r.predict_us}, {"daemon.serialize", r.serialize_us}}) {
      if (us > 0.0) t.add({name, at, at + us, root, rid, 3});
      at += us;
    }
  }

  o.metrics["loadgen.late_ms.p99"] = sum.lateness_ms.empty() ? 0.0 : percentile(sum.lateness_ms, 99);
  o.metrics["serve.queue_wait_ms.p50"] =
      stats_num(ra.stats, {"metrics", "histograms", "serve.queue_wait_us.normal", "p50"}) / 1000.0;
  o.metrics["serve.queue_wait_ms.p99"] =
      stats_num(ra.stats, {"metrics", "histograms", "serve.queue_wait_us.normal", "p99"}) / 1000.0;
  o.metrics["serve.batch_size.mean"] = stats_num(ra.stats, {"metrics", "histograms", "serve.batch_size", "mean"});
  const double responses = stats_num(ra.stats, {"server", "responses"});
  o.metrics["serve.coalesced_share"] =
      responses > 0.0 ? stats_num(ra.stats, {"server", "coalesced"}) / responses : 0.0;
  o.metrics["serve.rejected"] = stats_num(ra.stats, {"server", "rejected"});
  o.metrics["serve.errors"] = stats_num(ra.stats, {"server", "errors"});
  const double hits = stats_num(ra.stats, {"metrics", "counters", "plancache.hits"});
  const double misses = stats_num(ra.stats, {"metrics", "counters", "plancache.misses"});
  o.metrics["gnn.plan_cache.hit_share"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;

  // The daemon's request phases. Its parse phase includes the graph build.
  const auto all = [](const DaemonRecord&) { return true; };
  const auto flat = [](const DaemonRecord& r) { return !r.hier; };
  const auto hier = [](const DaemonRecord& r) { return r.hier; };
  o.metrics["circuit.parse_ms"] = mean_ms(recs, [](const DaemonRecord& r) { return r.parse_us; }, all);
  double bytes = 0.0, parse_us = 0.0;
  for (const auto& r : recs)
    if (!r.coalesced) bytes += r.deck_bytes, parse_us += r.parse_us;
  o.metrics["circuit.parse_mb_per_s"] = parse_us > 0.0 ? bytes / 1048576.0 / (parse_us / 1e6) : 0.0;
  o.metrics["gnn.plan_ms"] = mean_ms(recs, [](const DaemonRecord& r) { return r.plan_us; }, flat);
  o.metrics["core.ensemble_ms"] = mean_ms(recs, [](const DaemonRecord& r) { return r.predict_us; }, flat);
  o.metrics["gnn.cached_forward_ms"] = mean_ms(recs, [](const DaemonRecord& r) { return r.predict_us; }, hier);

  // Where the normaliser rebuild runs, from run B's phase profile: at
  // start-up (`serve_normalizer_build`), and any `dataset_build` inside
  // the worker's batches, as a share of the batches' time.
  const ProfileNode startup_build = profile_node(profile, "serve_normalizer_build");
  o.metrics["dataset.normalizer_ms"] = startup_build.count > 0 ? startup_build.total_ms / startup_build.count : 0.0;
  double in_batch_ms = 0.0;
  if (const auto* nodes = profile.find("profile"))
    for (const auto& [path, node] : nodes->items())
      if (path.rfind("serve_batch/", 0) == 0 && path.size() >= 14 &&
          path.compare(path.size() - 14, 14, "/dataset_build") == 0)
        in_batch_ms += stats_num(node, {"total_ms"});
  const double batch_ms = profile_node(profile, "serve_batch").total_ms;
  o.metrics["dataset.normalizer_share"] = batch_ms > 0.0 ? in_batch_ms / batch_ms : 0.0;
  // Instrumentation cost: mean service time (parse + plan + predict) of the
  // same requests in run B over run A.
  const auto service = [](const DaemonRecord& r) { return r.service_us(); };
  const auto first_half = [n_half](const DaemonRecord& r) { return r.id < n_half; };
  const double svc_a = mean_ms(recs, service, first_half);
  const double svc_b = mean_ms(recs_b, service, all);
  o.metrics["obs.trace_overhead_share"] = svc_a > 0.0 ? (svc_b - svc_a) / svc_a : 0.0;

  // In process, for the layers the daemon has no phase for: artifact load
  // (under a "setup" span, outside every request), parse and graph build
  // separately, one forward per member, and Matrix accounting.
  std::optional<pg::core::CapEnsemble> ens;
  {
    Scope st(t, "setup");
    for (int i = 0; i < 3; ++i) {
      Scope sc(t, "core.load");
      ens.emplace(pg::core::CapEnsemble::load(s.ens_path));
    }
  }
  const auto ds = pg::dataset::build_dataset(ens->model(0).config().seed, ens->model(0).config().scale);
  const std::size_t count = std::min<std::size_t>(60, n_open);
  for (std::size_t i = 0; i < count; ++i) {
    Scope req(t, "request", static_cast<std::int64_t>(i));
    pg::circuit::Netlist nl;
    {
      Scope sc(t, "circuit.parse");
      nl = pg::circuit::parse_spice_string(s.in.pool[s.in.open_seq[i]].text);
    }
    Scope sc(t, "graph.build");
    pg::graph::build_graph(nl);
  }
  double allocs = 0.0, peak_mb = 0.0;
  std::size_t flat_decks = 0;
  for (std::size_t k = 0; k < s.in.pool.size(); ++k) {
    const Deck& d = s.in.pool[k];
    if (d.hier) continue;
    const auto sample = sample_from_text(d.text);
    const auto plan = pg::gnn::GraphPlan::build(sample.graph, ens->model(0).needs_homo());
    {
      Scope probe(t, "probe", static_cast<std::int64_t>(1000 + k));
      for (std::size_t m = 0; m < ens->num_models(); ++m) {
        Scope sc(t, d.devices >= kLargeDeckDevices ? "gnn.forward_large" : "gnn.forward_small");
        ens->model(m).predict_all(ds, sample, plan);
      }
    }
    pg::obs::set_enabled(true);
    pg::obs::MemTracker::instance().reset();
    ens->predict_with_plan(ds, sample, plan);
    allocs += static_cast<double>(pg::obs::MemTracker::instance().allocs());
    peak_mb = std::max(peak_mb, static_cast<double>(pg::obs::MemTracker::instance().peak_bytes()) / 1048576.0);
    pg::obs::set_enabled(false);
    ++flat_decks;
  }
  const auto lt = t.layer_times();
  o.metrics["core.load_ms"] = self_ms_per_call(lt, "core.load");
  o.metrics["graph.build_ms"] = self_ms_per_call(lt, "graph.build");
  for (const char* name : {"gnn.forward_small", "gnn.forward_large"})
    o.metrics[std::string(name) + "_ms"] = self_ms_per_call(lt, name);
  o.metrics["nn.matrix_allocs"] = flat_decks > 0 ? allocs / static_cast<double>(flat_decks) : 0.0;
  o.metrics["nn.matrix_peak_mb"] = peak_mb;
  const auto p = measure_properties(s.in.pool, s.in.open_seq, kServeBatchWindow);
  o.metrics["inputs.hier_share"] = p.hier_share;
  o.metrics["inputs.repeat_share"] = p.dup_share;
  o.metrics["host.mem_probe_ms"] = probe.median_ms();

  const auto in_request = t.layer_times("daemon.request");
  double request_us = 0.0;
  for (const auto& r : recs) request_us += r.total_us;
  note("serve_mixed traced: the daemon's own phases over %zu open-loop requests (%zu coalesced):",
       recs.size(), static_cast<std::size_t>(std::count_if(recs.begin(), recs.end(),
                                                           [](const DaemonRecord& r) { return r.coalesced; })));
  for (const auto& [name, l] : in_request)
    note("  %-22s calls %4zu  self %9.2f ms  (%.1f%% of request time)", name.c_str(), l.calls,
         l.self_us / 1000.0, request_us > 0.0 ? 100.0 * l.self_us / request_us : 0.0);
  note("  normaliser rebuild: %.2f ms at start-up, %.2f ms inside batches (program profile)",
       startup_build.total_ms, in_batch_ms);
  note("serve_mixed traced: in-process replay (outside the daemon):");
  for (const char* name : {"core.load", "circuit.parse", "graph.build", "gnn.forward_small", "gnn.forward_large"})
    if (lt.count(name))
      note("  %-22s calls %4zu  self %9.2f ms", name, lt.at(name).calls, lt.at(name).self_us / 1000.0);
  if (!t.write_chrome_json(a.trace_path)) note("cannot write trace %s", a.trace_path.c_str());
  return o;
}

}  // namespace

Outcome run_serve_mixed(const RunArgs& a) {
  const ServeSetup s = prepare(a);
  report_properties(s);
  return a.trace ? run_traced(a, s) : run_untraced(a, s);
}

}  // namespace e2ebench
