// serve-tpcapp: the TCP routing server under an open-loop schedule.
//
// TPC-App EB=300 at table granularity, greedy on 6 backends, served by an
// in-process net::QueryRoutingServer on loopback, with per-class token
// buckets set far above any class's rate. One generator thread (the
// main thread) drives it over three non-blocking, pipelined connections:
//
//   - SUBMITs follow a seeded Poisson schedule whose classes are sampled
//     from the TPC-App frequencies (reads and ROWA updates mixed);
//   - every backend a SUBMIT is routed to gets a DONE once the class's mean
//     cost has passed, so backends hold several requests each and
//     least-pending picks have depths to compare (net.pending_mean);
//   - a fourth connection scrapes METRICS once a second during the warm-up
//     and the reference step.
//
// A warm-up and a reference step at a fixed rate give the client latency
// figures, each request timed from its due time, and the server CPU per
// SUBMIT. The reference step's SUBMIT/DONE stream is then replayed in
// process through the server's user-space path, one request at a time, for
// the operation latency (README.md says why). A fixed ladder of rising
// rates follows the reference step; the capacity under the p99 limit is
// interpolated from it (CapacityFromLadder). A step in which the generator
// itself ran late is invalid, not slow.
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/greedy.h"
#include "cluster/pending_index.h"
#include "cluster/scheduler.h"
#include "common/random.h"
#include "heap_counter.h"
#include "model/validation.h"
#include "net/client.h"
#include "net/dispatcher.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "workload/classifier.h"
#include "workloads.h"
#include "workloads/tpcapp.h"

namespace qcap::perfbench {
namespace {

constexpr size_t kBackends = 6;
constexpr size_t kLoadConnections = 3;
/// Client p99 limit a passing ladder step must meet (unloaded p99 is about
/// 0.1 ms).
constexpr double kP99Limit = 1e-3;
/// A step whose generator ran later than this (windowed p99) is invalid.
constexpr double kLateLimit = 1e-3;
/// METRICS scrape interval during the warm-up and reference steps. The
/// ladder runs without scrapes: a scrape sorts every routing-latency sample
/// under the routing lock, and its stall would decide the capacity instead
/// of the routing path.
constexpr double kScrapeInterval = 1.0;
/// Tails are taken per 62.5 ms window (1000 SUBMITs at the reference rate,
/// so each window has a true p99): on a virtualized host, stalls of the
/// server or generator thread hit some short windows and would otherwise
/// decide a step's p99. Steps are judged by the median over windows.
constexpr double kWindowSeconds = 0.0625;
/// Reference step: a fixed rate at which the server thread is about 40%
/// busy on the reference host. Near saturation (85% busy at 48k/s) every
/// host stall queues requests and changes how the server batches, so the
/// figures would follow the host, not the server.
constexpr double kReferenceQps = 16000.0;
constexpr double kWarmupSeconds = 0.5;
/// Capacity ladder: fixed rates from well below to beyond capacity.
constexpr double kLadderFirstQps = 40000.0;
constexpr double kLadderRatio = 1.12;
constexpr size_t kLadderSteps = 12;
constexpr double kLadderStepSeconds = 0.3;
/// DONE delay = class mean cost x this. The mean cost is the per-execution
/// time the allocation was planned for and the service time the simulator
/// draws, so at scale 1 a backend holds a request as long as the cost model
/// says it runs (0.13-33 ms; about 1 ms over the TPC-App mix).
constexpr double kServiceTimeScale = 1.0;
/// Per-class admission budget, SUBMIT/s (burst: one second of it). About 7x
/// the top ladder rate of all classes together, so the token bucket is
/// charged on every SUBMIT and never refuses one; a refusal is a failure.
constexpr double kRateLimitQps = 1e6;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Everything set-up builds: the classified workload, its allocation and
/// the running server.
struct Served {
  engine::Catalog catalog;
  QueryJournal journal;
  Classification cls;
  Allocation alloc;
  std::unique_ptr<net::QueryRoutingServer> server;
  double classify_s = 0.0;
};

net::ServerOptions ServeOptions() {
  net::ServerOptions options;
  options.limits.rate_limit_qps = kRateLimitQps;
  return options;
}

Status SetUp(Served* s) {
  s->catalog = workloads::TpcAppCatalog(300.0);
  s->journal = workloads::TpcAppJournal(200000);
  const Clock::time_point t0 = Clock::now();
  Classifier classifier(s->catalog,
                        ClassifierOptions{Granularity::kTable, 4, true});
  QCAP_ASSIGN_OR_RETURN(s->cls, classifier.Classify(s->journal));
  s->classify_s = SecondsSince(t0);
  const std::vector<BackendSpec> backends = HomogeneousBackends(kBackends);
  QCAP_ASSIGN_OR_RETURN(s->alloc, GreedyAllocator().Allocate(s->cls, backends));
  QCAP_RETURN_NOT_OK(ValidateAllocation(s->cls, s->alloc, backends));
  QCAP_ASSIGN_OR_RETURN(
      s->server, net::QueryRoutingServer::Create(s->cls, s->alloc, ServeOptions()));
  return s->server->Start();
}

/// Per-class DONE delay, seconds: mean cost x kServiceTimeScale; reads
/// first, then updates.
std::vector<double> ServiceDelays(const Classification& cls) {
  std::vector<double> out;
  for (const auto* list : {&cls.reads, &cls.updates}) {
    for (const QueryClass& c : *list) {
      out.push_back(c.mean_cost * kServiceTimeScale);
    }
  }
  return out;
}

/// "SUBMIT R<i>" for every read class, then "SUBMIT U<j>" for every update
/// class: the request text of each class slot.
std::vector<std::string> SubmitTokens(const Classification& cls) {
  std::vector<std::string> tokens;
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    tokens.push_back("SUBMIT R" + std::to_string(r));
  }
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    tokens.push_back("SUBMIT U" + std::to_string(u));
  }
  return tokens;
}

/// One request waiting for its reply on a connection (replies come back in
/// order per connection).
struct Inflight {
  int64_t due_ns = 0;
  int32_t step = -1;        ///< Ladder step of a SUBMIT; -1 for a DONE.
  uint32_t class_slot = 0;  ///< Reads first, then updates.
};

struct Connection {
  net::Socket sock;
  net::FrameDecoder decoder;
  std::string out;
  size_t out_offset = 0;
  std::deque<Inflight> inflight;
};

struct PendingDone {
  int64_t due_ns = 0;
  uint32_t conn = 0;
  uint32_t backend = 0;
  /// Stream position of the SUBMIT it completes and which of its routed
  /// backends it is, when that SUBMIT belongs to the reference step; else -1.
  int64_t ordinal = -1;
  uint32_t k = 0;
  bool operator>(const PendingDone& o) const { return due_ns > o.due_ns; }
};

/// What one step of the schedule measured.
struct StepStats {
  double offered_qps = 0.0;
  double duration_s = 0.0;
  bool traced = false;   ///< Counts heap allocations.
  bool scraped = false;  ///< The scraper runs during this step.
  std::vector<Arrival> arrivals;  ///< The step's schedule, from the seed.
  std::vector<double> latency;  ///< From due time, seconds.
  /// The same latencies split by due time into kWindowSeconds windows.
  std::vector<std::vector<double>> windows;
  int64_t start_ns = 0;
  std::vector<double> late;     ///< Send time minus due time, seconds.
  std::vector<std::vector<double>> late_windows;
  uint64_t submitted = 0;
  uint64_t answered = 0;
  /// The step's unanswered SUBMITs, sampled every millisecond.
  std::vector<double> backlog;
  /// Each backend's pending depth as the client knows it (routed by a
  /// reply, DONE not yet sent), sampled with the backlog: kBackends values
  /// per sample.
  std::vector<double> pending;
  double server_cpu_s = 0.0;
  uint64_t heap_allocs = 0;
};

/// A step's backlog grew when, over its last quarter, the median number of
/// unanswered SUBMITs exceeds what the latency limit allows at the offered
/// rate (Little's law: rate x limit). The median ignores a single stall.
bool BacklogGrew(const StepStats& step) {
  const size_t n = step.backlog.size();
  if (n == 0) return false;
  const std::vector<double> tail(step.backlog.begin() + static_cast<long>(n - (n + 3) / 4),
                                 step.backlog.end());
  return Median(tail) > step.offered_qps * kP99Limit;
}

/// The generator kept to its schedule: the median over the step's windows
/// of the send-lateness p99 is within kLateLimit.
bool GeneratorKeptUp(const StepStats& step) {
  return WindowedTail(step.late_windows, 0.99) <= kLateLimit;
}

struct LoadReport {
  std::vector<StepStats> steps;  ///< Warm-up, reference step(s), ladder.
  std::vector<double> scrape_s;
  /// qcap_backend_pending values of every METRICS reply, all backends.
  std::vector<double> scraped_pending;
  uint64_t submits = 0;
  uint64_t dones = 0;
  uint64_t err_rate_limited = 0;
  uint64_t err_unservable = 0;
  uint64_t err_other = 0;
  uint64_t transport_errors = 0;
  uint64_t unanswered = 0;
  /// The frames the reference step sent, for the in-process replay:
  /// SUBMIT tokens and, per DONE, the index of its SUBMIT and which of its
  /// routed backends it completes.
  std::vector<std::pair<int64_t, uint32_t>> reference_stream;
};

/// The single-threaded open-loop generator.
class Generator {
 public:
  Generator(const Classification& cls, std::vector<double> delays)
      : cls_(cls), delays_(std::move(delays)), tokens_(SubmitTokens(cls)) {
    for (size_t b = 0; b < kBackends; ++b) {
      done_tokens_.push_back("DONE " + std::to_string(b));
    }
  }

  Status Connect(uint16_t port) {
    for (size_t c = 0; c <= kLoadConnections; ++c) {
      QCAP_ASSIGN_OR_RETURN(net::Socket sock,
                            net::Socket::ConnectTcp("127.0.0.1", port));
      QCAP_RETURN_NOT_OK(sock.SetNoDelay(true));
      QCAP_RETURN_NOT_OK(sock.SetNonBlocking(true));
      conns_.push_back(std::make_unique<Connection>());
      conns_.back()->sock = std::move(sock);
    }
    return Status::OK();
  }

  /// Runs \p plan, every step in order, then drains. The frames of step
  /// \p reference_step are recorded for the in-process replay.
  LoadReport Run(std::vector<StepStats> plan, size_t reference_step) {
    report_ = LoadReport{};
    reference_index_ = static_cast<int32_t>(reference_step);
    report_.steps = std::move(plan);
    // The server's allocations are counted; the generator's own are not.
    heap::IgnoreThisThread(true);
    int64_t step_start = NowNs() + 1000000;
    next_scrape_ns_ = step_start;
    for (size_t i = 0; i < report_.steps.size(); ++i) {
      StepStats& step = report_.steps[i];
      const std::vector<Arrival>& arrivals = step.arrivals;
      scraping_ = step.scraped;
      step.latency.reserve(arrivals.size());
      step.start_ns = step_start;
      step.windows.resize(static_cast<size_t>(
          std::ceil(step.duration_s / kWindowSeconds)));
      step.late_windows.resize(step.windows.size());
      step.late.reserve(arrivals.size());
      const int64_t step_end =
          step_start + static_cast<int64_t>(step.duration_s * 1e9);
      const bool record_stream = i == reference_step;
      const double cpu0 = ProcessCpuSeconds();
      const double thread0 = ThreadCpuSeconds();
      const uint64_t heap0 = heap::Count();
      heap::Enable(step.traced);
      size_t next = 0;
      int64_t next_sample = step_start;
      while (true) {
        const int64_t now = NowNs();
        if (now >= next_sample) {
          step.backlog.push_back(static_cast<double>(step.submitted - step.answered));
          step.pending.insert(step.pending.end(), outstanding_,
                              outstanding_ + kBackends);
          next_sample += 1000000;
        }
        while (next < arrivals.size()) {
          const int64_t due =
              step_start + static_cast<int64_t>(arrivals[next].due_seconds * 1e9);
          if (due > now) break;
          const Arrival& a = arrivals[next];
          const uint32_t slot =
              a.is_read ? a.class_index
                        : static_cast<uint32_t>(cls_.reads.size()) + a.class_index;
          Connection& c = *conns_[next_conn_];
          net::AppendFrame(&c.out, tokens_[slot]);
          c.inflight.push_back({due, static_cast<int32_t>(i), slot});
          if (record_stream) {
            report_.reference_stream.emplace_back(-1, slot);
            submit_ordinal_[next_conn_].push_back(
                report_.reference_stream.size() - 1);
          }
          step.late.push_back(static_cast<double>(now - due) * 1e-9);
          step.late_windows[WindowOf(step, due)].push_back(step.late.back());
          ++step.submitted;
          ++report_.submits;
          next_conn_ = (next_conn_ + 1) % kLoadConnections;
          ++next;
        }
        if (now >= step_end && next == arrivals.size()) break;
        Service(now);
        int64_t wake = step_end;
        if (next < arrivals.size()) {
          wake = std::min(wake, step_start + static_cast<int64_t>(
                                                 arrivals[next].due_seconds * 1e9));
        }
        Wait(wake);
      }
      heap::Enable(false);
      step.heap_allocs = heap::Count() - heap0;
      step.server_cpu_s =
          (ProcessCpuSeconds() - cpu0) - (ThreadCpuSeconds() - thread0);
      step_start = step_end;
    }
    Drain();
    heap::IgnoreThisThread(false);
    return std::move(report_);
  }

 private:
  /// Sends due DONEs and scrapes, flushes, and reads replies.
  void Service(int64_t now) {
    while (!dones_.empty() && dones_.top().due_ns <= now) {
      const PendingDone d = dones_.top();
      dones_.pop();
      Connection& c = *conns_[d.conn];
      net::AppendFrame(&c.out, done_tokens_[d.backend]);
      c.inflight.push_back({d.due_ns, -1, 0});
      --outstanding_[d.backend];
      ++report_.dones;
      if (d.ordinal >= 0) report_.reference_stream.emplace_back(d.ordinal, d.k);
    }
    Connection& scraper = *conns_[kLoadConnections];
    if (scraping_ && now >= next_scrape_ns_ && scraper.inflight.empty()) {
      net::AppendFrame(&scraper.out, "METRICS");
      scraper.inflight.push_back({now, -1, 0});
      next_scrape_ns_ = now + static_cast<int64_t>(kScrapeInterval * 1e9);
    }
    for (size_t i = 0; i < conns_.size(); ++i) Flush(i);
    Read();
  }

  void Flush(size_t i) {
    Connection& c = *conns_[i];
    if (c.out_offset >= c.out.size()) return;
    size_t written = 0;
    const Status st = c.sock.SendAll(c.out.data() + c.out_offset,
                                     c.out.size() - c.out_offset, &written);
    c.out_offset += written;
    if (!st.ok() && st.code() != StatusCode::kResourceExhausted) {
      ++report_.transport_errors;
    }
    if (c.out_offset == c.out.size()) {
      c.out.clear();
      c.out_offset = 0;
    }
  }

  void Read() {
    char buf[64 * 1024];
    for (size_t i = 0; i < conns_.size(); ++i) {
      Connection& c = *conns_[i];
      if ((revents_[i] & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      revents_[i] = 0;
      while (true) {
        auto got = c.sock.RecvSome(buf, sizeof(buf));
        if (!got.ok()) {
          if (got.status().code() != StatusCode::kResourceExhausted) {
            ++report_.transport_errors;
          }
          break;
        }
        if (*got == 0) {
          ++report_.transport_errors;
          break;
        }
        c.decoder.Feed(buf, *got);
        if (*got < sizeof(buf)) break;
      }
      const int64_t now = NowNs();
      while (true) {
        const net::FrameDecoder::Pop pop = c.decoder.Next(&payload_);
        if (pop == net::FrameDecoder::Pop::kError) ++report_.transport_errors;
        if (pop != net::FrameDecoder::Pop::kFrame) break;
        if (c.inflight.empty()) {
          ++report_.transport_errors;
          continue;
        }
        const Inflight f = c.inflight.front();
        c.inflight.pop_front();
        if (i == kLoadConnections) {
          report_.scrape_s.push_back(static_cast<double>(now - f.due_ns) * 1e-9);
          ParsePending(payload_, &report_.scraped_pending);
          continue;
        }
        if (f.step < 0) {  // DONE
          if (payload_ != "OK DONE") ++report_.err_other;
          continue;
        }
        OnSubmitReply(i, f, now);
      }
    }
  }

  void OnSubmitReply(size_t conn, const Inflight& f, int64_t now) {
    StepStats& step = report_.steps[static_cast<size_t>(f.step)];
    ++step.answered;
    int64_t ordinal = -1;
    if (f.step == reference_index_) {
      ordinal = static_cast<int64_t>(submit_ordinal_[conn].front());
      submit_ordinal_[conn].pop_front();
    }
    if (payload_.rfind("OK BACKEND", 0) != 0) {
      // Refused or failed: a failure that also misses the latency limit.
      step.latency.push_back(std::numeric_limits<double>::infinity());
      step.windows[WindowOf(step, f.due_ns)].push_back(
          std::numeric_limits<double>::infinity());
      if (payload_.rfind("ERR RATE_LIMITED", 0) == 0) {
        ++report_.err_rate_limited;
      } else if (payload_.rfind("ERR UNSERVABLE", 0) == 0) {
        ++report_.err_unservable;
      } else {
        ++report_.err_other;
      }
      return;
    }
    step.latency.push_back(static_cast<double>(now - f.due_ns) * 1e-9);
    step.windows[WindowOf(step, f.due_ns)].push_back(step.latency.back());
    // "OK BACKEND 2" or "OK BACKENDS 0 1 3": one DONE per routed backend.
    const int64_t due = now + static_cast<int64_t>(delays_[f.class_slot] * 1e9);
    size_t pos = payload_.find(' ', 3);
    uint32_t k = 0;
    while (pos != std::string::npos) {
      const size_t start = pos + 1;
      pos = payload_.find(' ', start);
      const uint32_t backend = static_cast<uint32_t>(
          std::strtoul(payload_.c_str() + start, nullptr, 10));
      if (backend >= done_tokens_.size()) {
        ++report_.err_other;  // a backend id the allocation does not have
        continue;
      }
      dones_.push({due, static_cast<uint32_t>(conn), backend, ordinal, k});
      ++outstanding_[backend];
      ++k;
    }
  }

  /// Appends every `qcap_backend_pending{...} N` value of a METRICS reply.
  static void ParsePending(const std::string& text, std::vector<double>* out) {
    static constexpr std::string_view kKey = "qcap_backend_pending{";
    for (size_t at = text.find(kKey); at != std::string::npos;
         at = text.find(kKey, at + 1)) {
      const size_t value = text.find("} ", at);
      if (value != std::string::npos) {
        out->push_back(std::strtod(text.c_str() + value + 2, nullptr));
      }
    }
  }

  static size_t WindowOf(const StepStats& step, int64_t due_ns) {
    const auto w = static_cast<size_t>(static_cast<double>(due_ns - step.start_ns) *
                                       1e-9 / kWindowSeconds);
    return std::min(w, step.windows.size() - 1);
  }

  /// Polls until a connection is ready or the next event is due. It spins
  /// instead of sleeping: a sleeping thread on a virtualized host can wake
  /// milliseconds late, which would read as generator lateness.
  void Wait(int64_t until_ns) {
    int64_t wake = until_ns;
    if (!dones_.empty()) wake = std::min(wake, dones_.top().due_ns);
    if (scraping_ && conns_[kLoadConnections]->inflight.empty()) {
      wake = std::min(wake, next_scrape_ns_);
    }
    pollfd fds[kLoadConnections + 1];
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i]->sock.fd();
      fds[i].events = POLLIN;
      if (conns_[i]->out_offset < conns_[i]->out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    const timespec zero{0, 0};
    do {
      if (ppoll(fds, conns_.size(), &zero, nullptr) > 0) {
        for (size_t i = 0; i < conns_.size(); ++i) revents_[i] = fds[i].revents;
        return;
      }
    } while (NowNs() < wake);
  }

  /// Stops issuing and waits (at most 5 s) for every reply and DONE.
  void Drain() {
    scraping_ = false;
    const int64_t deadline = NowNs() + 5000000000LL;
    while (NowNs() < deadline) {
      bool idle = dones_.empty();
      for (const auto& c : conns_) idle = idle && c->inflight.empty();
      if (idle) break;
      Service(NowNs());
      Wait(std::min(deadline, NowNs() + 1000000));
    }
    for (size_t i = 0; i < kLoadConnections; ++i) {
      for (const Inflight& f : conns_[i]->inflight) {
        if (f.step >= 0) ++report_.unanswered;
      }
    }
    report_.unanswered += dones_.size();
  }

  const Classification& cls_;
  std::vector<double> delays_;
  std::vector<std::string> tokens_;
  std::vector<std::string> done_tokens_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::priority_queue<PendingDone, std::vector<PendingDone>,
                      std::greater<PendingDone>>
      dones_;
  size_t next_conn_ = 0;
  double outstanding_[kBackends] = {};  ///< Routed, DONE not yet sent.
  int64_t next_scrape_ns_ = 0;
  bool scraping_ = false;
  short revents_[kLoadConnections + 1] = {};
  int32_t reference_index_ = -1;
  std::vector<std::deque<size_t>> submit_ordinal_ =
      std::vector<std::deque<size_t>>(kLoadConnections);
  std::string payload_;
  LoadReport report_;
};

/// Replays a fixed read stream through a fresh server session and a
/// hand-driven Scheduler with identical pending bookkeeping; any divergence
/// is a routing-parity bug (the serving layer adds transport, not policy).
bool VerifyRoutingParity(const Classification& cls, const Allocation& alloc) {
  auto server = net::QueryRoutingServer::Create(cls, alloc, {});
  if (!server.ok() || !(*server)->Start().ok()) return false;
  auto client = net::Client::Connect("127.0.0.1", (*server)->port());
  auto direct = Scheduler::Build(cls, alloc);
  if (!client.ok() || !direct.ok()) return false;
  std::vector<size_t> pending(alloc.num_backends(), 0);
  std::deque<size_t> outstanding;
  const size_t reads = cls.reads.size();
  bool same = true;
  for (size_t step = 0; step < 400 && same; ++step) {
    const size_t r = (step * 7) % reads;
    const size_t expected = direct->PickReadBackend(r, pending);
    auto reply = client->Call("SUBMIT R" + std::to_string(r));
    if (!reply.ok()) return false;
    if (expected == PendingIndex::kNone) {
      same = reply->rfind("ERR UNSERVABLE", 0) == 0;
      continue;
    }
    same = *reply == "OK BACKEND " + std::to_string(expected);
    ++pending[expected];
    outstanding.push_back(expected);
    if (step % 3 == 2) {
      const size_t done = outstanding.front();
      outstanding.pop_front();
      --pending[done];
      if (!client->Call("DONE " + std::to_string(done)).ok()) return false;
    }
  }
  (*server)->Stop();
  return same;
}

/// STATS after the drain: every backend's pending depth must be back to 0.
bool PendingDrained(uint16_t port, std::string* stats_line) {
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return false;
  auto reply = client->Call("STATS");
  if (!reply.ok()) return false;
  *stats_line = *reply;
  const size_t at = reply->find("pending=");
  if (at == std::string::npos) return false;
  const size_t end = reply->find(' ', at);
  const std::string depths = reply->substr(at + 8, end - at - 8);
  for (char ch : depths) {
    if (ch != '0' && ch != ',') return false;
  }
  return true;
}

/// One connection, one request in flight, unloaded: SUBMIT round trips.
std::vector<double> UnloadedRtt(uint16_t port, const Classification& cls,
                                size_t samples) {
  std::vector<double> rtt;
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return rtt;
  for (size_t i = 0; i < samples; ++i) {
    const std::string token = "SUBMIT R" + std::to_string(i % cls.reads.size());
    const Clock::time_point t0 = Clock::now();
    auto reply = client->Call(token);
    rtt.push_back(SecondsSince(t0));
    if (!reply.ok() || reply->rfind("OK BACKEND ", 0) != 0) break;
    if (!client->Call("DONE " + reply->substr(11)).ok()) break;
  }
  return rtt;
}

struct Replay {
  /// Wall time of each request through the server's user-space path:
  /// frame decode -> Dispatcher::Execute -> reply encode.
  std::vector<double> request_s;
  /// Dispatcher::Execute (+ RecordRoutingLatency, as the server does) per
  /// SUBMIT, with its DONEs.
  double route_us = 0.0;
  double frame_us = 0.0;  ///< Decode + encode per SUBMIT (with DONEs).
  double heap_allocs = 0.0;  ///< Per SUBMIT, counted when traced.
};

/// Replays the reference step's SUBMIT/DONE stream in process, one request
/// at a time, through a fresh Dispatcher and the frame codec. Each DONE
/// names a backend the replay itself routed its SUBMIT to, so every DONE
/// completes real pending work.
Replay ReplayStream(const Served& s,
                    const std::vector<std::pair<int64_t, uint32_t>>& stream,
                    const std::vector<std::string>& submit_tokens,
                    bool traced) {
  Replay out;
  size_t submits = 0;
  for (const auto& e : stream) submits += e.first < 0 ? 1 : 0;
  auto created = net::Dispatcher::Create(s.cls, s.alloc, ServeOptions().limits);
  if (submits == 0 || !created.ok()) return out;
  net::Dispatcher& dispatcher = **created;
  net::FrameDecoder decoder;
  std::vector<std::string> replies;  // by stream position
  replies.reserve(stream.size());
  out.request_s.reserve(stream.size());
  std::string request, frame, payload, encoded;
  double route_s = 0.0, frame_s = 0.0;
  const uint64_t heap0 = heap::Count();
  const Clock::time_point start = Clock::now();
  const auto seconds = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  for (const auto& [ordinal, k] : stream) {
    if (ordinal < 0) {
      request = submit_tokens[k];
    } else {
      const std::string& r = replies[static_cast<size_t>(ordinal)];
      size_t pos = r.find(' ', 3);
      for (uint32_t j = 0; j < k && pos != std::string::npos; ++j) {
        pos = r.find(' ', pos + 1);
      }
      const size_t start = pos == std::string::npos ? r.size() : pos + 1;
      const size_t end = std::min(r.find(' ', start), r.size());
      request = "DONE " + r.substr(start, end - start);
    }
    frame.clear();
    net::AppendFrame(&frame, request);  // the client's encoding, untimed
    heap::Enable(traced);
    const Clock::time_point t0 = Clock::now();
    decoder.Feed(frame.data(), frame.size());
    decoder.Next(&payload);
    // As the server's session loop: Execute at the current time, and
    // record the routing latency of routed requests only.
    const Clock::time_point t1 = Clock::now();
    net::Dispatcher::Reply reply = dispatcher.Execute(payload, seconds(t1 - start));
    if (reply.routed) {
      dispatcher.RecordRoutingLatency(seconds(Clock::now() - t1));
    }
    const Clock::time_point t2 = Clock::now();
    encoded.clear();
    net::AppendFrame(&encoded, reply.text);
    const Clock::time_point t3 = Clock::now();
    heap::Enable(false);
    out.request_s.push_back(seconds(t3 - t0));
    route_s += seconds(t2 - t1);
    frame_s += seconds(t1 - t0) + seconds(t3 - t2);
    replies.push_back(std::move(reply.text));
  }
  const double n = static_cast<double>(submits);
  out.heap_allocs = static_cast<double>(heap::Count() - heap0) / n;
  out.route_us = route_s * 1e6 / n;
  out.frame_us = frame_s * 1e6 / n;
  return out;
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Mean and p99 of each backend's sampled pending depth in \p step, and of
/// the depths the server itself reported to the scraper.
std::string PendingNote(const StepStats& step, const LoadReport& load) {
  std::string note = "pending depth at the reference step (mean/p99):";
  char buf[64];
  for (size_t b = 0; b < kBackends; ++b) {
    std::vector<double> depth;
    for (size_t i = b; i < step.pending.size(); i += kBackends) {
      depth.push_back(step.pending[i]);
    }
    depth = Sorted(std::move(depth));
    std::snprintf(buf, sizeof(buf), " b%zu %.2f/%.0f", b, Mean(depth),
                  Percentile(depth, 0.99));
    note += buf;
  }
  std::snprintf(buf, sizeof(buf), "; server-reported mean %.2f over %zu scrapes",
                Mean(load.scraped_pending), load.scrape_s.size());
  return note + buf;
}

/// The run's steps: warm-up and reference step (twice in a traced run:
/// untraced, then traced) with the scraper, then the ladder. Durations
/// follow --seconds; arrivals come from the seed.
struct Schedule {
  std::vector<StepStats> steps;
  size_t reference = 0;
  size_t traced_reference = 0;
  size_t first_ladder = 0;
};

Schedule MakeSchedule(const Classification& cls, const RunOptions& options) {
  Schedule out;
  auto add = [&](double qps, double seconds, bool traced, bool scraped) {
    StepStats s;
    s.offered_qps = qps;
    s.duration_s = seconds;
    s.traced = traced;
    s.scraped = scraped;
    s.arrivals = MakeArrivals(cls, qps, seconds,
                              MixSeed(options.seed, 100 + out.steps.size()));
    out.steps.push_back(std::move(s));
  };
  const double reference_seconds =
      std::max(1.0, 0.45 * options.seconds) / (options.trace ? 2.0 : 1.0);
  add(kReferenceQps, kWarmupSeconds, false, true);
  out.reference = out.traced_reference = out.steps.size();
  add(kReferenceQps, reference_seconds, false, true);
  if (options.trace) {
    out.traced_reference = out.steps.size();
    add(kReferenceQps, reference_seconds, true, true);
  }
  out.first_ladder = out.steps.size();
  const double step_seconds =
      kLadderStepSeconds * std::max(1.0, options.seconds / 20.0);
  double rate = kLadderFirstQps;
  for (size_t i = 0; i < kLadderSteps; ++i, rate *= kLadderRatio) {
    add(rate, step_seconds, false, false);
  }
  return out;
}

}  // namespace

std::vector<Arrival> MakeArrivals(const Classification& cls, double qps,
                                  double duration_seconds, uint64_t seed) {
  std::vector<double> frequency;
  for (const auto* list : {&cls.reads, &cls.updates}) {
    for (const QueryClass& c : *list) {
      frequency.push_back(c.weight / std::max(c.mean_cost, 1e-12));
    }
  }
  double total = 0.0;
  for (double f : frequency) total += f;
  Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<size_t>(qps * duration_seconds * 1.1) + 16);
  double t = rng.NextExponential(1.0 / qps);
  while (t < duration_seconds) {
    double x = rng.NextDouble() * total;
    size_t slot = frequency.size() - 1;
    for (size_t i = 0; i < frequency.size(); ++i) {
      x -= frequency[i];
      if (x < 0.0) {
        slot = i;
        break;
      }
    }
    Arrival a;
    a.due_seconds = t;
    a.is_read = slot < cls.reads.size();
    a.class_index =
        static_cast<uint32_t>(a.is_read ? slot : slot - cls.reads.size());
    out.push_back(a);
    t += rng.NextExponential(1.0 / qps);
  }
  return out;
}

RunResult RunServeTpcApp(const RunOptions& options) {
  RunResult result;
  result.end_to_end = EndToEndMetricTemplate();
  result.per_layer = PerLayerMetricTemplate();

  // Set-up, repeated: classify, allocate, start the server. The last one
  // stays up and serves the run.
  std::vector<double> setup, classify;
  std::unique_ptr<Served> served;
  Schedule schedule;
  for (int i = 0; i < 5; ++i) {
    if (served) served->server->Stop();
    served = std::make_unique<Served>();
    const Clock::time_point t0 = Clock::now();
    const Status st = SetUp(served.get());
    if (st.ok()) schedule = MakeSchedule(served->cls, options);
    setup.push_back(SecondsSince(t0));
    classify.push_back(served->classify_s);
    if (!st.ok()) {
      result.Fail("set-up: " + st.ToString());
      return result;
    }
  }
  const Classification& cls = served->cls;
  const uint16_t port = served->server->port();
  const size_t reference = schedule.reference;
  const size_t traced_reference = schedule.traced_reference;
  const size_t first_ladder = schedule.first_ladder;

  Generator gen(cls, ServiceDelays(cls));
  if (const Status st = gen.Connect(port); !st.ok()) {
    result.Fail("connect: " + st.ToString());
    return result;
  }
  const LoadReport load =
      gen.Run(std::move(schedule.steps), reference);

  // Capacity from the ladder.
  std::vector<LadderStep> ladder;
  size_t invalid = 0;
  double late_p99_ref = 0.0;
  for (size_t i = first_ladder; i < load.steps.size(); ++i) {
    const StepStats& s = load.steps[i];
    LadderStep step;
    step.offered_qps = s.offered_qps;
    step.p99_seconds = WindowedTail(s.windows, 0.99);
    step.backlog_grew = BacklogGrew(s);
    step.valid = GeneratorKeptUp(s);
    invalid += step.valid ? 0 : 1;
    ladder.push_back(step);
  }
  const Capacity capacity = CapacityFromLadder(ladder, kP99Limit);

  const StepStats& ref = load.steps[reference];
  const std::vector<double> ref_lat = Sorted(ref.latency);
  late_p99_ref = Percentile(Sorted(ref.late), 0.99);
  const double p99_q = TailQuantile(ref_lat.size(), 0.99);
  const double answered = static_cast<double>(std::max<uint64_t>(1, ref.answered));

  // Correctness gates.
  std::string stats_line;
  if (!PendingDrained(port, &stats_line)) {
    result.Fail("STATS after drain shows pending work: " + stats_line);
  }
  if (!VerifyRoutingParity(cls, served->alloc)) {
    result.Fail("routing parity against a hand-driven Scheduler diverged");
  }
  result.notes.push_back(PendingNote(ref, load));
  if (late_p99_ref > kLateLimit) {
    result.notes.push_back("reference step invalid: generator ran late");
  }
  result.attempted = load.submits;
  result.failed = load.err_rate_limited + load.err_unservable + load.err_other +
                  load.transport_errors + load.unanswered;
  result.notes.push_back(
      "serve-tpcapp: " + std::to_string(load.submits) + " SUBMITs, " +
      std::to_string(load.steps.size() - first_ladder) + " ladder steps, capacity " +
      std::to_string(capacity.qps) + (capacity.bracketed ? "" : " (not bracketed)"));

  std::vector<Metric>& e2e = result.end_to_end;
  SetMetric(&e2e, "setup_s", Median(setup));
  // The operation is one request through the server's user-space path,
  // replayed in process from the reference step's own stream (README.md,
  // "Why serving latency is timed in process").
  const Replay replay = ReplayStream(*served, load.reference_stream,
                                     SubmitTokens(cls), options.trace);
  const std::vector<double> request_s = Sorted(replay.request_s);
  SetMetric(&e2e, "op_p50_ms", 1e3 * Percentile(request_s, 0.5));
  SetMetric(&e2e, "op_p99_ms",
            1e3 * Percentile(request_s,
                             std::max(0.5, TailQuantile(request_s.size(), 0.99))));
  SetMetric(&e2e, "op_cpu_ms", 1e3 * ref.server_cpu_s / answered);
  SetMetric(&e2e, "requests_per_s", answered / ref.server_cpu_s);
  SetMetric(&e2e, "quality",
            1.0 - static_cast<double>(result.failed) /
                      static_cast<double>(std::max<uint64_t>(1, result.attempted)));
  SetMetric(&e2e, "footprint",
            static_cast<double>(load.dones) /
                static_cast<double>(std::max<uint64_t>(1, load.submits)));

  std::vector<Metric>& layer = result.per_layer;
  SetMetric(&layer, "workload.classify_s", Median(classify));
  SetMetric(&layer, "net.done_per_submit",
            static_cast<double>(load.dones) /
                static_cast<double>(std::max<uint64_t>(1, load.submits)));
  SetMetric(&layer, "net.err_rate_limited", static_cast<double>(load.err_rate_limited));
  SetMetric(&layer, "net.err_unservable", static_cast<double>(load.err_unservable));
  SetMetric(&layer, "net.err_other", static_cast<double>(load.err_other));
  SetMetric(&layer, "net.transport_errors", static_cast<double>(load.transport_errors));
  SetMetric(&layer, "net.unanswered", static_cast<double>(load.unanswered));
  SetMetric(&layer, "net.pending_mean", Mean(ref.pending));
  SetMetric(&layer, "net.pending_p99", Percentile(Sorted(ref.pending), 0.99));
  SetMetric(&layer, "net.ladder_capacity_qps", capacity.qps);
  SetMetric(&layer, "net.capacity_bracketed", capacity.bracketed ? 1.0 : 0.0);
  SetMetric(&layer, "net.client_p50_us", 1e6 * Percentile(ref_lat, 0.5));
  SetMetric(&layer, "net.client_p99_us", 1e6 * WindowedTail(ref.windows, 0.99));
  SetMetric(&layer, "net.p99_raw_ms",
            1e3 * Percentile(ref_lat, std::max(0.5, p99_q)));
  SetMetric(&layer, "gen.late_us_p99", 1e6 * late_p99_ref);
  SetMetric(&layer, "gen.invalid_steps", static_cast<double>(invalid));
  if (options.trace) {
    const StepStats& tref = load.steps[traced_reference];
    const std::vector<double> tlat = Sorted(tref.latency);
    SetMetric(&layer, "trace.overhead_ms",
              1e3 * (Percentile(tlat, 0.5) - Percentile(ref_lat, 0.5)));
    SetMetric(&layer, "net.serve.heap_allocs",
              static_cast<double>(tref.heap_allocs) /
                  static_cast<double>(std::max<uint64_t>(1, tref.answered)));
    const double serve_cpu_us = 1e6 * ref.server_cpu_s / answered;
    SetMetric(&layer, "net.serve_cpu_us", serve_cpu_us);
    SetMetric(&layer, "net.route_us", replay.route_us);
    SetMetric(&layer, "net.frame_us", replay.frame_us);
    SetMetric(&layer, "net.transport_us",
              TransportMicros(serve_cpu_us, replay.route_us, replay.frame_us));
    SetMetric(&layer, "net.route.heap_allocs", replay.heap_allocs);
    const std::vector<double> rtt = Sorted(UnloadedRtt(port, cls, 3000));
    SetMetric(&layer, "net.rtt_us_p50", 1e6 * Percentile(rtt, 0.5));
    SetMetric(&layer, "net.rtt_us_p99",
              1e6 * Percentile(rtt, std::max(0.5, TailQuantile(rtt.size(), 0.99))));
    SetMetric(&layer, "net.scrape_ms", 1e3 * Median(load.scrape_s));
    // In process, after the run's request count: the scrape's own cost
    // under the routing lock.
    std::vector<double> inproc;
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t0 = Clock::now();
      served->server->dispatcher().Execute("METRICS", 0.0);
      inproc.push_back(SecondsSince(t0));
    }
    SetMetric(&layer, "net.scrape_inproc_ms", 1e3 * Median(inproc));
  }
  served->server->Stop();
  SetMetric(&e2e, "peak_rss_mb", PeakRssMb());
  return result;
}

}  // namespace qcap::perfbench
