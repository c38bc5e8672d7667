// PBFT benchmark: certified-op throughput, latency and CPU of a 4-replica (f=1, MAC)
// RtCluster under four seeded workloads, with a per-layer ledger measured from outside.
//
// Usage: bench_pbft --workload NAME --seed N --seconds S [--trace 0|1] [--spans PATH]
//
// One run: seven timed set-ups (median reported as setup_s), 1 s of untimed warm-up, then one
// measured window of S seconds with tracing off. With --trace 1 the S seconds are split into
// two windows of S/2 on the same cluster, the first untraced and the second traced: counters
// and per-thread CPU come from the untraced window, spans and phase timelines from the traced
// one, and their difference is the tracing overhead. Afterwards the load drains, every identity re-reads its keys (audit), the loops
// stop, and replicas at the same sequence number must hold byte-identical state. An op left
// uncertified by the drain or an audit read left unanswered fails the run.
//
// Everything is measured from outside the library: calls into public functions timed here,
// a Service decorator passed through the factory, the MetricsRegistry/RequestTracer exports,
// and /proc for the loop threads. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status: 0 when every op certified with the result the model predicts, every audit read
// came back, and no replica diverged.
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "proc_stats.h"
#include "src/crypto/digest.h"
#include "src/runtime/formation.h"
#include "summary.h"

namespace pbft_bench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kBuildType = "sanitizer";
#elif !defined(NDEBUG)
constexpr const char* kBuildType = "debug";
#elif defined(__OPTIMIZE__)
constexpr const char* kBuildType = "release";
#else
constexpr const char* kBuildType = "unoptimized";
#endif

constexpr uint32_t kTraceSampleEvery = 16;
constexpr SimTime kTracerDrainPeriod = 100 * kMillisecond;
constexpr size_t kMaxSpanOps = 2000;  // ops written to the trace-event file
constexpr int kSetups = 7;            // timed set-ups per run; setup_s is their median
// How often the measuring thread asks a restarted replica for its last executed sequence
// number. Each ask is one task on that replica's loop, so it stays rare inside the window.
constexpr SimTime kCatchupPoll = 10 * kMillisecond;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

double ToUs(SimTime t) { return static_cast<double>(t) / 1e3; }
double ToMs(SimTime t) { return static_cast<double>(t) / 1e6; }

void SleepUntil(const BenchClock& clock, SimTime when) {
  SimTime now = clock.Now();
  if (when > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(when - now));
  }
}

// ---- Snapshots of everything the program exports ----------------------------------------

struct HistSum {
  uint64_t count = 0;
  uint64_t sum = 0;
};

struct Snapshot {
  SimTime at = 0;
  double process_cpu = 0;  // seconds
  uint64_t process_ticks = 0;
  std::map<pid_t, CpuTicks> threads;
  std::map<std::string, double> scalars;  // "name{labels}"
  std::map<std::string, HistSum> hists;
  uint64_t max_view = 0;
  int primary = 0;
  uint64_t exec_calls = 0;  // Service::Execute calls seen by the decorators
};

const char* const kHistograms[][2] = {
    {"bft_batch_size", "node=\"0\""},
    {"bft_batch_size", "node=\"1\""},
    {"bft_batch_size", "node=\"2\""},
    {"bft_batch_size", "node=\"3\""},
    {"bft_transport_sendmmsg_batch", "transport=\"udp\""},
    {"bft_formation_frames_per_datagram", ""},
};

Snapshot TakeSnapshot(Harness& h, const BenchClock& clock) {
  RtCluster& cluster = h.cluster();
  Snapshot s;
  bft::HealthSnapshot health = cluster.Health();
  for (const bft::ReplicaHealth& r : health.replicas) {
    if (r.running) {
      s.max_view = std::max(s.max_view, r.view);
    }
  }
  s.primary = static_cast<int>(s.max_view % static_cast<uint64_t>(cluster.num_replicas()));
  cluster.metrics().VisitScalars(
      [&s](const std::string& name, const std::string& labels, int64_t value) {
        s.scalars[name + "{" + labels + "}"] = static_cast<double>(value);
      });
  for (const auto& h : kHistograms) {
    bft::Histogram* hist = cluster.metrics().GetHistogram(h[0], h[1]);
    s.hists[std::string(h[0]) + "{" + h[1] + "}"] = {hist->count(), hist->sum()};
  }
  for (int r = 0; r < cluster.num_replicas(); ++r) {
    s.exec_calls += h.exec_log(r).calls.load();
  }
  s.threads = ReadAllThreads();
  s.process_ticks = ReadProcessTicks();
  s.process_cpu = ProcessCpuSeconds();
  s.at = clock.Now();
  return s;
}

// Sum of per-series deltas over the series of family `name` whose labels contain `filter`.
// Each series is clamped at 0: a restarted replica re-registers its cache probes from zero.
double Delta(const Snapshot& a, const Snapshot& b, const std::string& name,
             const std::string& filter = "") {
  double total = 0;
  std::string prefix = name + "{";
  for (auto it = b.scalars.lower_bound(prefix);
       it != b.scalars.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    if (it->first.find(filter) == std::string::npos) {
      continue;
    }
    auto before = a.scalars.find(it->first);
    double d = it->second - (before == a.scalars.end() ? 0 : before->second);
    total += std::max(0.0, d);
  }
  return total;
}

HistSum HistDelta(const Snapshot& a, const Snapshot& b, const std::string& prefix) {
  HistSum out;
  for (const auto& [key, h] : b.hists) {
    if (key.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const HistSum& before = a.hists.at(key);
    out.count += h.count - before.count;
    out.sum += h.sum - before.sum;
  }
  return out;
}

// ---- Measurement windows -----------------------------------------------------------------

struct Window {
  Snapshot start;
  Snapshot end;
  std::map<pid_t, CpuTicks> retired;  // threads that ended inside the window (crashed loop)
  SimTime crash_at = 0;
  double catchup_ms = 0;
  std::vector<bft::TraceTimeline> timelines;
  SimTime t0() const { return start.at; }
  SimTime t1() const { return end.at; }
  double seconds() const { return static_cast<double>(end.at - start.at) / 1e9; }
};

// Replica i and identity i share vCPU i (mod nproc), like four machines each running one
// replica and one client. Left to the kernel, the placement of eight busy loops on four
// vCPUs changed from run to run and doubled the spread of every closed-loop metric.
void PinToCpu(pid_t tid, int index) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)), &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

pid_t ReplicaTid(RtCluster& cluster, int i) {
  pid_t tid = 0;
  cluster.RunOn(i, [&tid]() { tid = gettid(); });
  return tid;
}

uint64_t LastExecuted(RtCluster& cluster, int i) {
  uint64_t seq = 0;
  bft::Replica* r = cluster.replica(i);
  cluster.RunOn(i, [&seq, r]() { seq = r->last_executed(); });
  return seq;
}

class Runner {
 public:
  Runner(Harness& harness, const BenchClock& clock, Control& control,
         std::map<pid_t, std::string>& roles)
      : h_(harness), cluster_(harness.cluster()), clock_(clock), control_(control),
        roles_(roles) {}

  // One window of `seconds`. With `crash`, the current primary crashes at 1/4 of the window
  // and restarts at 1/2; catch-up is then timed from the restart until the restarted replica
  // reaches the group's last executed sequence number as of the restart. Without a crash,
  // catch-up is the time, from the window's end, until the slowest replica reaches the
  // fastest one's sequence number at that moment.
  Window Measure(double seconds, bool traced, bool crash) {
    Window w;
    if (traced) {
      cluster_.tracer().set_sample_every(kTraceSampleEvery);
      control_.traced.store(true);
    }
    w.start = TakeSnapshot(h_, clock_);
    SimTime t0 = w.start.at;
    SimTime t1 = t0 + static_cast<SimTime>(seconds * 1e9);
    SimTime crash_at = crash ? t0 + (t1 - t0) / 4 : 0;
    SimTime restart_at = crash ? t0 + (t1 - t0) / 2 : 0;
    SimTime next_drain = traced ? t0 + kTracerDrainPeriod : 0;
    int victim = -1;
    uint64_t catchup_target = 0;
    SimTime restarted = 0;
    bool polling = false;
    while (true) {
      SimTime now = clock_.Now();
      if (now >= t1) {
        break;
      }
      if (crash_at != 0 && now >= crash_at) {
        victim = static_cast<int>(w.start.primary);
        pid_t tid = ReplicaTid(cluster_, victim);
        CpuTicks last;
        if (ReadThreadTicks(tid, &last)) {
          w.retired[tid] = last;
        }
        w.crash_at = clock_.Now();
        cluster_.CrashReplica(victim);
        crash_at = 0;
      }
      if (restart_at != 0 && now >= restart_at) {
        cluster_.RestartReplica(victim);
        restarted = clock_.Now();
        pid_t tid = ReplicaTid(cluster_, victim);
        roles_[tid] = "replica" + std::to_string(victim);
        PinToCpu(tid, victim);
        for (int i = 0; i < cluster_.num_replicas(); ++i) {
          if (i != victim) {
            catchup_target = std::max(catchup_target, LastExecuted(cluster_, i));
          }
        }
        restart_at = 0;
        polling = true;
      }
      if (polling && LastExecuted(cluster_, victim) >= catchup_target) {
        w.catchup_ms = ToMs(clock_.Now() - restarted);
        polling = false;
      }
      if (traced && now >= next_drain) {
        DrainTracer(&w.timelines);
        next_drain += kTracerDrainPeriod;
      }
      SimTime next = t1;
      for (SimTime event : {crash_at, restart_at, next_drain}) {
        if (event != 0 && event < next) {
          next = event;
        }
      }
      if (polling) {
        next = std::min(next, clock_.Now() + kCatchupPoll);
      }
      SleepUntil(clock_, next);
    }
    w.end = TakeSnapshot(h_, clock_);
    if (polling) {
      w.catchup_ms = ToMs(w.end.at - restarted);  // still behind at the window's end
    }
    if (traced) {
      cluster_.tracer().set_sample_every(0);
      control_.traced.store(false);
    }
    if (!crash) {
      w.catchup_ms = SlowestReplicaLagMs();
    }
    return w;
  }

  // New retired request timelines since the last call. The tracer keeps the last 1024 in a
  // ring, so the window drains it every 100 ms; 1-in-16 sampling keeps well under that.
  void DrainTracer(std::vector<bft::TraceTimeline>* out) {
    for (const bft::TraceTimeline& t : cluster_.tracer().Completed()) {
      if (t.kind == bft::TraceKind::kRequest && collected_.insert({t.client, t.timestamp}).second) {
        out->push_back(t);
      }
    }
  }

 private:
  double SlowestReplicaLagMs() {
    uint64_t target = 0;
    for (int i = 0; i < cluster_.num_replicas(); ++i) {
      target = std::max(target, LastExecuted(cluster_, i));
    }
    SimTime start = clock_.Now();
    while (clock_.Now() - start < 5 * kSecond) {
      uint64_t slowest = UINT64_MAX;
      for (int i = 0; i < cluster_.num_replicas(); ++i) {
        slowest = std::min(slowest, LastExecuted(cluster_, i));
      }
      if (slowest >= target) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return ToMs(clock_.Now() - start);
  }

  Harness& h_;
  RtCluster& cluster_;
  const BenchClock& clock_;
  Control& control_;
  std::map<pid_t, std::string>& roles_;
  std::set<std::pair<NodeId, uint64_t>> collected_;
};

// ---- End-to-end numbers of one window ----------------------------------------------------

struct EndToEnd {
  double seconds = 0;
  uint64_t attempted = 0;  // ops due in the window (see OpRecord::due)
  uint64_t failed = 0;     // ...not certified, or certified with a wrong result
  uint64_t certified = 0;  // ops certified inside the window
  Samples latency_us;
  double throughput = 0;
  double cpu_us_per_op = 0;
  double outage_ms = 0;    // longest stretch of the window with no certification
  double recovery_ms = 0;  // crash until the first certification of an op invoked after it
};

// Open-loop latency runs from the due time, so a stall also delays the ops queued behind it;
// closed-loop latency runs from Invoke to the completion callback.
EndToEnd ComputeEndToEnd(Harness& h, const Window& w, bool open_loop) {
  EndToEnd e;
  e.seconds = w.seconds();
  std::vector<SimTime> completions;
  SimTime first_after_crash = 0;
  for (auto& id : h.identities()) {
    for (const OpRecord& r : id->records()) {
      if (r.done >= w.t0() && r.done < w.t1()) {
        completions.push_back(r.done);
      }
      if (w.crash_at != 0 && r.invoke >= w.crash_at && r.done != 0 &&
          (first_after_crash == 0 || r.done < first_after_crash)) {
        first_after_crash = r.done;
      }
      if (r.due < w.t0() || r.due >= w.t1()) {
        continue;
      }
      ++e.attempted;
      if (r.done == 0 || !r.ok) {
        ++e.failed;
      } else {
        e.latency_us.Add(ToUs(r.done - (open_loop ? r.due : r.invoke)));
      }
    }
  }
  e.certified = completions.size();
  e.throughput = static_cast<double>(e.certified) / e.seconds;
  double cpu = w.end.process_cpu - w.start.process_cpu;
  e.cpu_us_per_op = e.certified > 0 ? cpu * 1e6 / static_cast<double>(e.certified) : 0;
  std::sort(completions.begin(), completions.end());
  SimTime prev = w.t0();
  SimTime gap = 0;
  for (SimTime t : completions) {
    gap = std::max(gap, t - prev);
    prev = t;
  }
  gap = std::max(gap, w.t1() - prev);
  e.outage_ms = ToMs(gap);
  if (first_after_crash != 0) {
    e.recovery_ms = ToMs(first_after_crash - w.crash_at);
  }
  return e;
}

// ---- Micro-timings on workload-shaped inputs ---------------------------------------------

volatile uint64_t g_sink = 0;

// Median over seven batches of ~2 ms of the ns one call of `fn` takes.
template <typename Fn>
double NsPerCall(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  uint64_t iters = 1;
  while (true) {
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < iters; ++i) {
      g_sink = g_sink + fn();
    }
    if (Clock::now() - t0 > std::chrono::milliseconds(2) || iters >= (1u << 24)) {
      break;
    }
    iters *= 2;
  }
  Samples batches;
  for (int b = 0; b < 7; ++b) {
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < iters; ++i) {
      g_sink = g_sink + fn();
    }
    batches.Add(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                static_cast<double>(iters));
  }
  return batches.Percentile(50);
}

struct MicroTimings {
  double gen_authenticator = 0, verify_authenticator = 0, gen_mac = 0, verify_mac = 0;
  double request_digest = 0, result_digest = 0;
  double encode[5] = {}, decode[5] = {};  // request, pre_prepare, prepare, commit, reply
  double split = 0;
};

const char* const kTimedTypes[5] = {"request", "pre_prepare", "prepare", "commit", "reply"};

// Times the library's crypto, codec and frame-splitting calls on messages shaped like the
// workload's: its op and result sizes, its measured batch size and frames per datagram.
MicroTimings TimeLayers(const Spec& spec, double batch_mean, double frames_mean) {
  bft::ReplicaConfig config;
  bft::PerfModel model;
  bft::PublicKeyDirectory directory;
  bft::AuthContext client(1000, &config, &model, &directory, directory.Generate(1000, 1));
  bft::AuthContext replica(1, &config, &model, &directory, directory.Generate(1, 2));

  Bytes op = spec.null_service ? bft::NullService::MakeOp(false, kBulkBytes, 0)
                               : bft::KvService::PutOp(bft::ToBytes("k0-000"),
                                                       Bytes(kValueBytes, 'v'));
  Bytes result = spec.null_service      ? Bytes(kBulkBytes, 0xcd)
                 : spec.read_fraction > 0 ? Bytes(kValueBytes, 'v')
                                          : bft::ToBytes("ok");
  bft::RequestMsg req;
  req.client = 1000;
  req.timestamp = 42;
  req.designated_replier = 1;
  req.op = op;
  Bytes req_content = req.AuthContent();
  req.auth = client.GenerateAuthenticator(req_content, nullptr);

  bft::PrePrepareMsg pp;
  pp.view = 0;
  pp.seq = 1000;
  size_t batch = static_cast<size_t>(std::max(1.0, std::round(batch_mean)));
  for (size_t i = 0; i < batch; ++i) {
    if (op.size() > config.separate_transmission_threshold) {
      pp.separate_digests.push_back(req.RequestDigest());
    } else {
      pp.inline_requests.push_back(req);
    }
  }
  pp.auth = replica.GenerateAuthenticator(pp.AuthContent(), nullptr);
  bft::PrepareMsg prepare;
  prepare.seq = 1000;
  prepare.batch_digest = pp.BatchDigest();
  prepare.replica = 1;
  prepare.auth = replica.GenerateAuthenticator(prepare.AuthContent(), nullptr);
  bft::CommitMsg commit;
  commit.seq = 1000;
  commit.batch_digest = prepare.batch_digest;
  commit.replica = 1;
  commit.auth = prepare.auth;
  bft::ReplyMsg reply;
  reply.timestamp = 42;
  reply.client = 1000;
  reply.replica = 1;
  reply.tentative = true;
  reply.has_result = true;
  reply.result = result;
  reply.result_digest = bft::ComputeDigest(result);
  Bytes reply_content = reply.AuthContent();
  reply.auth = replica.GenerateMac(1000, reply_content, nullptr);

  MicroTimings t;
  t.gen_authenticator =
      NsPerCall([&]() { return client.GenerateAuthenticator(req_content, nullptr).size(); });
  t.verify_authenticator = NsPerCall(
      [&]() { return uint64_t{replica.VerifyAuthenticator(1000, req_content, req.auth, nullptr)}; });
  t.gen_mac = NsPerCall([&]() { return replica.GenerateMac(1000, reply_content, nullptr).size(); });
  t.verify_mac = NsPerCall(
      [&]() { return uint64_t{client.VerifyMac(1, reply_content, reply.auth, nullptr)}; });
  t.request_digest = NsPerCall([&]() { return uint64_t{req.RequestDigest().bytes[0]}; });
  t.result_digest = NsPerCall([&]() { return uint64_t{bft::ComputeDigest(result).bytes[0]}; });

  const bft::Message messages[5] = {req, pp, prepare, commit, reply};
  bft::MsgBuffer wires[5];
  for (int i = 0; i < 5; ++i) {
    const bft::Message& m = messages[i];
    wires[i] = bft::EncodeMessage(m);
    t.encode[i] = NsPerCall([&]() { return bft::EncodeMessage(m).size(); });
    const bft::MsgBuffer& wire = wires[i];
    t.decode[i] = NsPerCall([&]() { return uint64_t{bft::DecodeMessage(wire.view()).has_value()}; });
  }

  // A formed datagram of prepares and commits with the workload's mean frame count.
  bft::Writer w;
  bft::BeginFormedDatagram(w);
  size_t frames = static_cast<size_t>(std::max(1.0, std::round(frames_mean)));
  for (size_t i = 0; i < frames; ++i) {
    bft::AppendFormedFrame(w, wires[2 + i % 2].view());
  }
  bft::MsgBuffer datagram(w.Take());
  t.split = NsPerCall([&]() {
    uint64_t n = 0;
    bft::SplitFormedDatagram(datagram, [&n](bft::MsgBuffer frame) { n += frame.size(); });
    return n;
  });
  return t;
}

// A fixed CPU-bound loop in bench code: its time moves only with the host, so drift between
// runs is visible next to the numbers it would distort. Median of five, in ms.
double HostReferenceMs() {
  Samples runs;
  for (int r = 0; r < 5; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(r);
    for (int i = 0; i < (1 << 22); ++i) {
      x ^= x >> 29;
      x *= 0xbf58476d1ce4e5b9ULL;
      x += static_cast<uint64_t>(i);
    }
    g_sink = g_sink + x;
    runs.Add(std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                 .count());
  }
  return runs.Percentile(50);
}

// ---- Spans --------------------------------------------------------------------------------

struct Span {
  const char* name;
  SimTime start;
  SimTime end;
};

// Length of the part of [start, end) covered by the union of `parts`.
SimTime Covered(SimTime start, SimTime end, std::vector<std::pair<SimTime, SimTime>> parts) {
  std::sort(parts.begin(), parts.end());
  SimTime covered = 0;
  SimTime cursor = start;
  for (auto [s, e] : parts) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

// The request's causal path under tentative execution (Section 5.1.2): a batch executes once
// it is prepared and the client certifies on 2f+1 tentative replies, so the commit phase runs
// beside execution and the reply, not before them. The first four phases partition
// dispatch..certified; the fifth, the commit phase, is reported beside them.
struct PhaseDef {
  const char* name;
  bft::TracePhase from;
  bft::TracePhase to;
};
constexpr int kChainPhases = 4;
const PhaseDef kPhases[5] = {
    {"dispatch_to_pre_prepare", bft::TracePhase::kDispatch, bft::TracePhase::kPrePrepare},
    {"pre_prepare_to_prepared", bft::TracePhase::kPrePrepare, bft::TracePhase::kPrepared},
    {"prepared_to_executed", bft::TracePhase::kPrepared, bft::TracePhase::kExecuted},
    {"executed_to_certified", bft::TracePhase::kExecuted, bft::TracePhase::kCertified},
    {"prepared_to_committed", bft::TracePhase::kPrepared, bft::TracePhase::kCommitted},
};

struct SpanReport {
  uint64_t ops = 0;  // sampled ops with a complete timeline
  double self_us[6] = {};  // op, then the five phases: mean self time per op
  Samples phase_delta_us[5];
  Samples execute_ns;
  double invoke_us = 0;
  std::map<std::string, double> self_by_name;  // every span name, mean self us per op
};

// Builds the span tree of each sampled op in the traced window:
//   op [due, certified]
//     loadgen.queue [due, invoke]          client.invoke [Invoke call]
//     the four chained phases from the tracer timeline, each holding the service.execute
//       spans that start inside it, and the commit phase beside them
// and writes up to kMaxSpanOps of them as Chrome trace-event JSON.
SpanReport BuildSpans(Harness& h, const Window& w, const std::string& path) {
  SpanReport rep;
  std::map<std::pair<NodeId, uint64_t>, const bft::TraceTimeline*> by_key;
  for (const bft::TraceTimeline& t : w.timelines) {
    by_key[{t.client, t.timestamp}] = &t;
    bool ok = true;
    for (int p = 0; p < 6; ++p) {
      ok = ok && t.seen[p];
    }
    if (!ok) {
      continue;
    }
    for (int p = 0; p < 5; ++p) {
      SimTime a = t.at(kPhases[p].from);
      SimTime b = t.at(kPhases[p].to);
      rep.phase_delta_us[p].Add(b >= a ? ToUs(b - a) : 0);
    }
  }
  std::vector<std::vector<const ExecLog::Entry*>> execs_by_client(kIdentities);
  for (int r = 0; r < 4; ++r) {
    for (const ExecLog::Entry& e : h.exec_log(r).entries) {
      size_t c = e.client - bft::kClientIdBase;
      if (c < execs_by_client.size()) {
        execs_by_client[c].push_back(&e);
      }
      rep.execute_ns.Add(static_cast<double>(e.end - e.start));
    }
  }
  for (auto& v : execs_by_client) {
    std::sort(v.begin(), v.end(), [](auto* a, auto* b) { return a->start < b->start; });
  }

  std::string json = "{\"traceEvents\":[\n";
  size_t written = 0;
  auto emit = [&](const char* name, SimTime s, SimTime e, int tid, int identity, uint64_t ts) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"identity\":%d,\"request\":%llu}}",
                  written++ == 0 ? "" : ",\n", name, tid, ToUs(s), ToUs(e - s), identity,
                  static_cast<unsigned long long>(ts));
    json += buf;
  };

  std::map<std::string, double> self_sum;
  Samples invoke;
  for (size_t c = 0; c < h.identities().size(); ++c) {
    Identity& id = *h.identities()[c];
    NodeId client = id.client()->id();
    const auto& execs = execs_by_client[c];
    for (const OpRecord& r : id.records()) {
      if (r.due < w.t0() || r.due >= w.t1() || r.done == 0) {
        continue;
      }
      if (r.invoke_end != 0) {
        invoke.Add(ToUs(r.invoke_end - r.invoke));
      }
      auto it = by_key.find({client, r.timestamp});
      if (it == by_key.end()) {
        continue;
      }
      const bft::TraceTimeline& t = *it->second;
      bool complete = r.invoke_end != 0;
      for (int p = 0; p < 6; ++p) {
        complete = complete && t.seen[p];
      }
      if (!complete) {
        continue;
      }
      ++rep.ops;
      std::vector<Span> phases;
      SimTime cursor = std::max(t.at(bft::TracePhase::kDispatch), r.invoke);
      for (int p = 0; p < kChainPhases; ++p) {
        SimTime end = std::min(std::max(cursor, t.at(kPhases[p].to)), r.done);
        phases.push_back({kPhases[p].name, cursor, end});
        cursor = end;
      }
      SimTime prepared = phases[1].end;
      phases.push_back({kPhases[4].name, prepared,
                        std::min(std::max(prepared, t.at(bft::TracePhase::kCommitted)), r.done)});
      std::vector<Span> exec_spans;
      auto first = std::lower_bound(execs.begin(), execs.end(), r.invoke,
                                    [](auto* e, SimTime t0) { return e->start < t0; });
      for (auto e = first; e != execs.end() && (*e)->start < r.done; ++e) {
        exec_spans.push_back({"service.execute", (*e)->start, std::min((*e)->end, r.done)});
      }
      std::vector<std::pair<SimTime, SimTime>> op_children = {{r.due, r.invoke},
                                                              {r.invoke, r.invoke_end}};
      for (const Span& p : phases) {
        op_children.push_back({p.start, p.end});
      }
      SimTime op_self = (r.done - r.due) - Covered(r.due, r.done, op_children);
      rep.self_us[0] += ToUs(op_self);
      self_sum["op"] += ToUs(op_self);
      self_sum["loadgen.queue"] += ToUs(r.invoke - r.due);
      self_sum["client.invoke"] += ToUs(r.invoke_end - r.invoke);
      std::vector<std::pair<SimTime, SimTime>> execs_inside;
      for (const Span& e : exec_spans) {
        execs_inside.push_back({e.start, e.end});
      }
      for (int p = 0; p < 5; ++p) {
        SimTime self = phases[p].end - phases[p].start;
        if (p < kChainPhases) {
          self -= Covered(phases[p].start, phases[p].end, execs_inside);
        }
        rep.self_us[1 + p] += ToUs(self);
        self_sum[std::string("phase.") + kPhases[p].name] += ToUs(self);
      }
      for (const Span& e : exec_spans) {
        self_sum["service.execute"] += ToUs(e.end - e.start);
      }
      if (rep.ops <= kMaxSpanOps) {
        int tid = static_cast<int>(c);
        emit("op", r.due, r.done, tid, tid, r.timestamp);
        emit("loadgen.queue", r.due, r.invoke, tid, tid, r.timestamp);
        emit("client.invoke", r.invoke, r.invoke_end, tid, tid, r.timestamp);
        for (const Span& p : phases) {
          emit(p.name, p.start, p.end, tid, tid, r.timestamp);
        }
        for (const Span& e : exec_spans) {
          emit(e.name, e.start, e.end, 100 + tid, tid, r.timestamp);
        }
      }
    }
  }
  json += "\n]}\n";
  if (rep.ops > 0) {
    for (double& s : rep.self_us) {
      s /= static_cast<double>(rep.ops);
    }
    for (auto& [name, sum] : self_sum) {
      rep.self_by_name[name] = sum / static_cast<double>(rep.ops);
    }
  }
  rep.invoke_us = invoke.Mean();
  if (!path.empty()) {
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "bench_pbft: cannot write %s\n", path.c_str());
    }
  }
  return rep;
}

// ---- Output --------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintJsonLine(bool correct, uint64_t attempted, uint64_t failed,
                   const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double PerOp(double count, uint64_t ops) {
  return ops > 0 ? count / static_cast<double>(ops) : 0;
}

// The per-layer ledger. Counter and per-thread metrics come from the untraced window `a`;
// span, phase and Execute timings from the traced window `b`.
std::vector<Metric> LayerMetrics(Harness& h, const Spec& spec, const Window& a,
                                 const Window& b, const EndToEnd& ea, const EndToEnd& eb,
                                 const std::map<pid_t, std::string>& roles, double host_ref_ms,
                                 const std::string& spans_path) {
  std::vector<Metric> m;
  const uint64_t ops = ea.certified;
  const int n = h.cluster().num_replicas();

  // Per-thread CPU and switches over window a, by role.
  struct RoleTotals {
    double user_s = 0, sys_s = 0;
    double voluntary = 0, involuntary = 0;
  };
  std::map<std::string, RoleTotals> by_role;
  double thread_ticks = 0;
  auto account = [&](pid_t tid, const CpuTicks& before, const CpuTicks& after) {
    auto role_it = roles.find(tid);
    std::string role = role_it == roles.end() ? "other" : role_it->second;
    RoleTotals& r = by_role[role];
    // The CPU clock's total, split into user and system time in the ratio of the ticks.
    double cpu_s = static_cast<double>(after.cpu_ns - before.cpu_ns) * 1e-9;
    double user_ticks = static_cast<double>(after.user - before.user);
    double sys_ticks = static_cast<double>(after.sys - before.sys);
    double user_share = user_ticks + sys_ticks > 0 ? user_ticks / (user_ticks + sys_ticks) : 1;
    r.user_s += cpu_s * user_share;
    r.sys_s += cpu_s * (1 - user_share);
    r.voluntary += static_cast<double>(after.voluntary - before.voluntary);
    r.involuntary += static_cast<double>(after.involuntary - before.involuntary);
    thread_ticks += static_cast<double>((after.user + after.sys) - (before.user + before.sys));
  };
  for (const auto& [tid, before] : a.start.threads) {
    auto end_it = a.end.threads.find(tid);
    auto retired_it = a.retired.find(tid);
    if (end_it != a.end.threads.end()) {
      account(tid, before, end_it->second);
    } else if (retired_it != a.retired.end()) {
      account(tid, before, retired_it->second);
    }
  }
  for (const auto& [tid, after] : a.end.threads) {
    if (a.start.threads.count(tid) == 0) {
      account(tid, CpuTicks{}, after);  // born inside the window (a restarted replica)
    }
  }
  std::string primary = "replica" + std::to_string(a.end.primary);
  RoleTotals backups;
  for (int i = 0; i < n; ++i) {
    std::string role = "replica" + std::to_string(i);
    if (role != primary) {
      backups.user_s += by_role[role].user_s / (n - 1);
      backups.sys_s += by_role[role].sys_s / (n - 1);
      backups.voluntary += by_role[role].voluntary / (n - 1);
      backups.involuntary += by_role[role].involuntary / (n - 1);
    }
  }
  RoleTotals clients;
  for (int c = 0; c < kIdentities; ++c) {
    const RoleTotals& r = by_role["client" + std::to_string(c)];
    clients.user_s += r.user_s;
    clients.sys_s += r.sys_s;
    clients.voluntary += r.voluntary;
  }
  const RoleTotals& p = by_role[primary];
  m.push_back({"replica.primary_user_us_per_op", PerOp(p.user_s * 1e6, ops), "us"});
  m.push_back({"replica.primary_sys_us_per_op", PerOp(p.sys_s * 1e6, ops), "us"});
  m.push_back({"replica.backup_user_us_per_op", PerOp(backups.user_s * 1e6, ops), "us"});
  m.push_back({"replica.backup_sys_us_per_op", PerOp(backups.sys_s * 1e6, ops), "us"});

  // Messages per op by type at the replicas. "transfer" is state transfer (fetch, meta-data,
  // data), which also runs without faults when a backup falls out of the log window.
  const char* const kTypes[] = {"request", "pre_prepare", "prepare", "commit", "checkpoint",
                                "status", "reply", "fetch", "meta_data", "data"};
  auto by_type = [&](const char* family, const char* type) {
    return Delta(a.start, a.end, family, std::string("type=\"") + type + "\"");
  };
  std::map<std::string, double> in_per_op;
  std::map<std::string, double> out_per_op;
  double in_rest = Delta(a.start, a.end, "bft_messages_in_total");
  double out_rest = Delta(a.start, a.end, "bft_messages_out_total");
  for (const char* t : kTypes) {
    bool transfer = std::strcmp(t, "fetch") == 0 || std::strcmp(t, "meta_data") == 0 ||
                    std::strcmp(t, "data") == 0;
    std::string key = transfer ? "transfer" : t;
    double in = by_type("bft_messages_in_total", t);
    double out = by_type("bft_messages_out_total", t);
    in_per_op[key] += PerOp(in, ops);
    out_per_op[key] += PerOp(out, ops);
    in_rest -= in;
    out_rest -= out;
  }
  in_per_op["other"] = PerOp(in_rest, ops);
  out_per_op["other"] = PerOp(out_rest, ops);
  for (const char* t : {"request", "pre_prepare", "prepare", "commit", "checkpoint", "status",
                        "transfer", "other"}) {
    m.push_back({std::string("replica.in_") + t + "_per_op", in_per_op[t], "count"});
  }
  for (const char* t : {"reply", "pre_prepare", "prepare", "commit", "checkpoint", "status",
                        "transfer", "other"}) {
    m.push_back({std::string("replica.out_") + t + "_per_op", out_per_op[t], "count"});
  }
  m.push_back({"replica.bytes_out_per_op", PerOp(Delta(a.start, a.end, "bft_bytes_out_total"), ops),
               "bytes"});
  HistSum batch = HistDelta(a.start, a.end, "bft_batch_size{");
  double batch_mean = batch.count > 0 ? static_cast<double>(batch.sum) / batch.count : 0;
  m.push_back({"replica.batch_size_mean", batch_mean, "count"});
  m.push_back({"replica.duplicates_per_op",
               PerOp(Delta(a.start, a.end, "bft_messages_duplicate_total"), ops), "count"});
  m.push_back({"replica.auth_rejected_per_op",
               PerOp(Delta(a.start, a.end, "bft_auth_rejected_total"), ops), "count"});
  m.push_back({"replica.replays_per_op",
               PerOp(Delta(a.start, a.end, "bft_request_replays_total"), ops), "count"});
  m.push_back({"replica.view_changes", static_cast<double>(a.end.max_view - a.start.max_view),
               "count"});
  m.push_back({"replica.catchup_ms", a.catchup_ms, "ms"});
  m.push_back({"replica.outage_ms", ea.outage_ms, "ms"});

  const RoleTotals& pr = by_role[primary];
  m.push_back({"eventloop.primary_wakeups_per_op", PerOp(pr.voluntary, ops), "count"});
  m.push_back({"eventloop.backup_wakeups_per_op", PerOp(backups.voluntary, ops), "count"});
  m.push_back({"eventloop.client_wakeups_per_op", PerOp(clients.voluntary, ops), "count"});
  m.push_back({"eventloop.primary_preemptions_per_op", PerOp(pr.involuntary, ops), "count"});
  m.push_back({"eventloop.backup_preemptions_per_op", PerOp(backups.involuntary, ops), "count"});

  HistSum mmsg = HistDelta(a.start, a.end, "bft_transport_sendmmsg_batch{");
  HistSum frames = HistDelta(a.start, a.end, "bft_formation_frames_per_datagram{");
  double frames_mean = frames.count > 0 ? static_cast<double>(frames.sum) / frames.count : 0;
  m.push_back({"transport.datagrams_per_op",
               PerOp(Delta(a.start, a.end, "bft_transport_datagrams_sent_total"), ops), "count"});
  m.push_back({"transport.bytes_per_op",
               PerOp(Delta(a.start, a.end, "bft_transport_bytes_sent_total"), ops), "bytes"});
  m.push_back({"transport.sendmmsg_batch_mean",
               mmsg.count > 0 ? static_cast<double>(mmsg.sum) / mmsg.count : 0, "count"});
  m.push_back({"transport.send_drops", Delta(a.start, a.end, "bft_transport_send_drops_total"),
               "count"});
  m.push_back({"formation.frames_per_datagram_mean", frames_mean, "count"});

  MicroTimings t = TimeLayers(spec, batch_mean, frames_mean);
  m.push_back({"formation.split_ns", t.split, "ns"});

  double mac_hits = Delta(a.start, a.end, "bft_mac_cache_hits_total");
  double mac_misses = Delta(a.start, a.end, "bft_mac_cache_misses_total");
  double macs_per_op = PerOp(mac_hits + mac_misses, ops);
  double retrans_per_op = PerOp(Delta(a.start, a.end, "bft_client_retransmissions_total"), ops);
  double replies_per_op = out_per_op["reply"];
  // Estimated crypto ns per op: every replica MAC at the header cost, plus the extra cost of
  // the n request-sized verifications, the client's authenticator per send, its reply MACs,
  // one request digest per replica and one result digest per replica plus the client.
  double crypto_est = macs_per_op * t.gen_mac +
                      n * std::max(0.0, t.verify_authenticator - t.gen_mac) +
                      (1 + retrans_per_op) * t.gen_authenticator + replies_per_op * t.verify_mac +
                      n * t.request_digest + (n + 1) * t.result_digest;
  m.push_back({"crypto.gen_authenticator_ns", t.gen_authenticator, "ns"});
  m.push_back({"crypto.verify_authenticator_ns", t.verify_authenticator, "ns"});
  m.push_back({"crypto.gen_mac_ns", t.gen_mac, "ns"});
  m.push_back({"crypto.verify_mac_ns", t.verify_mac, "ns"});
  m.push_back({"crypto.request_digest_ns", t.request_digest, "ns"});
  m.push_back({"crypto.result_digest_ns", t.result_digest, "ns"});
  m.push_back({"crypto.replica_macs_per_op", macs_per_op, "count"});
  m.push_back({"crypto.mac_cache_hit_ratio",
               mac_hits + mac_misses > 0 ? mac_hits / (mac_hits + mac_misses) : 0, "ratio"});
  m.push_back({"crypto.est_ns_per_op", crypto_est, "ns"});

  // Estimated codec ns per op: one encode per protocol send and one decode per receive at
  // the replicas, plus the client's request encodes and reply decodes. Types without their
  // own timing use the prepare's.
  auto enc = [&](const std::string& type) {
    for (int i = 0; i < 5; ++i) {
      if (type == kTimedTypes[i]) {
        return t.encode[i];
      }
    }
    return t.encode[2];
  };
  auto dec = [&](const std::string& type) {
    for (int i = 0; i < 5; ++i) {
      if (type == kTimedTypes[i]) {
        return t.decode[i];
      }
    }
    return t.decode[2];
  };
  double messages_est = (1 + retrans_per_op) * t.encode[0] + replies_per_op * t.decode[4];
  for (const auto& [type, per_op] : out_per_op) {
    messages_est += per_op * enc(type);
  }
  for (const auto& [type, per_op] : in_per_op) {
    messages_est += per_op * dec(type);
  }
  for (int i = 0; i < 5; ++i) {
    m.push_back({std::string("messages.encode_") + kTimedTypes[i] + "_ns", t.encode[i], "ns"});
    m.push_back({std::string("messages.decode_") + kTimedTypes[i] + "_ns", t.decode[i], "ns"});
  }
  m.push_back({"messages.est_ns_per_op", messages_est, "ns"});

  SpanReport spans = BuildSpans(h, b, spans_path);
  double calls_per_op = PerOp(static_cast<double>(a.end.exec_calls - a.start.exec_calls), ops);
  double execute_mean_ns = spans.execute_ns.Mean();
  double service_est = calls_per_op * execute_mean_ns;
  m.push_back({"service.execute_ns_p50", spans.execute_ns.Percentile(50), "ns"});
  m.push_back({"service.calls_per_op", calls_per_op, "count"});
  m.push_back({"service.est_ns_per_op", service_est, "ns"});

  m.push_back({"client.cpu_us_per_op", PerOp((clients.user_s + clients.sys_s) * 1e6, ops), "us"});
  m.push_back({"client.retransmissions_per_op", retrans_per_op, "count"});
  m.push_back({"client.view_probes_per_op",
               PerOp(Delta(a.start, a.end, "bft_client_view_probe_total"), ops), "count"});
  m.push_back({"client.invoke_self_us", spans.invoke_us, "us"});

  for (int i = 0; i < 5; ++i) {
    m.push_back({std::string("phase.") + kPhases[i].name + "_p50_us",
                 spans.phase_delta_us[i].Percentile(50), "us"});
    m.push_back({std::string("phase.") + kPhases[i].name + "_p90_us",
                 spans.phase_delta_us[i].Percentile(90), "us"});
  }
  m.push_back({"phase.samples", static_cast<double>(spans.phase_delta_us[0].count()), "count"});

  Samples lateness;
  Samples queue_wait;
  double max_backlog = 0;
  double busy_ns = 0;
  for (auto& id : h.identities()) {
    for (const ArrivalRecord& r : id->arrivals()) {
      if (r.due >= a.t0() && r.due < a.t1()) {
        lateness.Add(ToUs(r.fired - r.due));
        max_backlog = std::max(max_backlog, static_cast<double>(r.backlog));
      }
    }
    for (const OpRecord& r : id->records()) {
      if (r.due >= a.t0() && r.due < a.t1()) {
        queue_wait.Add(ToUs(r.invoke - r.due));
      }
      SimTime s = std::max(r.invoke, a.t0());
      SimTime e = std::min(r.done == 0 ? a.t1() : r.done, a.t1());
      if (e > s) {
        busy_ns += static_cast<double>(e - s);
      }
    }
  }
  m.push_back({"loadgen.lateness_p50_us", lateness.Percentile(50), "us"});
  m.push_back({"loadgen.lateness_p99_us", lateness.Percentile(99), "us"});
  m.push_back({"loadgen.max_backlog", max_backlog, "count"});
  m.push_back({"loadgen.busy_fraction",
               busy_ns / (static_cast<double>(a.t1() - a.t0()) * kIdentities), "ratio"});
  m.push_back({"loadgen.queue_wait_us", queue_wait.Mean(), "us"});

  m.push_back({"host.ref_ms", host_ref_ms, "ms"});

  // Tracing overhead: lost throughput on closed loops, extra CPU per op on open loops (whose
  // throughput is the offered rate either way).
  double overhead = spec.open_loop
                        ? (ea.cpu_us_per_op > 0 ? (eb.cpu_us_per_op / ea.cpu_us_per_op - 1) * 100 : 0)
                        : (eb.throughput > 0 ? (ea.throughput / eb.throughput - 1) * 100 : 0);
  m.push_back({"obs.trace_overhead_pct", overhead, "%"});

  double process_ticks = static_cast<double>(a.end.process_ticks - a.start.process_ticks);
  double unattributed =
      ea.cpu_us_per_op - (crypto_est + messages_est + service_est) / 1e3;
  m.push_back({"ledger.process_cpu_us_per_op", ea.cpu_us_per_op, "us"});
  m.push_back({"ledger.thread_cpu_sum_pct",
               process_ticks > 0 ? thread_ticks / process_ticks * 100 : 0, "%"});
  m.push_back({"ledger.unattributed_us_per_op", unattributed, "us"});

  m.push_back({"span.op_self_us", spans.self_us[0], "us"});
  for (int i = 0; i < 5; ++i) {
    m.push_back({std::string("span.") + kPhases[i].name + "_self_us", spans.self_us[1 + i], "us"});
  }

  // Tail latency is reported here, not gated: the p90 of primary_crash sits at the knee
  // between steady-state ops and the outage tail, and its spread reached 23% on a 4-vCPU VM.
  Samples lat = ea.latency_us;
  m.push_back({"latency.p90_us", lat.Percentile(90), "us"});
  m.push_back({"latency.p99_us", lat.Percentile(99), "us"});
  m.push_back({"latency.samples", static_cast<double>(lat.count()), "count"});

  std::printf("\nspan self time, mean us per sampled op (%llu ops, 1 in %u traced; %s):\n",
              static_cast<unsigned long long>(spans.ops), kTraceSampleEvery,
              spans_path.empty() ? "no span file" : spans_path.c_str());
  for (const auto& [name, us] : spans.self_by_name) {
    std::printf("  %-34s %10.2f\n", name.c_str(), us);
  }
  std::printf("threads: %.1f%% of process CPU attributed to threads; by role (user+sys us/op):",
              process_ticks > 0 ? thread_ticks / process_ticks * 100 : 0);
  for (const auto& [role, r] : by_role) {
    std::printf(" %s=%.1f", role.c_str(), PerOp((r.user_s + r.sys_s) * 1e6, ops));
  }
  std::printf("\n");
  return m;
}

// ---- The run --------------------------------------------------------------------------------

int Run(const Args& args) {
  const Spec* spec = FindSpec(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "bench_pbft: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (std::strcmp(kBuildType, "release") != 0) {
    std::fprintf(stderr, "bench_pbft: refusing to measure a %s build\n", kBuildType);
    return 2;
  }
  utsname host;
  uname(&host);
  std::printf("bench_pbft workload=%s seed=%llu seconds=%g trace=%d | nproc=%ld kernel=%s "
              "build=%s\n",
              spec->name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), host.release, kBuildType);
  double host_ref_ms = HostReferenceMs();

  Control control;
  BenchClock clock;
  std::unique_ptr<Harness> harness;
  Samples setup_s;
  for (int i = 0; i < kSetups; ++i) {
    harness.reset();
    auto t0 = std::chrono::steady_clock::now();
    harness = std::make_unique<Harness>(*spec, args.seed, &control, &clock);
    bool ok = harness->Setup();
    setup_s.Add(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    if (!ok) {
      std::fprintf(stderr, "bench_pbft: set-up op failed to certify\n");
      return 1;
    }
  }
  Harness& h = *harness;
  RtCluster& cluster = h.cluster();
  clock.Calibrate(*h.identities()[0]->node());

  std::map<pid_t, std::string> roles;
  roles[gettid()] = "main";
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    roles[ReplicaTid(cluster, i)] = "replica" + std::to_string(i);
  }
  for (auto& id : h.identities()) {
    id->Start();
  }
  for (size_t c = 0; c < h.identities().size(); ++c) {
    while (h.identities()[c]->tid() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    roles[h.identities()[c]->tid()] = "client" + std::to_string(c);
  }

  for (const auto& [tid, role] : roles) {
    if (role != "main") {
      PinToCpu(tid, role.back() - '0');
    }
  }
  std::this_thread::sleep_for(std::chrono::seconds(1));  // warm-up, untimed
  Runner runner(h, clock, control, roles);
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  Window a = runner.Measure(window_s, false, spec->primary_crash);
  Window b;
  if (args.trace) {
    b = runner.Measure(window_s, true, spec->primary_crash);
  }

  // Drain: no new arrivals; every op already due must still certify.
  for (auto& id : h.identities()) {
    id->Stop();
  }
  SimTime deadline = clock.Now() + 30 * kSecond;
  auto pending = [&h]() {
    uint64_t total = 0;
    for (auto& id : h.identities()) {
      total += id->stopped() ? id->pending() : 1;
    }
    return total;
  };
  while (pending() > 0 && clock.Now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::vector<std::string> errors;
  if (uint64_t left = pending(); left > 0) {
    errors.push_back("drain: " + std::to_string(left) +
                     " ops still uncertified 30 s after the window");
  }
  if (args.trace) {
    runner.DrainTracer(&b.timelines);
  }
  // Audit: re-read every written key. Skipped when the drain failed: an identity with an op
  // outstanding cannot invoke another, and the run has failed already.
  uint64_t audited = 0;
  if (errors.empty() && !spec->null_service) {
    for (auto& id : h.identities()) {
      id->StartAudit();
    }
    SimTime audit_deadline = clock.Now() + 30 * kSecond;
    for (size_t c = 0; c < h.identities().size(); ++c) {
      Identity& id = *h.identities()[c];
      while (!id.audit_done() && clock.Now() < audit_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (!id.audit_done()) {
        errors.push_back("audit: identity " + std::to_string(c) + " got " +
                         std::to_string(id.audited()) + " of " +
                         std::to_string(id.audit_size()) + " reads back within 30 s");
      }
      audited += id.audited();
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // let last commits land
  cluster.Stop();

  // State audit: replicas that executed the same sequence number hold identical bytes.
  int identical_pairs = 0;
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    for (int j = i + 1; j < cluster.num_replicas(); ++j) {
      bft::Replica* ri = cluster.replica(i);
      bft::Replica* rj = cluster.replica(j);
      if (ri == nullptr || rj == nullptr || ri->last_executed() != rj->last_executed()) {
        continue;
      }
      if (std::memcmp(ri->state().data(), rj->state().data(), ri->state().size_bytes()) != 0) {
        errors.push_back("replicas " + std::to_string(i) + " and " + std::to_string(j) +
                         " executed seq " + std::to_string(ri->last_executed()) +
                         " with different state bytes");
      } else {
        ++identical_pairs;
      }
    }
  }
  if (identical_pairs == 0) {
    errors.push_back("state audit compared no replica pair: no two replicas ended level");
  }
  uint64_t wrong = 0;
  for (auto& id : h.identities()) {
    wrong += id->wrong_results();
    if (!id->first_error().empty()) {
      errors.push_back(id->first_error());
    }
  }
  EndToEnd ea = ComputeEndToEnd(h, a, spec->open_loop);
  EndToEnd eb;
  if (args.trace) {
    eb = ComputeEndToEnd(h, b, spec->open_loop);
  }
  uint64_t attempted = ea.attempted + eb.attempted;
  uint64_t failed = ea.failed + eb.failed;

  std::printf("setup_s          %.6f s      median of %zu set-ups (min %.6f, max %.6f)\n",
              setup_s.Percentile(50), setup_s.count(), setup_s.Percentile(0),
              setup_s.Percentile(100));
  std::printf("throughput_ops   %.1f ops/s  %llu certified in %.3f s\n", ea.throughput,
              static_cast<unsigned long long>(ea.certified), ea.seconds);
  std::printf("latency          %s, %s, %s, max=%.1fus\n", ea.latency_us.Describe(50, "us").c_str(),
              ea.latency_us.Describe(90, "us").c_str(), ea.latency_us.Describe(99, "us").c_str(),
              ea.latency_us.Max());
  std::printf("cpu_us_per_op    %.2f us     process CPU over certified ops\n", ea.cpu_us_per_op);
  std::printf("failed_ratio     %.6f      %llu of %llu attempted\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  std::printf("outage_ms        %.2f ms     longest stretch without a certified op\n",
              ea.outage_ms);
  if (spec->primary_crash) {
    std::printf("recovery_ms      %.2f ms     crash to first certified op invoked after it; "
                "catch-up %.2f ms\n",
                ea.recovery_ms, a.catchup_ms);
  }
  std::printf("host.ref_ms      %.3f ms\n", host_ref_ms);
  std::printf("correctness      %llu wrong results, %llu keys audited, %d replica pairs "
              "identical\n",
              static_cast<unsigned long long>(wrong), static_cast<unsigned long long>(audited),
              identical_pairs);
  for (const std::string& e : errors) {
    std::printf("  ERROR: %s\n", e.c_str());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = LayerMetrics(h, *spec, a, b, ea, eb, roles, host_ref_ms, args.spans);
    std::printf("\n%-44s %16s %s\n", "per-layer metric", "value", "unit");
    for (const Metric& m : metrics) {
      std::printf("%-44s %16.4f %s\n", m.name.c_str(), m.value, m.unit);
    }
  } else {
    metrics = {
        {"throughput_ops", ea.throughput, "ops/s"},
        {"p50_us", ea.latency_us.Percentile(50), "us"},
        {"cpu_us_per_op", ea.cpu_us_per_op, "us"},
        {"setup_s", setup_s.Percentile(50), "s"},
    };
  }
  bool correct = wrong == 0 && failed == 0 && errors.empty() && attempted > 0;
  PrintJsonLine(correct, std::max<uint64_t>(attempted, 1), failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pbft_bench

int main(int argc, char** argv) {
  pbft_bench::Args args;
  if (!pbft_bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_pbft --workload NAME --seed N --seconds S [--trace 0|1] "
                 "[--spans PATH]\n");
    return 2;
  }
  return pbft_bench::Run(args);
}
