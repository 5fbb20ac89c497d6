// Repository benchmark program: runs one seeded workload against the
// multi-server system (bench::WposSystem) and the monolithic comparator
// (bench::MonoSystem), both through bench::Os2ApiBase, checks every result,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer ones)
// as the last line of stdout in JSON. See README.md for the metric
// definitions and the reasons behind each workload.
//
//   wpos_perfbench --workload file-docs --seed 1 --seconds 10 --trace 0
//
// Steps run in a fixed order in every process, so a workload's simulated
// numbers do not depend on the flags: set-up repetitions, the WPOS run
// (one warm pass, one measured pass, then timed passes), the mono run,
// and with --trace 1 a traced WPOS run whose counters must equal the
// untraced run's.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/lib/systems.h"
#include "perfbench/workloads.h"
#include "src/base/log.h"
#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/mk/scheduler.h"
#include "src/mk/trace/tracer.h"

namespace {

using perfbench::CallStats;
using perfbench::kNumCalls;
using Clock = std::chrono::steady_clock;

// Machine and disk sizes of bench::WposSystem (bench/lib/systems.cc), for
// timing their construction alone.
constexpr uint64_t kWposRam = 64ull * 1024 * 1024;
constexpr uint64_t kDiskSectors = 256 * 1024;

constexpr int kSetupReps = 7;
constexpr int kMinTimedPasses = 5;
// Traced passes keep every span in memory, so the traced run is short.
constexpr int kTracedPasses = 4;
// At least this many samples must lie beyond the 99th percentile.
constexpr size_t kMinBeyondP99 = 10;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Linear interpolation between order statistics.
double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  const double a = static_cast<double>(v[lo]);
  return a + frac * (static_cast<double>(v[hi]) - a);
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Kernel and CPU counters at one instant.
struct Snapshot {
  hw::CpuCounters cpu;
  uint64_t rpcs = 0;
  uint64_t irqs = 0;
  uint64_t ctx_switches = 0;
  uint64_t space_switches = 0;
  uint64_t shed = 0;

  static Snapshot Take(mk::Kernel& k) {
    return {k.Counters(), k.rpc_calls(), k.interrupts_delivered(),
            k.scheduler().context_switches(), k.scheduler().address_space_switches(),
            k.tracer().metrics().Counter("mk.rpc.shed")};
  }
  Snapshot operator-(const Snapshot& o) const {
    return {cpu - o.cpu,
            rpcs - o.rpcs,
            irqs - o.irqs,
            ctx_switches - o.ctx_switches,
            space_switches - o.space_switches,
            shed - o.shed};
  }
};

// One measured pass: counter deltas plus the probe's per-call record.
struct Window {
  Snapshot delta;
  std::vector<uint64_t> latencies;  // simulated cycles per call, in call order
  std::array<CallStats, kNumCalls> calls{};
  uint64_t mhz = 0;

  double num_calls() const { return static_cast<double>(latencies.size()); }
  double Ms(uint64_t cycles) const { return Ratio(static_cast<double>(cycles), 1000.0 * mhz); }
  double Us(double cycles) const { return Ratio(cycles, static_cast<double>(mhz)); }
  uint64_t CallCycles() const {
    uint64_t sum = 0;
    for (const CallStats& c : calls) {
      sum += c.sim_cycles;
    }
    return sum;
  }
};

bool SameCounters(const Window& a, const Window& b) {
  const hw::CpuCounters& x = a.delta.cpu;
  const hw::CpuCounters& y = b.delta.cpu;
  return x.instructions == y.instructions && x.cycles == y.cycles &&
         x.bus_cycles == y.bus_cycles && x.icache_misses == y.icache_misses &&
         x.dcache_misses == y.dcache_misses && x.tlb_misses == y.tlb_misses &&
         x.data_accesses == y.data_accesses && x.uncached_accesses == y.uncached_accesses &&
         a.delta.rpcs == b.delta.rpcs && a.delta.irqs == b.delta.irqs &&
         a.delta.ctx_switches == b.delta.ctx_switches &&
         a.delta.space_switches == b.delta.space_switches && a.delta.shed == b.delta.shed &&
         a.latencies == b.latencies;
}

// Per-layer sums read from the tracer's spans over the measured window.
struct Layers {
  uint64_t rpc_spans = 0;
  uint64_t rpc_send = 0;        // client entry until queued or dispatched
  uint64_t rpc_queue_wait = 0;  // parked in the port's queue until dispatch
  uint64_t rpc_reply = 0;       // reply until the client resumes
  uint64_t fs_spans = 0;
  uint64_t fs_self = 0;
  uint64_t disk_spans = 0;
  uint64_t disk_self = 0;
};

// A span's duration minus the part of it its direct children cover.
uint64_t SelfCycles(const mk::trace::Tracer::SpanMeta& span,
                    std::vector<std::pair<uint64_t, uint64_t>> children) {
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t reach = span.begin_cycle;
  for (auto [b, e] : children) {
    b = std::max(b, reach);
    e = std::min(e, span.end_cycle);
    if (e > b) {
      covered += e - b;
      reach = e;
    }
  }
  return span.end_cycle - span.begin_cycle - covered;
}

Layers ReadLayers(const mk::trace::Tracer& tracer, uint64_t first_span) {
  using mk::trace::SpanKind;
  const auto& spans = tracer.spans();
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (auto it = spans.lower_bound(first_span); it != spans.end(); ++it) {
    if (it->second.ended && it->second.parent != 0) {
      children[it->second.parent].emplace_back(it->second.begin_cycle, it->second.end_cycle);
    }
  }
  Layers l;
  for (auto it = spans.lower_bound(first_span); it != spans.end(); ++it) {
    const mk::trace::Tracer::SpanMeta& s = it->second;
    if (!s.ended) {
      continue;
    }
    if (s.kind == SpanKind::kRpc) {
      ++l.rpc_spans;
      const uint64_t parked = s.queued_cycle != 0 ? s.queued_cycle : s.dispatch_cycle;
      if (parked != 0) {
        l.rpc_send += parked - s.begin_cycle;
      }
      if (s.queued_cycle != 0 && s.dispatch_cycle != 0) {
        l.rpc_queue_wait += s.dispatch_cycle - s.queued_cycle;
      }
      if (s.reply_cycle != 0) {
        l.rpc_reply += s.end_cycle - s.reply_cycle;
      }
    } else if (s.kind == SpanKind::kServerOp && (s.label == "fs" || s.label == "disk")) {
      auto c = children.find(it->first);
      const uint64_t self =
          SelfCycles(s, c == children.end() ? std::vector<std::pair<uint64_t, uint64_t>>{}
                                            : c->second);
      if (s.label == "fs") {
        ++l.fs_spans;
        l.fs_self += self;
      } else {
        ++l.disk_spans;
        l.disk_self += self;
      }
    }
  }
  return l;
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct WposRun {
  Window window;
  Layers layers;               // traced run only
  std::vector<double> pass_s;  // host seconds per pass, measured pass included
  std::vector<double> ops_per_s;
  std::array<CallStats, kNumCalls> host_calls{};  // every pass after the warm one, summed
  int systems = 0;
  bool finished = true;  // every application thread ran to its end

  bool Done(bool traced, Clock::time_point start, double seconds) const {
    if (traced) {
      return pass_s.size() >= kTracedPasses;
    }
    return Seconds(start, Clock::now()) >= seconds && pass_s.size() >= kMinTimedPasses;
  }
};

// Runs passes on one fresh WPOS system: Prepare, a warm pass, then (on the
// first system only) the measured pass, then timed passes until the run is
// done or the kernel heap runs short. The kernel heap (src/mk/kernel_heap.h)
// never frees, and some paths take from it on every operation (each
// reflected disk interrupt takes 64 B), so a system stops while it still has
// room for two more passes and the run continues on a new one.
void RunWposSystem(const std::string& name, uint64_t seed, Clock::time_point start,
                   double seconds, bool traced, WposRun* run, Totals* totals) {
  bench::WposSystem sys;
  mk::Kernel& kernel = sys.kernel();
  if (traced) {
    kernel.tracer().Enable();
  }
  auto api = sys.MakeApi();
  perfbench::Probe probe(kernel, *api);
  auto workload = perfbench::MakeWorkload(name, seed);
  const bool first_system = run->systems++ == 0;
  const uint64_t heap_bytes = mk::KernelConfig().kernel_heap_bytes;
  bool finished = false;
  sys.RunApp([&](mk::Env& env) {
    workload->Prepare(env, probe);
    probe.BeginPass();
    workload->Pass(env, probe, 0);  // warm: caches, name lookups, FS metadata
    uint64_t heap_per_pass = 0;
    for (uint64_t pass = 1;; ++pass) {
      const uint64_t heap0 = kernel.heap().bytes_allocated();
      if (pass > 1 &&
          (run->Done(traced, start, seconds) || heap0 + 2 * heap_per_pass > heap_bytes)) {
        break;
      }
      const bool measured = first_system && pass == 1;
      const auto& spans = kernel.tracer().spans();
      const uint64_t first_span = spans.empty() ? 1 : spans.rbegin()->first + 1;
      const Snapshot s0 = Snapshot::Take(kernel);
      probe.BeginPass();
      const Clock::time_point t0 = Clock::now();
      workload->Pass(env, probe, pass);
      const double s = Seconds(t0, Clock::now());
      run->pass_s.push_back(s);
      run->ops_per_s.push_back(static_cast<double>(probe.pass_calls()) / s);
      heap_per_pass = std::max(heap_per_pass, kernel.heap().bytes_allocated() - heap0);
      if (measured) {
        run->window.delta = Snapshot::Take(kernel) - s0;
        run->window.latencies = probe.latencies();
        run->window.calls = probe.stats();
        run->window.mhz = kernel.cpu().config().mhz;
        if (traced) {
          run->layers = ReadLayers(kernel.tracer(), first_span);
        }
      }
      for (int c = 0; c < kNumCalls; ++c) {
        run->host_calls[c].count += probe.stats()[c].count;
        run->host_calls[c].host_ns += probe.stats()[c].host_ns;
      }
    }
    finished = true;
  });
  run->finished = run->finished && finished;
  totals->attempted += probe.attempted();
  totals->failed += probe.failed();
}

WposRun RunWpos(const std::string& name, uint64_t seed, double seconds, bool traced,
                Totals* totals) {
  WposRun run;
  const Clock::time_point start = Clock::now();
  do {
    RunWposSystem(name, seed, start, seconds, traced, &run, totals);
  } while (run.finished && !run.Done(traced, start, seconds));
  return run;
}

struct MonoRun {
  Window window;
  double setup_s = 0;
  bool finished = false;
};

MonoRun RunMono(const std::string& name, uint64_t seed, Totals* totals) {
  MonoRun run;
  const Clock::time_point t0 = Clock::now();
  bench::MonoSystem sys;
  mk::Kernel& kernel = sys.kernel();
  auto api = sys.MakeApi();
  perfbench::Probe probe(kernel, *api);
  auto workload = perfbench::MakeWorkload(name, seed);
  sys.RunApp([&](mk::Env& env) {
    run.setup_s = Seconds(t0, Clock::now());
    workload->Prepare(env, probe);
    probe.BeginPass();
    workload->Pass(env, probe, 0);
    const Snapshot s0 = Snapshot::Take(kernel);
    probe.BeginPass();
    workload->Pass(env, probe, 1);
    run.window.delta = Snapshot::Take(kernel) - s0;
    run.window.latencies = probe.latencies();
    run.window.calls = probe.stats();
    run.window.mhz = kernel.cpu().config().mhz;
    run.finished = true;
  });
  totals->attempted += probe.attempted();
  totals->failed += probe.failed();
  return run;
}

struct SetupTimes {
  std::vector<double> setup_s;     // construction until the first application call
  std::vector<double> format_s;    // construction done until the first call (mkfs)
  std::vector<double> teardown_s;  // destruction
};

void SetUpWposOnce(SetupTimes* times) {
  const Clock::time_point t0 = Clock::now();
  auto sys = std::make_unique<bench::WposSystem>();
  const Clock::time_point t1 = Clock::now();
  Clock::time_point first_call = t1;
  sys->RunApp([&](mk::Env&) { first_call = Clock::now(); });
  const Clock::time_point t3 = Clock::now();
  sys.reset();
  times->setup_s.push_back(Seconds(t0, first_call));
  times->format_s.push_back(Seconds(t1, first_call));
  times->teardown_s.push_back(Seconds(t3, Clock::now()));
}

double TimeMachineBuild() {
  const Clock::time_point t0 = Clock::now();
  auto machine = std::make_unique<hw::Machine>(hw::MachineConfig{.ram_bytes = kWposRam});
  return Seconds(t0, Clock::now());
}

double TimeDiskBuild() {
  const Clock::time_point t0 = Clock::now();
  auto disk =
      std::make_unique<hw::Disk>("disk0", 3, hw::Disk::Geometry{.sectors = kDiskSectors});
  return Seconds(t0, Clock::now());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(bool correct, const Totals& totals, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(totals.attempted);
  out += ", \"failed\": " + std::to_string(totals.failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && perfbench::MakeWorkload(args->workload, 0) != nullptr &&
         args->seconds > 0;
}

// The paper's WPOS:OS/2 ratio of the Table 1 rows each workload is modelled
// on, printed beside the measured ratio for information only.
const char* PaperRatio(const std::string& workload) {
  if (workload == "file-docs") {
    return "2.96 (File Intensive 1)";
  }
  if (workload == "file-records") {
    return "2.97 (File Intensive 2)";
  }
  return "0.71-1.02 (Graphics, PM Tasking)";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <file-docs|file-records|desktop> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  // Servers stay parked in their receive loops when a run ends; that is
  // expected here, so the kernel's warning about it is not shown.
  base::SetLogLevel(base::LogLevel::kError);
  Totals totals;

  SetupTimes setup;
  for (int i = 0; i < kSetupReps; ++i) {
    SetUpWposOnce(&setup);
  }
  const WposRun wpos = RunWpos(args.workload, args.seed, args.seconds, false, &totals);
  const MonoRun mono = RunMono(args.workload, args.seed, &totals);

  bool correct = wpos.finished && mono.finished;
  if (!correct) {
    std::fprintf(stderr, "perfbench: a system stopped before the workload finished\n");
  }
  const Window& w = wpos.window;
  const Window& m = mono.window;
  const double p50 = Percentile(w.latencies, 0.50);
  const double p99 = Percentile(w.latencies, 0.99);
  const size_t beyond_p99 = static_cast<size_t>(
      std::count_if(w.latencies.begin(), w.latencies.end(),
                    [&](uint64_t c) { return static_cast<double>(c) > p99; }));
  if (beyond_p99 < kMinBeyondP99) {
    std::fprintf(stderr, "perfbench: %zu of %zu samples lie beyond p99, fewer than %zu\n",
                 beyond_p99, w.latencies.size(), kMinBeyondP99);
    correct = false;
  }
  // The fastest pass: on a shared host, other tenants slow whole stretches of
  // a run, so the median pass moves with them far more than the best one
  // (README.md gives the spreads).
  const double host_ops_per_s = Max(wpos.ops_per_s);
  const double wpos_ms = w.Ms(w.delta.cpu.cycles);
  const double mono_ms = m.Ms(m.delta.cpu.cycles);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wpos_sim_ms", wpos_ms, "ms"},
        {"mono_sim_ms", mono_ms, "ms"},
        {"op_p50_sim_us", w.Us(p50), "us"},
        {"op_p99_sim_us", w.Us(p99), "us"},
        {"host_ops_per_s", host_ops_per_s, "1/s"},
        {"setup_s", Median(setup.setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const WposRun traced = RunWpos(args.workload, args.seed, 0, true, &totals);
    const bool same = traced.finished && SameCounters(w, traced.window);
    std::printf("traced pass counters equal the untraced pass: %s\n", same ? "yes" : "NO");
    correct = correct && same;

    std::vector<double> machine_s, disk_s;
    for (int i = 0; i < kSetupReps; ++i) {
      machine_s.push_back(TimeMachineBuild());
      disk_s.push_back(TimeDiskBuild());
    }
    const double calls = w.num_calls();
    const double cycles = static_cast<double>(w.delta.cpu.cycles);
    const Layers& l = traced.layers;
    auto per_op = [&](uint64_t v) { return Ratio(static_cast<double>(v), calls); };
    metrics.push_back(
        {"app.sim_share", Ratio(cycles - static_cast<double>(w.CallCycles()), cycles), "ratio"});
    for (int c = 0; c < kNumCalls; ++c) {
      const std::string prefix = std::string("pers.") + perfbench::CallName(c);
      metrics.push_back({prefix + ".sim_cycles_per_call",
                         Ratio(static_cast<double>(w.calls[c].sim_cycles),
                               static_cast<double>(w.calls[c].count)),
                         "cycles"});
      metrics.push_back({prefix + ".host_us_per_call",
                         Ratio(static_cast<double>(wpos.host_calls[c].host_ns) / 1000.0,
                               static_cast<double>(wpos.host_calls[c].count)),
                         "us"});
    }
    const double rpcs = static_cast<double>(l.rpc_spans);
    const double fs = static_cast<double>(l.fs_spans);
    const double disk = static_cast<double>(l.disk_spans);
    const hw::CpuCounters& cpu = w.delta.cpu;
    const std::vector<Metric> layer_metrics = {
        {"mk.rpcs_per_op", per_op(w.delta.rpcs), "count/op"},
        {"mk.ctx_switches_per_op", per_op(w.delta.ctx_switches), "count/op"},
        {"mk.space_switches_per_op", per_op(w.delta.space_switches), "count/op"},
        {"mk.irqs_per_op", per_op(w.delta.irqs), "count/op"},
        {"mk.rpc.shed_per_op", per_op(w.delta.shed), "count/op"},
        {"mk.rpc.send_cycles_per_rpc", Ratio(static_cast<double>(l.rpc_send), rpcs), "cycles"},
        {"mk.rpc.queue_wait_cycles_per_rpc", Ratio(static_cast<double>(l.rpc_queue_wait), rpcs),
         "cycles"},
        {"mk.rpc.reply_cycles_per_rpc", Ratio(static_cast<double>(l.rpc_reply), rpcs), "cycles"},
        {"svc.fs.rpcs_per_op", per_op(l.fs_spans), "count/op"},
        {"svc.fs.self_cycles_per_rpc", Ratio(static_cast<double>(l.fs_self), fs), "cycles"},
        {"svc.fs.disk_rpcs_per_fs_rpc", Ratio(disk, fs), "ratio"},
        {"drv.disk.rpcs_per_op", per_op(l.disk_spans), "count/op"},
        {"drv.disk.self_cycles_per_rpc", Ratio(static_cast<double>(l.disk_self), disk),
         "cycles"},
        {"hw.cpi", cpu.cpi(), "cycles/instr"},
        {"hw.instr_per_op", per_op(cpu.instructions), "instr/op"},
        {"hw.icache_misses_per_op", per_op(cpu.icache_misses), "count/op"},
        {"hw.dcache_misses_per_op", per_op(cpu.dcache_misses), "count/op"},
        {"hw.bus_cycles_per_op", per_op(cpu.bus_cycles), "cycles/op"},
        {"hw.uncached_per_op", per_op(cpu.uncached_accesses), "count/op"},
        {"hw.machine_build_s", Median(machine_s), "s"},
        {"hw.disk_build_s", Median(disk_s), "s"},
        {"host.format_s", Median(setup.format_s), "s"},
        {"host.teardown_s", Median(setup.teardown_s), "s"},
        {"baseline.sim_cycles_per_op",
         Ratio(static_cast<double>(m.delta.cpu.cycles), m.num_calls()), "cycles/op"},
        {"baseline.icache_misses_per_op",
         Ratio(static_cast<double>(m.delta.cpu.icache_misses), m.num_calls()), "count/op"},
        {"baseline.setup_s", mono.setup_s, "s"},
        {"trace.host_overhead", Ratio(Median(traced.pass_s), Median(wpos.pass_s)), "ratio"},
    };
    metrics.insert(metrics.end(), layer_metrics.begin(), layer_metrics.end());
  }

  correct = correct && totals.failed == 0;
  std::printf(
      "workload %s, seed %llu: %zu calls per pass (%zu beyond p99), %zu host passes on %d "
      "systems\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), w.latencies.size(),
      beyond_p99, wpos.pass_s.size(), wpos.systems);
  std::printf("failed_op_share %.6g (%llu of %llu calls, both systems)\n",
              Ratio(static_cast<double>(totals.failed), static_cast<double>(totals.attempted)),
              static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.attempted));
  std::printf("WPOS/mono simulated ratio %.3f; paper %s; not gated\n", Ratio(wpos_ms, mono_ms),
              PaperRatio(args.workload));
  std::printf("host ops/s %.6g in the fastest of %zu passes, %.6g in the median one\n",
              host_ops_per_s, wpos.ops_per_s.size(), Median(wpos.ops_per_s));
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit);
  }
  std::printf("%s\n", Json(correct, totals, metrics).c_str());
  return correct ? 0 : 1;
}
