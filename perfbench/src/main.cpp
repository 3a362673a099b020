// clicsim_perfbench: runs one benchmark workload repeatedly for a fixed
// host-time budget and prints one JSON record line with every metric
// (host and simulated, end-to-end and per layer), the sim_digest and the
// output checks. run.py builds this binary, selects the metrics
// BENCHMARK.json declares and prints the final result line.
//
//   clicsim_perfbench --workload paper-sweep|rpc-incast|fabric-collectives
//                     --seed N --seconds S --trace 0|1
//                     [--trace-out FILE]
//   clicsim_perfbench --selftest
//
// --trace 0 measures the end-to-end metrics on untraced passes. --trace 1
// alternates untraced and traced passes: per-layer host times come from
// the traced ones, the difference of the two medians is the tracing
// overhead, and the last traced pass's spans go to --trace-out as Chrome
// trace-event JSON. fabric-collectives runs min(4, nproc) PDES shards with
// --trace 1 and one shard with --trace 0.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/workloads.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  WorkloadFn fn;
  bool sharded;
};

constexpr Workload kWorkloads[] = {
    {"paper-sweep", paper_sweep, false},
    {"rpc-incast", rpc_incast, false},
    {"fabric-collectives", fabric_collectives, true},
};

// Workload-scoped simulated metrics; a workload that does not produce one
// reports 0 so every run prints the same names.
struct Scoped {
  const char* name;
  const char* unit;
};
constexpr Scoped kScoped[] = {
    {"paper_err_pct", "%"},
    {"bw_mbps.clic-a", "Mb/s"},
    {"apps.half_bw_tcp_over_clic", "ratio"},
    {"p50_us.clic-a", "us"},
    {"p99_us.clic-a", "us"},
    {"p50_us.tcp", "us"},
    {"p99_us.tcp", "us"},
    {"clic.p50_us", "us"},
    {"clic.p99_us", "us"},
    {"coll_us.clic-host", "us"},
    {"coll_us.clic-nic", "us"},
    {"apps.rank_spread_us", "us"},
};
constexpr const char* kStages[] = {"apps.queue_us.p99", "apps.send_us.p99",
                                   "apps.reply_us.p99"};
constexpr const char* kStacks[] = {"clic", "clic-a", "tcp"};

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: clicsim_perfbench --workload W --seed N --seconds S"
               " --trace 0|1 [--trace-out FILE]\n"
               "       clicsim_perfbench --selftest\n"
               "workloads: paper-sweep rpc-incast fabric-collectives\n");
  std::exit(code);
}

int default_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Peak resident set of this process, from /proc. VmHWM starts afresh in a
// forked child and at exec, unlike getrusage's ru_maxrss, which carries a
// parent's peak across exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;  // KiB -> MiB
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
}

void json_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  bool selftest = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(2);
    return argv[++i];
  };
  auto number = [&](const char* text, double lo, double hi) {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= lo && v <= hi)) usage(2);
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      a.workload = value(i);
      have_workload = true;
    } else if (arg == "--seed") {
      const char* text = value(i);
      char* end = nullptr;
      a.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') usage(2);
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = number(value(i), 0, 3600);
    } else if (arg == "--trace") {
      const std::string t = value(i);
      if (t != "0" && t != "1") usage(2);
      a.trace = t == "1" ? 1 : 0;
    } else if (arg == "--trace-out") {
      a.trace_out = value(i);
    } else if (arg == "--selftest") {
      a.selftest = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(0);
    } else {
      usage(2);
    }
  }
  if (!a.selftest && (!have_workload || !have_seed)) usage(2);
  return a;
}

// ---- One measured run -------------------------------------------------------------

// Input variants of one run: variant 0 is the run's seed itself, the others
// are derived from it. Untraced runs cycle their passes through every
// variant, so the host medians average over inputs rather than over one
// draw of (say) the incast dynamics. Simulated metrics and the sim_digest
// are variant 0's.
constexpr int kVariants = 5;

std::uint64_t variant_seed(std::uint64_t seed, int variant) {
  return variant == 0 ? seed
                      : mix(seed ^ (0x5eed0000ull + static_cast<std::uint64_t>(
                                                        variant)));
}

// Runs one untraced pass in a forked child and returns the child's peak
// RSS in MB, or -1 on failure. Called while this process is single-threaded
// (no bed alive), so fork is safe; the child leaves through _exit.
double pass_peak_rss_mb(const Workload& w, const PassOptions& opt) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    (void)w.fn(opt, nullptr);
    const double mb = peak_rss_mb();
    const bool ok = write(fds[1], &mb, sizeof mb) == sizeof mb;
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double mb = -1;
  const bool got = read(fds[0], &mb, sizeof mb) == sizeof mb;
  close(fds[0]);
  int status = 0;
  const bool reaped = waitpid(pid, &status, 0) == pid;
  const bool ok = got && reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return ok ? mb : -1;
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage(2);
  PassOptions opt;
  const bool traced_run = args.trace == 1;
  // Untraced (end-to-end) passes run one shard: on a shared host, spinning
  // shard barriers make a sharded pass's wall time swing by 2x between runs,
  // while its simulated outputs are identical at any shard count. The traced
  // run measures the sharded engine per layer.
  opt.shards = w->sharded && traced_run ? default_shards() : 1;
  // Untraced: every variant at least once. Traced: at least three
  // untraced/traced pairs of variant 0, so both medians have a middle.
  const int min_passes = traced_run ? 6 : kVariants;
  constexpr double kHardCapS = 150.0;

  Trace trace;
  std::vector<double> wall, setup;  // untraced passes
  std::vector<double> t_wall, build, arrivals, run_s, collect, teardown;
  std::map<std::string, std::vector<double>> run_by_stack;  // traced passes
  std::vector<double> rss;  // one forked pass per variant
  std::map<int, std::uint64_t> digests;  // variant -> sim_digest
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  PassResult first;  // variant 0, untraced
  PassResult traced_result;  // the last traced pass
  std::vector<std::string> checks;
  const double start = host_now_s();
  if (!traced_run) {
    for (int v = 0; v < kVariants; ++v) {
      opt.seed = variant_seed(args.seed, v);
      const double mb = pass_peak_rss_mb(*w, opt);
      if (mb <= 0) checks.push_back("peak RSS probe failed");
      rss.push_back(mb);
    }
  }
  for (int pass = 0;; ++pass) {
    const double elapsed = host_now_s() - start;
    if (pass >= min_passes &&
        (elapsed >= args.seconds || elapsed >= kHardCapS)) {
      break;
    }
    const bool traced = traced_run && pass % 2 == 1;
    const int variant = traced_run ? 0 : pass % kVariants;
    opt.seed = variant_seed(args.seed, variant);
    if (traced) trace.clear();
    const double t0 = host_now_s();
    PassResult r = w->fn(opt, traced ? &trace : nullptr);
    const double dt = host_now_s() - t0;
    attempted += r.attempted;
    failed += r.failed;
    if (traced) {
      t_wall.push_back(dt);
      build.push_back(r.host.build_s);
      arrivals.push_back(r.host.arrivals_s);
      run_s.push_back(r.host.run_s);
      collect.push_back(r.host.collect_s);
      teardown.push_back(r.host.teardown_s);
      for (const auto& [stack, s] : r.run_s_by_stack) {
        run_by_stack[stack].push_back(s);
      }
    } else {
      wall.push_back(dt);
      setup.push_back(r.host.setup_s());
    }
    const auto [it, fresh] = digests.emplace(variant, r.digest);
    if (!fresh && it->second != r.digest) {
      checks.push_back("sim_digest differs between passes of variant " +
                       std::to_string(variant) +
                       (traced_run ? " (traced vs untraced)" : ""));
    }
    if (fresh) {
      for (const auto& c : r.check_failures) {
        checks.push_back("variant " + std::to_string(variant) + ": " + c);
      }
    }
    if (pass == 0) {
      first = r;
    } else if (traced) {
      traced_result = std::move(r);
    }
  }

  Metrics m;
  auto host = [&m](const std::string& name, double v, const char* unit) {
    m[name] = Metric{v, unit, true};
  };
  // End-to-end.
  host("setup_s", median(setup), "s");
  host("wall_s", median(wall), "s");
  host("peak_rss_mb", median(rss), "MB");
  m["answered_frac"] = Metric{
      attempted > 0 ? static_cast<double>(attempted - failed) /
                          static_cast<double>(attempted)
                    : 0.0,
      "share", false};

  // Per layer: simulated counters and workload-scoped metrics.
  const PassResult& sim_src = traced_run ? traced_result : first;
  Counters total;
  for (const auto& [name, c] : sim_src.stacks) total.add(c);
  emit_layers(m, total, "");
  for (const char* stack : kStacks) {
    const auto it = sim_src.stacks.find(stack);
    emit_layers(m, it != sim_src.stacks.end() ? it->second : Counters{},
                std::string(".") + stack);
  }
  for (const Scoped& sc : kScoped) m[sc.name] = Metric{0, sc.unit, false};
  for (const char* stage : kStages) {
    m[stage] = Metric{0, "us", false};
    for (const char* stack : kStacks) {
      m[std::string(stage) + "." + stack] = Metric{0, "us", false};
    }
  }
  for (const auto& [name, metric] : sim_src.sim) m[name] = metric;

  // Per layer: host phases of the traced passes.
  if (traced_run) {
    host("sim.build_s", median(build), "s");
    host("apps.arrivals_s", median(arrivals), "s");
    host("sim.run_s", median(run_s), "s");
    host("apps.collect_s", median(collect), "s");
    host("sim.teardown_s", median(teardown), "s");
    host("sim.host_ns_per_event",
         total.events > 0 ? median(run_s) * 1e9 /
                                static_cast<double>(total.events)
                          : 0.0,
         "ns");
    for (const char* stack : kStacks) {
      const auto it = run_by_stack.find(stack);
      host(std::string("sim.run_s.") + stack,
           it != run_by_stack.end() ? median(it->second) : 0.0, "s");
    }
    host("apps.trace_overhead_s", median(t_wall) - median(wall), "s");
    m["apps.trace_spans"] =
        Metric{static_cast<double>(trace.size()), "count", true};
    if (!args.trace_out.empty() && !trace.write(args.trace_out)) {
      checks.push_back("cannot write trace file " + args.trace_out);
    }
  }

  const bool correct = checks.empty();
  std::string out = "{\"perfbench_record\":1,\"workload\":";
  json_string(out, w->name);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"trace\":" + std::to_string(args.trace);
  out += ",\"shards\":" + std::to_string(opt.shards);
  out += ",\"passes\":" + std::to_string(wall.size());
  out += ",\"traced_passes\":" + std::to_string(t_wall.size());
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"compiler\":";
#if defined(__clang__)
  json_string(out, __VERSION__);
#else
  json_string(out, "gcc " __VERSION__);
#endif
  out += ",\"build_type\":";
  json_string(out, PERFBENCH_BUILD_TYPE);
  out += ",\"sim_digest\":\"" + hex(digests[0]) + "\"";
  out += ",\"correct\":" + std::string(correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"variant_digests\":[";
  for (const auto& [variant, digest] : digests) {
    if (variant > 0) out += ',';
    out += '"' + hex(digest) + '"';
  }
  out += ']';
  auto list = [&out](const char* key, const std::vector<double>& v) {
    out += ",\"";
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      json_number(out, v[i]);
    }
    out += ']';
  };
  list("variant_peak_rss_mb", rss);
  list("pass_wall_s", wall);
  list("pass_setup_s", setup);
  list("traced_pass_wall_s", t_wall);
  out += ",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ',';
    json_string(out, checks[i]);
  }
  out += "],\"samples\":{";
  bool comma = false;
  for (const auto& [name, n] : sim_src.samples) {
    if (comma) out += ',';
    comma = true;
    json_string(out, name);
    out += ':' + std::to_string(n);
  }
  out += "},\"metrics\":{";
  comma = false;
  for (const auto& [name, metric] : m) {
    if (comma) out += ',';
    comma = true;
    json_string(out, name);
    out += ":{\"value\":";
    json_number(out, metric.value);
    out += ",\"unit\":";
    json_string(out, metric.unit);
    out += ",\"kind\":";
    json_string(out, metric.host ? "host" : "simulated");
    out += '}';
  }
  out += "}}";
  for (const auto& c : checks) std::fprintf(stderr, "check failed: %s\n", c.c_str());
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

// ---- Self-test ------------------------------------------------------------------------

int selftest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("  %-66s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  for (const Workload& w : kWorkloads) {
    PassOptions opt;
    opt.seed = 1;
    opt.shards = w.sharded ? default_shards() : 1;
    Trace trace;
    const PassResult plain = w.fn(opt, nullptr);
    const PassResult traced = w.fn(opt, &trace);
    expect(plain.check_failures.empty() && plain.failed == 0,
           std::string(w.name) + ": output checks pass");
    expect(plain.digest == traced.digest,
           std::string(w.name) + ": sim_digest equal traced and untraced");
    expect(trace.size() > 0, std::string(w.name) + ": traced pass has spans");
    if (w.sharded) {
      opt.shards = 1;
      const PassResult serial = w.fn(opt, nullptr);
      expect(serial.digest == plain.digest,
             std::string(w.name) + ": sim_digest equal at 1 and " +
                 std::to_string(default_shards()) + " shards");
    }
  }
  // The benchmark's ping-pong must time exactly what the library's
  // apps::clic_one_way / tcp_one_way (bench/fig5_clic_vs_tcp) time.
  struct Ref {
    const char* curve;
    std::int64_t mtu;
    bool tcp;
    bool adaptive;
  };
  for (const Ref& ref : {Ref{"clic-9000", 9000, false, false},
                         Ref{"tcp-1500", 1500, true, false},
                         Ref{"clic-a-9000", 9000, false, true}}) {
    bool same = true;
    for (const std::int64_t size : {std::int64_t{16}, std::int64_t{4096},
                                    std::int64_t{1} << 20}) {
      cs::apps::Scenario s;
      s.pingpong_reps = 3;
      s.mtu = ref.mtu;
      s.clic = ref.adaptive ? cs::apps::adaptive_clic_config()
                            : cs::apps::paper_clic_config();
      const SimTime lib = ref.tcp ? cs::apps::tcp_one_way(s, size)
                                  : cs::apps::clic_one_way(s, size);
      same = same && lib > 0 && lib == paper_sweep_point(ref.curve, size);
    }
    expect(same, std::string("paper-sweep: ") + ref.curve +
                     " matches the library ping-pong");
  }
  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  return args.selftest ? perfbench::selftest() : perfbench::run(args);
}
