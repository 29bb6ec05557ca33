// perfbench harness: one workload of the pp benchmark, timed from outside
// the library through its public API only.
//
//   perfbench --workload <compile_flow|batch_eval|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//   perfbench --calibrate
//
// Every workload runs whole rounds until --seconds have passed.  A round
// has three phases, and the workload decides how big each one is:
//   compile  platform::compile -> Session::load -> cold sim::JitEval build
//            in a fresh cache directory -> one verified batch per design;
//   batch    run_vectors on a resident adder through the interpreter and
//            the JIT at a mix of batch sizes, run_cycles clocked streams;
//   serve    two closed-loop serve::Client tenants against a loopback
//            serve::Server over a 2-device pool, rotating three designs.
// Every output is checked against the integer oracles of oracle.h.  The
// last line of stdout is the JSON result; nothing else is printed to
// stdout, and stdout is flushed before any call that can spawn the host
// compiler (the JIT forks), so a pending buffer is never duplicated.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/bitstream.h"
#include "core/fabric.h"
#include "core/timing.h"
#include "oracle.h"
#include "platform/compiler.h"
#include "platform/executor.h"
#include "platform/session.h"
#include "rt/device.h"
#include "rt/pool.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/evaluator.h"
#include "sim/jit.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using pp::platform::Engine;

const Clock::time_point g_process_start = Clock::now();

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------- checks

struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<int> reported{0};

  /// Count one operation; a false `ok` counts it failed and logs why.
  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (reported++ < 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
    return ok;
  }
};

Tally g_tally;
bool g_properties_ok = true;

void property(bool ok, const std::string& what) {
  if (!ok) {
    g_properties_ok = false;
    std::fprintf(stderr, "PROPERTY FAILED: %s\n", what.c_str());
  }
}

template <class T>
bool ok_or_log(const pp::Result<T>& r, const std::string& what) {
  return g_tally.check(r.ok(), what + (r.ok() ? "" : ": " + r.status().to_string()));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ------------------------------------------------------------- workloads

/// The serve phase's tail percentile.  Every round serves at least 100
/// jobs, so each round's p75 has at least 25 samples above it; the run
/// reports the median over rounds of the per-round p75.  (A p90 tail
/// spread 0.32 of its median between runs, more than its bound.)
constexpr double kTailPercentile = 0.75;

struct Mix {
  std::vector<Spec> family;          // compile phase
  std::vector<std::size_t> batches;  // batch phase sizes (vectors)
  int batch_reps;                    // passes over `batches` per round
  std::size_t streams;               // batch phase clocked streams
  std::size_t cycles;                // ... of this many cycles
  int jobs_per_tenant;               // serve phase
  std::size_t job_vectors;           // vectors per served job
};

const std::vector<Spec> kFullFamily = {{Kind::kAdder, 2},  {Kind::kAdder, 3},
                                       {Kind::kAdder, 4},  {Kind::kParity, 8},
                                       {Kind::kAccumulator, 3}};
const std::vector<Spec> kSmallFamily = {{Kind::kAdder, 2}};

std::optional<Mix> mix_for(std::string_view workload) {
  if (workload == "compile_flow")
    return Mix{kFullFamily, {512, 4096, 32768}, 4, 1024, 16, 50, 4096};
  if (workload == "batch_eval")
    return Mix{kSmallFamily, {512, 4096, 32768, 131072}, 32, 2048, 32, 50, 4096};
  if (workload == "serve_mix")
    return Mix{kSmallFamily, {512, 4096, 32768}, 4, 1024, 16, 300, 4096};
  return std::nullopt;
}

/// The resident designs: the batch-phase adder, the clocked pair, and the
/// three designs the serve phase rotates.
const Spec kBatchAdder{Kind::kAdder, 5};
const Spec kAccumulator{Kind::kAccumulator, 4};
const Spec kCounter{Kind::kCounter, 4};
const std::vector<Spec> kServed = {
    {Kind::kAdder, 3}, {Kind::kParity, 8}, {Kind::kAdder, 4}};
constexpr int kTenants = 2;
constexpr std::size_t kServeVariants = 4;  // stimulus batches per design

// ------------------------------------------------------------ plane codec

/// Pack vectors into the engines' uint64 SoA planes (input i of vector v at
/// word i*words + v/64, bit v%64).
std::vector<std::uint64_t> to_planes(const std::vector<Bits>& vectors,
                                     std::size_t width) {
  const std::size_t words = (vectors.size() + 63) / 64;
  std::vector<std::uint64_t> planes(width * words, 0);
  for (std::size_t v = 0; v < vectors.size(); ++v)
    for (std::size_t i = 0; i < width; ++i)
      if (vectors[v][i]) planes[i * words + v / 64] |= std::uint64_t{1} << (v % 64);
  return planes;
}

std::vector<Bits> from_planes(const std::vector<std::uint64_t>& planes,
                              std::size_t count, std::size_t width) {
  const std::size_t words = (count + 63) / 64;
  std::vector<Bits> out(count, Bits(width));
  for (std::size_t v = 0; v < count; ++v)
    for (std::size_t i = 0; i < width; ++i)
      out[v][i] = ((planes[i * words + v / 64] >> (v % 64)) & 1) != 0;
  return out;
}

/// Cycle-major planes for run_cycles from stream-major stimulus.
std::vector<std::uint64_t> to_cycle_planes(const std::vector<Bits>& stim,
                                           std::size_t cycles,
                                           std::size_t width) {
  const std::size_t lanes = stim.size() / cycles;
  const std::size_t words = (lanes + 63) / 64;
  std::vector<std::uint64_t> planes(cycles * width * words, 0);
  for (std::size_t s = 0; s < lanes; ++s)
    for (std::size_t c = 0; c < cycles; ++c)
      for (std::size_t i = 0; i < width; ++i)
        if (stim[s * cycles + c][i])
          planes[(c * width + i) * words + s / 64] |= std::uint64_t{1} << (s % 64);
  return planes;
}

std::vector<Bits> from_cycle_planes(const std::vector<std::uint64_t>& planes,
                                    std::size_t lanes, std::size_t cycles,
                                    std::size_t width) {
  const std::size_t words = (lanes + 63) / 64;
  std::vector<Bits> out(lanes * cycles, Bits(width));
  for (std::size_t s = 0; s < lanes; ++s)
    for (std::size_t c = 0; c < cycles; ++c)
      for (std::size_t i = 0; i < width; ++i)
        out[s * cycles + c][i] =
            ((planes[(c * width + i) * words + s / 64] >> (s % 64)) & 1) != 0;
  return out;
}

// ------------------------------------------------------- direct engines

/// A design elaborated from its bitstream by the harness itself, with the
/// nets the engines bind, for calls below the Session layer.
struct Elaborated {
  pp::core::ElaboratedFabric fabric;
  std::vector<pp::sim::NetId> in, out;
  std::vector<pp::sim::ExternalReg> regs;
};

std::optional<Elaborated> elaborate(const pp::platform::CompiledDesign& d) {
  auto fab = timed("core.Fabric.create", nullptr, [&] {
    return pp::core::Fabric::create(d.fabric.rows(), d.fabric.cols());
  });
  if (!fab.ok()) return std::nullopt;
  if (!timed("core.try_load_fabric", nullptr, [&] {
        return pp::core::try_load_fabric(*fab, d.bitstream);
      }).ok())
    return std::nullopt;
  auto elab = timed("core.Fabric.try_elaborate", nullptr,
                    [&] { return fab->try_elaborate(d.delays); });
  if (!elab.ok()) return std::nullopt;
  Elaborated e{std::move(*elab), {}, {}, {}};
  const auto line = [&](const pp::map::SignalAt& at) {
    return e.fabric.in_line(at.r, at.c, at.line);
  };
  for (const auto& p : d.inputs) e.in.push_back(line(p.at));
  for (const auto& p : d.outputs) e.out.push_back(line(p.at));
  for (const auto& s : d.state)
    e.regs.push_back({line(s.q_pad), line(s.d_at), pp::sim::Logic::k0});
  return e;
}

pp::Result<pp::sim::CompiledEval> program_of(const Elaborated& e,
                                             double* seconds = nullptr) {
  return timed("sim.CompiledEval.compile", seconds, [&] {
    return e.regs.empty()
               ? pp::sim::CompiledEval::compile(e.fabric.circuit(), e.in, e.out)
               : pp::sim::CompiledEval::compile_sequential(
                     e.fabric.circuit(), e.in, e.out, e.regs);
  });
}

pp::Result<pp::sim::JitEval> jit_build(const pp::sim::CompiledEval& program,
                                       const std::string& cache_dir,
                                       double* seconds) {
  std::fflush(stdout);  // the build forks the host compiler
  pp::sim::JitOptions options;
  options.cache_dir = cache_dir;
  return timed("sim.JitEval.build", seconds,
               [&] { return pp::sim::JitEval::build(program, options); });
}

/// Evaluate stimulus directly on an engine and return unpacked outputs.
pp::Result<std::vector<Bits>> run_engine(pp::sim::Evaluator& engine,
                                         const Spec& spec,
                                         const std::vector<Bits>& stim,
                                         std::size_t cycles,
                                         std::size_t outputs) {
  const std::size_t nin = spec.inputs();
  if (spec.clocked()) {
    const std::size_t lanes = stim.size() / cycles;
    const auto in = to_cycle_planes(stim, cycles, nin);
    std::vector<std::uint64_t> unknown(in.size(), 0);
    const std::size_t words = (lanes + 63) / 64;
    std::vector<std::uint64_t> ov(cycles * outputs * words), ou(ov.size());
    const pp::Status s = timed("sim.Evaluator.run_cycles", nullptr, [&] {
      return engine.run_cycles(in, unknown, ov, ou, cycles, lanes);
    });
    if (!s.ok()) return s;
    return from_cycle_planes(ov, lanes, cycles, outputs);
  }
  const auto in = to_planes(stim, nin);
  std::vector<std::uint64_t> unknown(in.size(), 0);
  const std::size_t words = (stim.size() + 63) / 64;
  std::vector<std::uint64_t> ov(outputs * words), ou(ov.size());
  const pp::Status s = timed("sim.Evaluator.eval_wide", nullptr, [&] {
    return engine.eval_wide(in, unknown, ov, ou, stim.size());
  });
  if (!s.ok()) return s;
  return from_planes(ov, stim.size(), outputs);
}

// --------------------------------------------------------------- run state

struct Inputs {
  std::vector<Bits> stim;
  std::vector<Bits> want;
};

/// The serve phase's inputs, and the serving stack of the current round.
/// Each round starts a fresh server, pool and pair of clients, so how the
/// stack's threads happen to be scheduled is drawn anew every round and a
/// run's medians do not hang on one draw.
struct Serving {
  std::vector<pp::platform::CompiledDesign> designs;  // kServed order
  int rows = 1, cols = 1;
  std::vector<std::vector<Inputs>> batches;  // [design][variant]
  std::optional<pp::serve::Server> server;
  std::vector<pp::serve::Client> clients;
  std::uint64_t jobs_sent = 0;  // replies the clients counted this round
  pp::rt::PoolStats last_pool;  // the last finished round's pool counters
};

struct Resident {
  std::optional<pp::platform::Session> adder, acc, counter;
  std::vector<Inputs> adder_batches;  // one per Mix::batches size
  Inputs acc_streams, counter_streams;
  Serving serving;
};

/// Host times of the timed operations across rounds, keyed by operation and
/// operand ("compile/adder3", "interp/4096").  A metric sums per-key
/// medians, so one descheduled call moves it little.
struct Samples {
  std::map<std::string, std::vector<double>> seconds;
  std::map<std::string, double> work;  // vectors or lane-cycles per call
  std::vector<double> jobs_per_s;      // per serve block
  std::vector<double> latency_ms;      // every served job
  std::vector<double> latency_tail_ms; // per round
  long long fabric_blocks = 0, critical_path_ps = 0;

  void add(const std::string& key, double s, double units = 1) {
    seconds[key].push_back(s);
    work[key] = units;
  }
  /// Sum over keys starting with `prefix` of the key's median time.
  [[nodiscard]] double total(std::string_view prefix) const {
    double t = 0;
    for (const auto& [key, v] : seconds)
      if (key.starts_with(prefix)) t += median(v);
    return t;
  }
  /// Work per second over keys starting with `prefix`, from median times.
  [[nodiscard]] double rate(std::string_view prefix) const {
    double units = 0;
    for (const auto& [key, u] : work)
      if (key.starts_with(prefix)) units += u;
    return units / total(prefix);
  }
};

std::string g_work_dir;
int g_cache_serial = 0;

std::string fresh_cache_dir() {
  const std::string dir =
      g_work_dir + "/jit-" + std::to_string(g_cache_serial++);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

bool same(const std::vector<Bits>& got, const std::vector<Bits>& want) {
  return got == want;
}

// ------------------------------------------------------------------ set-up

bool setup(const Mix& mix, Gen& gen, Resident& r) {
  const auto load = [&](const Spec& spec,
                        std::optional<pp::platform::Session>& out)
      -> std::optional<pp::platform::CompiledDesign> {
    auto d = timed("platform.compile", nullptr,
                   [&] { return pp::platform::compile(spec.netlist()); });
    if (!ok_or_log(d, "compile " + spec.name())) return std::nullopt;
    auto s = timed("platform.Session.load", nullptr,
                   [&] { return pp::platform::Session::load(*d); });
    if (!ok_or_log(s, "load " + spec.name())) return std::nullopt;
    out.emplace(std::move(*s));
    return std::move(*d);
  };
  if (!load(kBatchAdder, r.adder) || !load(kAccumulator, r.acc) ||
      !load(kCounter, r.counter))
    return false;
  for (std::size_t n : mix.batches) {
    Inputs in;
    in.stim = stimulus(kBatchAdder, n, gen);
    in.want = answers(kBatchAdder, in.stim, 1);
    r.adder_batches.push_back(std::move(in));
  }
  r.acc_streams.stim = stimulus(kAccumulator, mix.streams * mix.cycles, gen);
  r.acc_streams.want = answers(kAccumulator, r.acc_streams.stim, mix.cycles);
  r.counter_streams.stim = stimulus(kCounter, mix.streams * mix.cycles, gen);
  r.counter_streams.want = answers(kCounter, r.counter_streams.stim, mix.cycles);

  // Build the resident adder's JIT kernel now (cold, in the run's cache).
  std::fflush(stdout);
  auto warm = r.adder->run_vectors(r.adder_batches[0].stim,
                                   {.engine = Engine::kJit});
  if (!ok_or_log(warm, "JIT warm-up of " + kBatchAdder.name())) return false;

  // Serving: the served designs, compiled once, and their stimulus.
  for (const Spec& spec : kServed) {
    auto d = pp::platform::compile(spec.netlist());
    if (!ok_or_log(d, "compile " + spec.name())) return false;
    r.serving.rows = std::max(r.serving.rows, d->fabric.rows());
    r.serving.cols = std::max(r.serving.cols, d->fabric.cols());
    r.serving.designs.push_back(std::move(*d));
    std::vector<Inputs> variants;
    for (std::size_t v = 0; v < kServeVariants; ++v) {
      Inputs in;
      in.stim = stimulus(spec, mix.job_vectors, gen);
      in.want = answers(spec, in.stim, 1);
      variants.push_back(std::move(in));
    }
    r.serving.batches.push_back(std::move(variants));
  }
  return true;
}

/// Start a loopback server over a 2-device pool, connect the tenants,
/// register the served designs and run one warm-up job per design each.
bool start_serving(Serving& sv) {
  auto pool = pp::rt::DevicePool::create(2, sv.rows, sv.cols);
  if (!ok_or_log(pool, "DevicePool::create")) return false;
  pp::serve::ServerOptions options;
  options.max_inflight_per_tenant = 4;
  auto server = pp::serve::Server::create(std::move(*pool), options);
  if (!ok_or_log(server, "Server::create")) return false;
  sv.server.emplace(std::move(*server));
  sv.jobs_sent = 0;
  for (int t = 0; t < kTenants; ++t) {
    auto client = pp::serve::Client::connect(
        "127.0.0.1", sv.server->port(), "tenant" + std::to_string(t));
    if (!ok_or_log(client, "Client::connect")) return false;
    for (std::size_t k = 0; k < kServed.size(); ++k)
      if (!g_tally.check(
              client->register_design(kServed[k].name(), sv.designs[k]).ok(),
              "register " + kServed[k].name()))
        return false;
    for (std::size_t k = 0; k < kServed.size(); ++k) {
      const Inputs& in = sv.batches[k][0];
      auto reply = client->run(kServed[k].name(), in.stim);
      ++sv.jobs_sent;
      if (!g_tally.check(reply.ok() && same(*reply, in.want),
                         "served warm-up " + kServed[k].name()))
        return false;
    }
    sv.clients.push_back(std::move(*client));
  }
  return true;
}

/// Check that three totals reached by independent paths agree, keep the
/// pool's counters, and shut the round's serving stack down.
void stop_serving(Serving& sv) {
  sv.server->pool().drain();
  const auto server_stats = sv.server->stats();
  sv.last_pool = sv.server->pool().stats();
  property(server_stats.jobs_admitted == sv.jobs_sent &&
               sv.last_pool.jobs_completed == sv.jobs_sent,
           "client jobs " + std::to_string(sv.jobs_sent) + " == server admitted " +
               std::to_string(server_stats.jobs_admitted) + " == pool completed " +
               std::to_string(sv.last_pool.jobs_completed));
  std::uint64_t delta = 0, full = 0;
  for (const auto& d : sv.last_pool.device) delta += d.delta_bytes, full += d.full_bytes;
  property(delta <= full, "delta_bytes <= full_bytes");
  sv.clients.clear();
  sv.server.reset();
}

// ------------------------------------------------------------------ rounds

void compile_phase(const Mix& mix, Gen& gen, Samples& out, bool first) {
  long long blocks = 0, path_ps = 0;
  std::vector<std::pair<int, long long>> adder_paths;
  for (const Spec& spec : mix.family) {
    const std::string name = spec.name();
    double compile_s = 0, load_s = 0, jit_s = 0;
    auto d = timed("platform.compile", &compile_s,
                   [&] { return pp::platform::compile(spec.netlist()); });
    if (!ok_or_log(d, "compile " + name)) continue;
    blocks += static_cast<long long>(d->fabric.rows()) * d->fabric.cols();
    path_ps += d->report.critical_path_ps;
    if (first) {
      property(d->fabric.rows() * d->fabric.cols() >= d->report.mapped_nodes,
               "fabric_blocks >= mapped_nodes for " + name);
      if (spec.kind == Kind::kAdder)
        adder_paths.push_back({spec.width, d->report.critical_path_ps});
    }
    auto session = timed("platform.Session.load", &load_s,
                         [&] { return pp::platform::Session::load(*d); });
    if (!ok_or_log(session, "load " + name)) continue;
    out.add("compile/" + name, compile_s);
    out.add("load/" + name, load_s);

    const std::size_t cycles = spec.clocked() ? 16 : 1;
    const std::size_t count = spec.clocked() ? 64 * cycles : 512;
    const auto stim = stimulus(spec, count, gen);
    const auto want = answers(spec, stim, cycles);
    auto got = timed(spec.clocked() ? "platform.Session.run_cycles"
                                    : "platform.Session.run_vectors",
                     nullptr, [&] {
                       return spec.clocked() ? session->run_cycles(stim, cycles)
                                             : session->run_vectors(stim);
                     });
    g_tally.check(got.ok() && same(*got, want), "interpreted batch of " + name);

    auto e = elaborate(*d);
    if (!g_tally.check(e.has_value(), "elaborate " + name)) continue;
    auto program = program_of(*e);
    if (!ok_or_log(program, "program of " + name)) continue;
    const std::string dir = fresh_cache_dir();
    auto jit = jit_build(*program, dir, &jit_s);
    if (ok_or_log(jit, "JIT build of " + name)) {
      out.add("jit/" + name, jit_s);
      auto jgot = run_engine(*jit, spec, stim, cycles, e->out.size());
      g_tally.check(jgot.ok() && same(*jgot, want), "JIT batch of " + name);
    }
    fs::remove_all(dir);
  }
  if (first) {
    std::sort(adder_paths.begin(), adder_paths.end());
    for (std::size_t i = 1; i < adder_paths.size(); ++i)
      property(adder_paths[i].second > adder_paths[i - 1].second,
               "critical_path_ps increases with adder width " +
                   std::to_string(adder_paths[i].first));
  }
  out.fabric_blocks = blocks;
  out.critical_path_ps = path_ps;
}

void batch_phase(const Mix& mix, Resident& r, Samples& out) {
  for (int rep = 0; rep < mix.batch_reps; ++rep) {
    for (const Inputs& in : r.adder_batches) {
      const std::string size = std::to_string(in.stim.size());
      const auto units = static_cast<double>(in.stim.size());
      double interp_s = 0, jit_s = 0;
      auto got = timed("platform.Session.run_vectors", &interp_s, [&] {
        return r.adder->run_vectors(in.stim, {.engine = Engine::kCompiled});
      });
      g_tally.check(got.ok() && same(*got, in.want), "interpreter run_vectors");
      out.add("interp/" + size, interp_s, units);
      std::fflush(stdout);
      auto jgot = timed("platform.Session.run_vectors", &jit_s, [&] {
        return r.adder->run_vectors(in.stim, {.engine = Engine::kJit});
      });
      g_tally.check(jgot.ok() && same(*jgot, in.want), "JIT run_vectors");
      out.add("jitvec/" + size, jit_s, units);
    }
    for (auto* session : {&r.acc, &r.counter}) {
      const Inputs& in = session == &r.acc ? r.acc_streams : r.counter_streams;
      double stream_s = 0;
      auto got = timed("platform.Session.run_cycles", &stream_s, [&] {
        return (*session)->run_cycles(in.stim, mix.cycles);
      });
      g_tally.check(got.ok() && same(*got, in.want), "clocked run_cycles");
      out.add(session == &r.acc ? "stream/acc" : "stream/counter", stream_s,
              static_cast<double>(in.stim.size()));
    }
  }
}

/// Served jobs go in blocks of kBlockJobs per tenant; each block's wall time
/// gives one jobs/s sample.
constexpr int kBlockJobs = 10;

void serve_phase(const Mix& mix, Resident& r, Samples& out, int round) {
  Serving& sv = r.serving;
  if (!start_serving(sv)) {
    sv.clients.clear();
    sv.server.reset();
    return;
  }
  std::vector<std::vector<double>> lat(kTenants);
  for (int first = 0; first < mix.jobs_per_tenant; first += kBlockJobs) {
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t)
    threads.emplace_back([&, t] {
      pp::serve::Client& client = sv.clients[t];
      for (int j = first; j < first + kBlockJobs; ++j) {
        const std::size_t k = static_cast<std::size_t>(t + j) % kServed.size();
        const Inputs& in =
            sv.batches[k][static_cast<std::size_t>(j + round) % kServeVariants];
        double s = 0;
        auto reply = timed("serve.Client.run", &s, [&] {
          return client.run(kServed[k].name(), in.stim);
        });
        lat[t].push_back(s * 1e3);
        g_tally.check(reply.ok() && same(*reply, in.want),
                      "served job on " + kServed[k].name() +
                          (reply.ok() ? "" : ": " + reply.status().to_string()));
      }
    });
  for (auto& th : threads) th.join();
  out.jobs_per_s.push_back(kTenants * kBlockJobs / since(t0));
  sv.jobs_sent += kTenants * kBlockJobs;
  }
  std::vector<double> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  out.latency_ms.insert(out.latency_ms.end(), all.begin(), all.end());
  out.latency_tail_ms.push_back(percentile(all, kTailPercentile));
  stop_serving(sv);
}

// ------------------------------------------------------------ layer probes

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

/// Stage-by-stage calls on the compile family, JIT builds, exact counts.
void probe_compile(Metrics& m) {
  double compile_ms = 0, elab_ms = 0, timing_ms = 0, level_ms = 0;
  double encode_ms = 0, decode_ms = 0, program_ms = 0, jit_ms = 0, hit_ms = 0;
  long long nodes = 0, hops = 0, bytes = 0, instrs = 0;
  std::vector<double> lx, ly;
  for (const Spec& spec : kFullFamily) {
    double c = 0;
    auto d = timed("platform.compile", &c,
                   [&] { return pp::platform::compile(spec.netlist()); });
    if (!ok_or_log(d, "probe compile")) continue;
    compile_ms += c * 1e3;
    if (spec.kind == Kind::kAdder) {
      lx.push_back(std::log(spec.width));
      ly.push_back(std::log(c));
    }
    nodes += d->report.mapped_nodes;
    hops += d->report.route_hops;
    bytes += static_cast<long long>(d->bitstream.size());
    double s = 0;
    (void)timed("core.encode_fabric", &s,
                [&] { return pp::core::encode_fabric(d->fabric); });
    encode_ms += s * 1e3;
    auto fab = pp::core::Fabric::create(d->fabric.rows(), d->fabric.cols());
    s = 0;
    const pp::Status st = timed("core.try_load_fabric", &s, [&] {
      return pp::core::try_load_fabric(*fab, d->bitstream);
    });
    decode_ms += s * 1e3;
    g_tally.check(st.ok(), "probe decode");
    s = 0;
    auto elab = timed("core.Fabric.try_elaborate", &s,
                      [&] { return fab->try_elaborate(d->delays); });
    elab_ms += s * 1e3;
    if (!ok_or_log(elab, "probe elaborate")) continue;
    s = 0;
    (void)timed("core.analyze_timing", &s,
                [&] { return pp::core::analyze_timing(elab->circuit()); });
    timing_ms += s * 1e3;
    s = 0;
    (void)timed("sim.levelize", &s,
                [&] { return pp::sim::levelize(elab->circuit()); });
    level_ms += s * 1e3;
    auto e = elaborate(*d);
    if (!g_tally.check(e.has_value(), "probe elaborate")) continue;
    s = 0;
    auto program = program_of(*e, &s);
    program_ms += s * 1e3;
    if (!ok_or_log(program, "probe program")) continue;
    instrs += static_cast<long long>(program->instruction_count());
    const std::string dir = fresh_cache_dir();
    s = 0;
    auto cold = jit_build(*program, dir, &s);
    jit_ms += s * 1e3;
    s = 0;
    auto warm = jit_build(*program, dir, &s);
    hit_ms += s * 1e3;
    g_tally.check(cold.ok() && warm.ok() && warm->build_info().cache_hit,
                  "probe JIT cold build and cache hit");
    fs::remove_all(dir);
  }
  const double stages = elab_ms + timing_ms + level_ms + encode_ms;
  // Least-squares slope of log(compile time) on log(adder width).
  double slope = 0;
  if (lx.size() >= 2) {
    double mx = 0, my = 0;
    for (std::size_t i = 0; i < lx.size(); ++i) mx += lx[i], my += ly[i];
    mx /= lx.size();
    my /= ly.size();
    double sxy = 0, sxx = 0;
    for (std::size_t i = 0; i < lx.size(); ++i)
      sxy += (lx[i] - mx) * (ly[i] - my), sxx += (lx[i] - mx) * (lx[i] - mx);
    slope = sxy / sxx;
  }
  m.push_back({"core.elaborate_ms", elab_ms, "ms"});
  m.push_back({"core.timing_ms", timing_ms, "ms"});
  m.push_back({"sim.levelize_ms", level_ms, "ms"});
  m.push_back({"core.encode_ms", encode_ms, "ms"});
  m.push_back({"core.decode_ms", decode_ms, "ms"});
  m.push_back({"sim.program_compile_ms", program_ms, "ms"});
  m.push_back({"platform.place_route_ms", compile_ms - stages, "ms"});
  m.push_back({"platform.compile_scaling_exponent", slope, "exponent"});
  m.push_back({"sim.jit_build_ms", jit_ms, "ms"});
  m.push_back({"sim.jit_cache_hit_ms", hit_ms, "ms"});
  m.push_back({"sim.jit_ms_per_kinstr", jit_ms / (instrs / 1000.0), "ms/kinstr"});
  m.push_back({"platform.mapped_nodes", static_cast<double>(nodes), "count"});
  m.push_back({"platform.route_hops", static_cast<double>(hops), "count"});
  m.push_back({"core.bitstream_bytes", static_cast<double>(bytes), "bytes"});
  m.push_back({"sim.kernel_instructions", static_cast<double>(instrs), "count"});
}

/// Kernel, marshalling, sharding and per-call cost on the batch designs.
void probe_batch(Resident& r, Gen& gen, Metrics& m) {
  constexpr std::size_t kN = 131072;
  constexpr int kReps = 5;
  auto d = pp::platform::compile(kBatchAdder.netlist());
  if (!ok_or_log(d, "probe compile")) return;
  auto e = elaborate(*d);
  if (!g_tally.check(e.has_value(), "probe elaborate")) return;
  auto interp = program_of(*e);
  if (!ok_or_log(interp, "probe program")) return;
  const std::string dir = fresh_cache_dir();
  auto jit = jit_build(*interp, dir, nullptr);
  if (!ok_or_log(jit, "probe JIT build")) return;
  const auto stim = stimulus(kBatchAdder, kN, gen);
  const auto want = answers(kBatchAdder, stim, 1);
  const std::size_t nin = kBatchAdder.inputs(), nout = e->out.size();

  // Raw kernel on pre-packed planes, one thread.
  const auto in = to_planes(stim, nin);
  const std::vector<std::uint64_t> unknown(in.size(), 0);
  std::vector<std::uint64_t> ov(nout * (kN / 64)), ou(ov.size());
  const auto kernel_ns = [&](pp::sim::Evaluator& engine) {
    std::vector<double> t;
    for (int i = 0; i < kReps; ++i) {
      double s = 0;
      const pp::Status st = timed("sim.Evaluator.eval_wide", &s, [&] {
        return engine.eval_wide(in, unknown, ov, ou, kN);
      });
      g_tally.check(st.ok() && same(from_planes(ov, kN, nout), want),
                    std::string("raw kernel ") + engine.name());
      t.push_back(s * 1e9 / kN);
    }
    return median(t);
  };
  const double interp_ns = kernel_ns(*interp);
  const double jit_ns = kernel_ns(*jit);

  // run_vectors at one thread and at the default thread count.
  const auto rv_ns = [&](Engine engine, std::size_t threads) {
    std::vector<double> t;
    std::fflush(stdout);
    for (int i = 0; i < kReps; ++i) {
      double s = 0;
      auto got = timed("platform.Session.run_vectors", &s, [&] {
        return r.adder->run_vectors(stim, {.max_threads = threads, .engine = engine});
      });
      g_tally.check(got.ok() && same(*got, want), "probe run_vectors");
      t.push_back(s * 1e9 / kN);
    }
    return median(t);
  };
  const double interp_rv1 = rv_ns(Engine::kCompiled, 1);
  const double jit_rv1 = rv_ns(Engine::kJit, 1);
  const double interp_rvn = rv_ns(Engine::kCompiled, 0);

  // Wire marshalling: the SoA byte-plane codec.
  std::vector<double> pack, unpack;
  for (int i = 0; i < kReps; ++i) {
    double s = 0;
    auto bytes = timed("platform.pack_bit_planes", &s, [&] {
      return pp::platform::pack_bit_planes(stim, nin);
    });
    pack.push_back(s * 1e9 / kN);
    s = 0;
    auto back = timed("platform.unpack_bit_planes", &s, [&] {
      return pp::platform::unpack_bit_planes(bytes, kN, nin);
    });
    unpack.push_back(s * 1e9 / kN);
    g_tally.check(back.ok() && same(*back, stim), "bit-plane round trip");
  }

  // One granule through run_vectors.
  std::vector<double> small;
  const std::vector<Bits> granule(stim.begin(), stim.begin() + 512);
  const std::vector<Bits> granule_want(want.begin(), want.begin() + 512);
  for (int i = 0; i < 200; ++i) {
    double s = 0;
    auto got = timed("platform.Session.run_vectors", &s,
                     [&] { return r.adder->run_vectors(granule); });
    g_tally.check(got.ok() && same(*got, granule_want), "small batch");
    small.push_back(s * 1e6);
  }

  const auto stats = r.adder->executor_stats();
  const double passes = static_cast<double>(stats.fast_passes + stats.slow_passes);

  // Raw sequential kernel on the accumulator.
  auto ad = pp::platform::compile(kAccumulator.netlist());
  double seq_ns = 0;
  if (ok_or_log(ad, "probe compile")) {
    auto ae = elaborate(*ad);
    if (g_tally.check(ae.has_value(), "probe elaborate")) {
      auto seq = program_of(*ae);
      if (ok_or_log(seq, "probe sequential program")) {
        constexpr std::size_t kStreams = 4096, kCycles = 32;
        const auto sstim = stimulus(kAccumulator, kStreams * kCycles, gen);
        const auto swant = answers(kAccumulator, sstim, kCycles);
        std::vector<double> t;
        for (int i = 0; i < kReps; ++i) {
          double s = 0;
          auto got = timed("sim.CompiledEval.run_cycles", &s, [&] {
            return run_engine(*seq, kAccumulator, sstim, kCycles, ae->out.size());
          });
          g_tally.check(got.ok() && same(*got, swant), "raw run_cycles");
          t.push_back(s * 1e9 / (kStreams * kCycles));
        }
        seq_ns = median(t);
      }
    }
  }
  fs::remove_all(dir);

  m.push_back({"sim.interp_kernel_ns_per_vector", interp_ns, "ns"});
  m.push_back({"sim.jit_kernel_ns_per_vector", jit_ns, "ns"});
  m.push_back({"platform.pack_ns_per_vector", median(pack), "ns"});
  m.push_back({"platform.unpack_ns_per_vector", median(unpack), "ns"});
  m.push_back({"platform.interp_outside_kernel_share", 1 - interp_ns / interp_rv1, "share"});
  m.push_back({"platform.jit_outside_kernel_share", 1 - jit_ns / jit_rv1, "share"});
  m.push_back({"platform.shard_speedup", interp_rv1 / interp_rvn, "x"});
  m.push_back({"platform.small_batch_us", median(small), "us"});
  m.push_back({"sim.fast_pass_share",
               passes > 0 ? static_cast<double>(stats.fast_passes) / passes : 0, "share"});
  m.push_back({"sim.seq_kernel_ns_per_cycle", seq_ns, "ns"});
}

/// Wire codec, in-process pool latency, activation cost, pool counters.
void probe_serve(const Mix& mix, Resident& r, const Samples& samples,
                 Metrics& m) {
  Serving& sv = r.serving;
  const pp::rt::PoolStats& ps = sv.last_pool;

  // Codec: the frames one job of this workload puts on the wire.
  std::vector<double> codec;
  const Inputs& job = sv.batches[0][0];
  const std::size_t nin = kServed[0].inputs(), nout = job.want[0].size();
  for (int i = 0; i < 50; ++i) {
    double s = 0;
    timed("serve.codec", &s, [&] {
      pp::serve::SubmitBatchMsg msg;
      msg.request_id = 1;
      msg.design = kServed[0].name();
      msg.vector_count = static_cast<std::uint32_t>(job.stim.size());
      msg.input_count = static_cast<std::uint16_t>(nin);
      msg.planes = pp::platform::pack_bit_planes(job.stim, nin);
      const auto frame = pp::serve::encode_submit_batch(msg);
      auto f = pp::serve::decode_frame(frame);
      auto sub = f.ok() ? pp::serve::decode_submit_batch(*f)
                        : pp::Result<pp::serve::SubmitBatchMsg>(f.status());
      bool ok = sub.ok() &&
                pp::platform::unpack_bit_planes(sub->planes, sub->vector_count,
                                                sub->input_count)
                    .ok();
      pp::serve::ResultMsg res;
      res.request_id = 1;
      res.vector_count = msg.vector_count;
      res.output_count = static_cast<std::uint16_t>(nout);
      res.planes = pp::platform::pack_bit_planes(job.want, nout);
      const auto rframe = pp::serve::encode_result(res);
      auto rf = pp::serve::decode_frame(rframe);
      auto dec = rf.ok() ? pp::serve::decode_result(*rf)
                         : pp::Result<pp::serve::ResultMsg>(rf.status());
      if (dec.ok()) {
        auto back = pp::platform::unpack_bit_planes(
            dec->planes, dec->vector_count, dec->output_count);
        ok = ok && back.ok() && same(*back, job.want);
      }
      g_tally.check(ok && dec.ok(), "codec round trip");
    });
    codec.push_back(s * 1e6);
  }

  // The same rotation through DevicePool::run_sync, in process.
  std::vector<double> pool_lat;
  {
    auto pool = pp::rt::DevicePool::create(2, sv.rows, sv.cols);
    if (!ok_or_log(pool, "probe pool")) return;
    for (std::size_t k = 0; k < kServed.size(); ++k)
      g_tally.check(pool->register_design(kServed[k].name(), sv.designs[k]).ok(),
                    "probe register");
    std::vector<std::vector<double>> lat(kTenants);
    std::vector<std::thread> threads;
    for (int t = 0; t < kTenants; ++t)
      threads.emplace_back([&, t] {
        for (int j = 0; j < mix.jobs_per_tenant; ++j) {
          const std::size_t k = static_cast<std::size_t>(t + j) % kServed.size();
          const Inputs& in = sv.batches[k][static_cast<std::size_t>(j) % kServeVariants];
          double s = 0;
          auto got = timed("rt.DevicePool.run_sync", &s, [&] {
            return pool->run_sync(kServed[k].name(), in.stim);
          });
          g_tally.check(got.ok() && same(*got, in.want), "pool run_sync");
          lat[t].push_back(s * 1e3);
        }
      });
    for (auto& th : threads) th.join();
    for (auto& l : lat) pool_lat.insert(pool_lat.end(), l.begin(), l.end());
  }

  // Device::activate between two resident designs.
  std::vector<double> act;
  {
    auto dev = pp::rt::Device::create(sv.rows, sv.cols);
    if (ok_or_log(dev, "probe device") &&
        g_tally.check(dev->load("a", sv.designs[0]).ok() &&
                          dev->load("b", sv.designs[2]).ok(),
                      "probe device load")) {
      for (int i = 0; i < 40; ++i) {
        double s = 0;
        const pp::Status st = timed("rt.Device.activate", &s, [&] {
          return dev->activate(i % 2 ? "a" : "b");
        });
        g_tally.check(st.ok(), "activate");
        act.push_back(s * 1e3);
      }
    }
  }

  std::uint64_t activations = 0, batched = 0, completed = 0, delta = 0, full = 0;
  for (const auto& d : ps.device) {
    activations += d.activations;
    batched += d.batched_jobs;
    completed += d.jobs_completed;
    delta += d.delta_bytes;
    full += d.full_bytes;
  }
  const double pool_p50 = median(pool_lat);
  const double jobs = static_cast<double>(ps.jobs_submitted);
  m.push_back({"serve.codec_us_per_job", median(codec), "us"});
  m.push_back({"rt.pool_job_p50_ms", pool_p50, "ms"});
  m.push_back({"serve.wire_p50_ms", percentile(samples.latency_ms, 0.5) - pool_p50, "ms"});
  m.push_back({"rt.activation_ms", median(act), "ms"});
  m.push_back({"rt.activations_per_job", static_cast<double>(activations) / jobs, "ratio"});
  m.push_back({"rt.affinity_active_share", static_cast<double>(ps.affinity_active) / jobs, "share"});
  m.push_back({"rt.batched_job_share",
               completed ? static_cast<double>(batched) / completed : 0, "share"});
  m.push_back({"rt.delta_byte_share", full ? static_cast<double>(delta) / full : 0, "share"});
}

// ------------------------------------------------------------------ result

void print_result(const Metrics& m) {
  const std::uint64_t attempted = g_tally.attempted, failed = g_tally.failed;
  const bool correct = g_properties_ok && failed == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    const auto& [name, value, unit] = m[i];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    line += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + unit + "\"}";
  }
  line += "}}\n";
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host calibration for the README: parallel speedup of a 4-thread burn.
int calibrate() {
  const auto burn = [](int iters) {
    volatile std::uint64_t x = 1;
    for (int i = 0; i < iters; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  };
  constexpr int kIters = 200'000'000;
  auto t0 = Clock::now();
  burn(kIters);
  const double one = since(t0);
  t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(burn, kIters);
  for (auto& th : threads) th.join();
  const double four = since(t0);
  std::fprintf(stderr, "nproc %u, 1-thread burn %.3f s, 4-thread burn %.3f s, speedup %.2fx\n",
               std::thread::hardware_concurrency(), one, four, 4 * one / four);
  return 0;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--calibrate") return calibrate();
    if (i + 1 >= argc) break;
    if (a == "--workload") workload = argv[++i];
    else if (a == "--seed") seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds") seconds = std::strtod(argv[++i], nullptr);
    else if (a == "--trace") trace = std::string_view(argv[++i]) == "1";
    else if (a == "--work-dir") g_work_dir = argv[++i];
  }
  const std::optional<Mix> mix = mix_for(workload);
  if (!mix || seconds <= 0 || g_work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload compile_flow|batch_eval|serve_mix "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  if (trace) Tracer::get().enable(g_process_start);
  fs::create_directories(g_work_dir);

  // Inputs depend on the seed and the workload name only.
  Gen gen{seed * 0x2545f4914f6cdd1dull};
  for (char c : workload) gen.state = gen.state * 131 + static_cast<unsigned char>(c);

  Resident resident;
  if (!setup(*mix, gen, resident)) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  const double setup_s = since(g_process_start);

  // Round 0 warms caches and thread pools; its samples are discarded.  The
  // metrics are medians over the later rounds (at least three).
  Samples warmup, samples;
  const auto t0 = Clock::now();
  int rounds = 0;
  while (rounds < 4 || since(t0) < seconds) {
    Samples& into = rounds == 0 ? warmup : samples;
    compile_phase(*mix, gen, into, rounds == 0);
    batch_phase(*mix, resident, into);
    serve_phase(*mix, resident, into, rounds);
    ++rounds;
  }
  const double timed_s = since(t0);

  std::fprintf(stderr,
               "%s seed %llu: %d rounds in %.2f s, set-up %.3f s, %llu operations\n",
               workload.c_str(), static_cast<unsigned long long>(seed), rounds,
               timed_s, setup_s,
               static_cast<unsigned long long>(g_tally.attempted.load()));

  Metrics end_to_end = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"compile_s", samples.total("compile/"), "s"},
      {"load_s", samples.total("load/"), "s"},
      {"jit_build_s", samples.total("jit/"), "s"},
      {"fabric_blocks", static_cast<double>(samples.fabric_blocks), "blocks"},
      {"critical_path_ps", static_cast<double>(samples.critical_path_ps), "ps"},
      {"interp_vectors_per_s", samples.rate("interp/"), "vectors/s"},
      {"jit_vectors_per_s", samples.rate("jitvec/"), "vectors/s"},
      {"stream_cycles_per_s", samples.rate("stream/"), "lane-cycles/s"},
      {"jobs_per_s", median(samples.jobs_per_s), "jobs/s"},
      {"job_latency_p50_ms", percentile(samples.latency_ms, 0.5), "ms"},
      {"job_latency_tail_ms", median(samples.latency_tail_ms), "ms"},
  };
  if (!trace) {
    print_result(end_to_end);
  } else {
    for (const auto& [name, value, unit] : end_to_end)
      std::fprintf(stderr, "traced %s = %.6g %s\n", name.c_str(), value, unit.c_str());
    Metrics layers;
    probe_compile(layers);
    probe_batch(resident, gen, layers);
    probe_serve(*mix, resident, samples, layers);
    const fs::path traces = fs::path(g_work_dir).parent_path() / "traces";
    fs::create_directories(traces);
    const std::string path =
        (traces / (workload + "-seed" + std::to_string(seed) + ".json")).string();
    const bool dumped = Tracer::get().dump(path);
    std::fprintf(stderr, "%zu spans -> %s%s\n", Tracer::get().size(), path.c_str(),
                 dumped ? "" : " (write failed)");
    property(dumped, "trace dump written");
    print_result(layers);
  }
  return g_properties_ok && g_tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
