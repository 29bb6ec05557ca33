#include "platform/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <utility>

#include "core/bitstream.h"
#include "util/thread_pool.h"

namespace pp::platform {
namespace {

constexpr std::size_t kLanes = sim::Evaluator::kBatchLanes;

/// Evaluate wide-batch granules [granule_begin, granule_end) of `stimulus`
/// on one engine instance.  A lane is one stimulus stream of `cycles`
/// vectors (stream-major: stream s's cycle c is `stimulus[s * cycles + c]`);
/// each granule is `granule_words` plane words of lanes (the final one may
/// be partial), packed straight into the engine's cycle-major
/// structure-of-arrays planes — with `cycles` == 1 that is exactly the
/// combinational layout.  Clocked granules run every cycle in one
/// run_cycles call, each from reset with per-lane register state carried
/// inside the engine's scratch (streams are independent by contract, so
/// sharded clones need no state exchange); combinational granules run one
/// eval_wide pass.  The packing scratch is allocated once per shard and
/// reused across its granules.  Fails on a non-binary output, whichever
/// engine produced it.
[[nodiscard]] Status eval_granules(sim::Evaluator& eval,
                                   std::span<const InputVector> stimulus,
                                   std::size_t cycles, bool clocked,
                                   const std::vector<std::string>& output_names,
                                   std::vector<BitVector>& results,
                                   std::size_t granule_begin,
                                   std::size_t granule_end,
                                   std::size_t granule_words) {
  const std::size_t nin = eval.input_count();
  const std::size_t nout = eval.output_count();
  const std::size_t streams = stimulus.size() / cycles;
  const std::size_t granule_lanes = granule_words * kLanes;
  // Per-shard scratch: sized for a full granule, truncated views for the
  // final partial one.  Stimulus is two-valued (BitVector), so the input
  // unknown plane is always all-zero — exactly what arms the compiled
  // engine's fast path.
  std::vector<std::uint64_t> in_value(nin * cycles * granule_words);
  const std::vector<std::uint64_t> in_unknown(nin * cycles * granule_words, 0);
  std::vector<std::uint64_t> out_value(nout * cycles * granule_words);
  std::vector<std::uint64_t> out_unknown(nout * cycles * granule_words);
  for (std::size_t g = granule_begin; g < granule_end; ++g) {
    const std::size_t s0 = g * granule_lanes;
    const std::size_t lanes =
        std::min<std::size_t>(granule_lanes, streams - s0);
    const std::size_t words = (lanes + kLanes - 1) / kLanes;
    const std::size_t in_words = nin * cycles * words;
    const std::size_t out_words = nout * cycles * words;
    std::fill(in_value.begin(), in_value.begin() + in_words, 0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t word = lane / kLanes;
      const std::uint64_t bit = std::uint64_t{1} << (lane % kLanes);
      for (std::size_t c = 0; c < cycles; ++c) {
        const InputVector& v = stimulus[(s0 + lane) * cycles + c];
        for (std::size_t j = 0; j < nin; ++j)
          if (v[j]) in_value[(c * nin + j) * words + word] |= bit;
      }
    }
    const std::span<const std::uint64_t> iv(in_value.data(), in_words);
    const std::span<const std::uint64_t> iu(in_unknown.data(), in_words);
    const std::span<std::uint64_t> ov(out_value.data(), out_words);
    const std::span<std::uint64_t> ou(out_unknown.data(), out_words);
    if (Status s = clocked ? eval.run_cycles(iv, iu, ov, ou, cycles, lanes)
                           : eval.eval_wide(iv, iu, ov, ou, lanes);
        !s.ok())
      return s;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t word = lane / kLanes;
      const std::uint64_t bit = std::uint64_t{1} << (lane % kLanes);
      for (std::size_t c = 0; c < cycles; ++c) {
        BitVector& r = results[(s0 + lane) * cycles + c];
        r.assign(nout, false);
        for (std::size_t k = 0; k < nout; ++k) {
          if (out_unknown[(c * nout + k) * words + word] & bit)
            return Status::internal(
                clocked ? "run_cycles: output '" + output_names[k] +
                              "' settled to X at cycle " + std::to_string(c) +
                              " (unreset register state?)"
                        : "run_vectors: output '" + output_names[k] +
                              "' settled to X");
          r[k] = (out_value[(c * nout + k) * words + word] & bit) != 0;
        }
      }
    }
  }
  return Status();
}

/// Kernel counters across both compiled backends: the interpreter and (once
/// adopted) the JIT engine, with the JIT's own passes — wide passes plus
/// clocked cycles — counted again as jit_passes.
[[nodiscard]] sim::RunCounters kernel_totals(const sim::CompiledEval* interp,
                                             const sim::JitEval* jit) {
  sim::RunCounters total;
  if (interp) total = interp->kernel_stats();
  if (jit) {
    const sim::RunCounters j = jit->kernel_stats();
    total += j;
    total.jit_passes += j.fast_passes + j.slow_passes + j.cycles_run;
  }
  return total;
}

}  // namespace

/// Bookkeeping for the background JIT kernel build.  The async task is
/// fully self-contained (it compiles its own program image from value
/// copies of the binding), so this state moves with the executor and the
/// future's destructor is the only join point.
struct BatchExecutor::JitState {
  bool requested = false;  ///< warm_jit has launched the build
  bool attempted = false;  ///< the build finished (engine or status below)
  Status status;           ///< failure reason when attempted && !engine
  std::future<Result<sim::JitEval>> future;
  std::unique_ptr<sim::JitEval> engine;
  /// Build events not yet attributed to a successful run's last_run_.
  std::uint64_t pending_compiles = 0;
  std::uint64_t pending_cache_hits = 0;
};

BatchExecutor::BatchExecutor(BatchExecutor&&) noexcept = default;
BatchExecutor& BatchExecutor::operator=(BatchExecutor&&) noexcept = default;
BatchExecutor::~BatchExecutor() = default;

BatchExecutor::BatchExecutor(const sim::Circuit& circuit,
                             std::vector<sim::NetId> in_nets,
                             std::vector<sim::NetId> out_nets,
                             std::vector<std::string> output_names,
                             sim::LevelMap levels,
                             std::vector<sim::ExternalReg> regs)
    : circuit_(&circuit),
      in_nets_(std::move(in_nets)),
      out_nets_(std::move(out_nets)),
      output_names_(std::move(output_names)),
      levels_(std::move(levels)),
      regs_(std::move(regs)) {
  // Clocked bindings: declared external register loops, or any behavioural
  // state-holding gate in the circuit itself.
  sequential_ = !regs_.empty();
  for (const sim::Gate& g : circuit.gates())
    if (g.kind == sim::GateKind::kDff || g.kind == sim::GateKind::kLatch ||
        g.kind == sim::GateKind::kCElement)
      sequential_ = true;
}

Status BatchExecutor::ensure_compiled() {
  if (compiled_attempted_) return compiled_status_;
  compiled_attempted_ = true;
  auto engine =
      sequential_
          ? sim::CompiledEval::compile_sequential(
                *circuit_, in_nets_, out_nets_, regs_,
                levels_.empty() ? nullptr : &levels_)
          : sim::CompiledEval::compile(*circuit_, in_nets_, out_nets_,
                                       levels_.empty() ? nullptr : &levels_);
  if (!engine.ok()) {
    compiled_status_ = engine.status();
    return compiled_status_;
  }
  compiled_ = std::make_unique<sim::CompiledEval>(std::move(*engine));
  return compiled_status_;
}

Result<sim::Evaluator*> BatchExecutor::ensure_event(std::uint64_t budget) {
  if (event_engine_) {
    event_engine_->set_max_events(budget);
    return static_cast<sim::Evaluator*>(event_engine_.get());
  }
  auto engine =
      sim::EventEval::create(*circuit_, in_nets_, out_nets_, budget, regs_);
  if (!engine.ok()) return engine.status();
  event_engine_ = std::make_unique<sim::EventEval>(std::move(*engine));
  return static_cast<sim::Evaluator*>(event_engine_.get());
}

Status BatchExecutor::compiled_engine_status() { return ensure_compiled(); }

void BatchExecutor::warm_jit(const sim::JitOptions& options) {
  if (!jit_state_) jit_state_ = std::make_unique<JitState>();
  JitState& js = *jit_state_;
  if (js.requested) return;
  js.requested = true;
  // The task compiles its own program image from value copies of the
  // binding (the circuit outlives the executor by contract): it never
  // touches the cached engines a dispatcher may be running on, and it
  // keeps working if this executor is moved mid-build.
  const sim::Circuit* circuit = circuit_;
  js.future = std::async(
      std::launch::async,
      [circuit, seq = sequential_, in = in_nets_, out = out_nets_,
       regs = regs_, levels = levels_, options]() -> Result<sim::JitEval> {
        auto base = seq ? sim::CompiledEval::compile_sequential(
                              *circuit, in, out, regs,
                              levels.empty() ? nullptr : &levels)
                        : sim::CompiledEval::compile(
                              *circuit, in, out,
                              levels.empty() ? nullptr : &levels);
        if (!base.ok()) return base.status();
        return sim::JitEval::build(*base, options);
      });
}

sim::JitEval* BatchExecutor::jit_ready() {
  if (!jit_state_ || !jit_state_->requested) return nullptr;
  JitState& js = *jit_state_;
  if (!js.attempted) {
    if (!js.future.valid() ||
        js.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
      return nullptr;  // still building — the caller keeps falling back
    js.attempted = true;
    auto built = js.future.get();
    if (built.ok()) {
      js.engine = std::make_unique<sim::JitEval>(std::move(*built));
      const sim::JitBuildInfo& bi = js.engine->build_info();
      if (bi.compiled) {
        ++stats_.jit_compiles;
        ++js.pending_compiles;
      }
      if (bi.cache_hit) {
        ++stats_.jit_cache_hits;
        ++js.pending_cache_hits;
      }
      js.status = Status();
    } else {
      js.status = built.status();
    }
  }
  return js.engine.get();
}

Status BatchExecutor::ensure_jit() {
  if (!jit_state_ || !jit_state_->requested) warm_jit();
  JitState& js = *jit_state_;
  if (!js.attempted && js.future.valid()) js.future.wait();
  (void)jit_ready();
  return js.status;
}

Status BatchExecutor::jit_engine_status() { return ensure_jit(); }

Result<std::vector<BitVector>> BatchExecutor::run(
    std::span<const InputVector> vectors, const RunOptions& options) {
  if (options.mode != 0 || options.sweep_modes)
    return Status::invalid_argument(
        "run_vectors: this binding serves a single configuration view — "
        "mode selection and sweeps need a polymorphic session "
        "(Session::load_poly)");
  if (sequential_)
    return Status::failed_precondition(
        "run_vectors: clocked design (register state) — vectors are cycles "
        "of a stream, not independent; use run_cycles");
  return run_batch(vectors, 1, false, options);
}

Result<std::vector<BitVector>> BatchExecutor::run_cycles(
    std::span<const InputVector> stimulus, std::size_t cycles,
    const RunOptions& options) {
  if (options.mode != 0 || options.sweep_modes)
    return Status::invalid_argument(
        "run_cycles: this binding serves a single configuration view — "
        "clocked polymorphic designs run per-mode through Session::load_poly "
        "with RunOptions::mode");
  if (cycles < 1)
    return Status::invalid_argument("run_cycles: cycles must be >= 1");
  if (stimulus.size() % cycles != 0)
    return Status::invalid_argument(
        "run_cycles: " + std::to_string(stimulus.size()) +
        " stimulus vectors do not divide into whole " +
        std::to_string(cycles) + "-cycle streams");
  return run_batch(stimulus, cycles, true, options);
}

Result<std::vector<BitVector>> BatchExecutor::run_batch(
    std::span<const InputVector> stimulus, std::size_t cycles, bool clocked,
    const RunOptions& options) {
  const std::size_t nin = in_nets_.size();
  for (const InputVector& v : stimulus)
    if (v.size() != nin)
      return Status::invalid_argument(
          std::string(clocked ? "run_cycles" : "run_vectors") +
          ": every vector must have " + std::to_string(nin) +
          " input values");

  std::vector<BitVector> results(stimulus.size());
  if (stimulus.empty()) return results;

  // Engine selection: kAuto prefers a *ready* JIT kernel (never waits on a
  // build), then the bit-parallel compiled engine (the sequential program
  // for a clocked binding), then the event-driven engine when CompiledEval
  // rejects the design (async handshakes, derived clocks, dynamic
  // tri-state); kCompiled/kJit surface their engine's rejection instead.
  // Every engine sits behind sim::Evaluator, so everything below is
  // engine-agnostic.
  sim::Evaluator* engine = nullptr;
  bool on_jit = false;
  if (options.engine == Engine::kJit) {
    if (Status s = ensure_jit(); !s.ok()) return s;
    engine = jit_state_->engine.get();
    on_jit = true;
  } else if (options.engine != Engine::kEventDriven) {
    if (options.engine == Engine::kAuto && (engine = jit_ready()) != nullptr) {
      on_jit = true;
    } else {
      const Status s = ensure_compiled();
      if (s.ok()) {
        engine = compiled_.get();
      } else if (options.engine == Engine::kCompiled) {
        return s;
      }
    }
  }
  if (!engine) {
    auto ev = ensure_event(options.max_events_per_vector);
    if (!ev.ok()) return ev.status();
    engine = *ev;
  }
  ++stats_.runs;
  // The JIT serves the same compiled program natively, so its runs count
  // in compiled_runs; jit_passes says how many kernel passes the generated
  // code took.  A kAuto run that wanted the JIT (warm requested) but ran
  // elsewhere is a fallback.
  const bool on_compiled = on_jit || engine == compiled_.get();
  ++(on_compiled ? stats_.compiled_runs : stats_.event_runs);
  const bool jit_fell_back = !on_jit && options.engine == Engine::kAuto &&
                             jit_state_ && jit_state_->requested;
  if (jit_fell_back) ++stats_.jit_fallbacks;

  // The pass counters live on each engine's shared state, so sharded
  // clones aggregate into the same totals; this run's slice is the
  // difference of two snapshots.
  const sim::JitEval* jit = jit_state_ ? jit_state_->engine.get() : nullptr;
  const sim::RunCounters before = kernel_totals(compiled_.get(), jit);

  // Pack lanes into wide-batch granules (the engine's preferred words —
  // 512 lanes for the default compiled engine, one 64-lane word for the
  // event engine) and shard whole granules across the pool.  A clocked
  // lane is a whole stream, so register state never leaves the engine's
  // scratch planes.  Compiled clones share the immutable program and
  // carry only scratch planes; event clones copy the settled base
  // simulator once per shard.  max_threads may exceed the pool size:
  // extra shards simply queue, which also lets single-core hosts exercise
  // the cloning path.
  const std::size_t streams = stimulus.size() / cycles;
  util::ThreadPool& pool = util::global_pool();
  std::size_t workers =
      options.max_threads == 0 ? pool.worker_count() : options.max_threads;
  std::size_t gwords = std::max<std::size_t>(1, engine->preferred_words());
  // A full-width granule on a small or mid-size run can leave most of the
  // pool idle (one 512-lane granule per shard).  Shrink the granule — never
  // below one word — until there is at least one granule per worker; wide
  // amortization matters less than an idle core.
  const std::size_t total_words = (streams + kLanes - 1) / kLanes;
  if (workers > 1 && gwords > 1)
    gwords = std::max<std::size_t>(
        1, std::min(gwords, (total_words + workers - 1) / workers));
  const std::size_t glanes = gwords * kLanes;
  const std::size_t ngranules = (streams + glanes - 1) / glanes;
  workers = std::min(workers, ngranules);
  const auto eval_range = [&](sim::Evaluator& eval, std::size_t begin,
                              std::size_t end) {
    return eval_granules(eval, stimulus, cycles, clocked, output_names_,
                         results, begin, end, gwords);
  };

  Status status;
  if (workers <= 1) {
    // Serial reference path: stream every granule through the engine itself.
    status = eval_range(*engine, 0, ngranules);
  } else {
    // Completion is tracked with a per-call latch rather than the pool-wide
    // wait_idle(): concurrent runs (or other pool users) must not be able
    // to stall — or deadlock — this one.
    std::mutex done_mutex;
    std::condition_variable done_cv;
    const std::size_t chunk = (ngranules + workers - 1) / workers;
    std::size_t remaining = (ngranules + chunk - 1) / chunk;
    for (std::size_t begin = 0; begin < ngranules; begin += chunk) {
      const std::size_t end = std::min(begin + chunk, ngranules);
      pool.submit([&, begin, end] {
        const std::unique_ptr<sim::Evaluator> local = engine->clone();
        Status shard_status = eval_range(*local, begin, end);
        {
          const std::lock_guard<std::mutex> lock(done_mutex);
          if (!shard_status.ok() && status.ok())
            status = std::move(shard_status);
          --remaining;
        }
        done_cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }

  // The lifetime totals follow every run, failed ones included (their
  // passes did execute); last_run_ is only replaced when a run succeeds,
  // per its documented contract.
  const sim::RunCounters passes = kernel_totals(compiled_.get(), jit) - before;
  stats_ += passes;
  if (!status.ok()) return status;
  stats_.vectors_run += stimulus.size();
  last_run_ = {};
  last_run_ += passes;
  last_run_.runs = 1;
  ++(on_compiled ? last_run_.compiled_runs : last_run_.event_runs);
  last_run_.vectors_run = stimulus.size();
  last_run_.jit_fallbacks = jit_fell_back ? 1 : 0;
  if (jit_state_) {
    last_run_.jit_compiles = std::exchange(jit_state_->pending_compiles, 0);
    last_run_.jit_cache_hits = std::exchange(jit_state_->pending_cache_hits, 0);
  }
  return results;
}

std::vector<std::uint8_t> pack_bit_planes(std::span<const BitVector> vectors,
                                          std::size_t width) {
  const std::size_t plane_bytes = (vectors.size() + 7) / 8;
  std::vector<std::uint8_t> bytes(width * plane_bytes, 0);
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << (v % 8));
    for (std::size_t i = 0; i < width; ++i)
      if (vectors[v][i]) bytes[i * plane_bytes + v / 8] |= bit;
  }
  return bytes;
}

std::uint32_t result_checksum(std::span<const BitVector> results) {
  // Self-delimiting serialization (count, then per-vector width + packed
  // bits) so [ [1,0] ] and [ [1],[0] ] can never collide structurally; the
  // byte stream goes through the same CRC-32 the bitstream codecs use.
  std::vector<std::uint8_t> bytes;
  bytes.reserve(8 + results.size() * 4);
  const auto put_u32 = [&bytes](std::uint32_t value) {
    for (int i = 0; i < 4; ++i)
      bytes.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  };
  put_u32(static_cast<std::uint32_t>(results.size()));
  for (const BitVector& v : results) {
    put_u32(static_cast<std::uint32_t>(v.size()));
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i]) acc |= static_cast<std::uint8_t>(1u << (i % 8));
      if (i % 8 == 7) {
        bytes.push_back(acc);
        acc = 0;
      }
    }
    if (v.size() % 8 != 0) bytes.push_back(acc);
  }
  return core::crc32(bytes);
}

Result<std::vector<BitVector>> unpack_bit_planes(
    std::span<const std::uint8_t> bytes, std::size_t count,
    std::size_t width) {
  const std::size_t plane_bytes = (count + 7) / 8;
  if (bytes.size() != width * plane_bytes)
    return Status::invalid_argument(
        "unpack_bit_planes: " + std::to_string(count) + " vectors x " +
        std::to_string(width) + " bits need exactly " +
        std::to_string(width * plane_bytes) + " plane bytes, got " +
        std::to_string(bytes.size()));
  // Reject non-canonical pad bits: two byte streams must never decode to
  // the same batch (wire frames are CRC-covered but the CRC cannot see a
  // semantically-ignored bit).
  if (count % 8 != 0)
    for (std::size_t i = 0; i < width; ++i) {
      const std::uint8_t last = bytes[i * plane_bytes + plane_bytes - 1];
      if ((last & static_cast<std::uint8_t>(~((1u << (count % 8)) - 1))) != 0)
        return Status::invalid_argument(
            "unpack_bit_planes: non-zero pad bits in plane " +
            std::to_string(i));
    }
  std::vector<BitVector> vectors(count, BitVector(width, false));
  for (std::size_t v = 0; v < count; ++v) {
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << (v % 8));
    for (std::size_t i = 0; i < width; ++i)
      if ((bytes[i * plane_bytes + v / 8] & bit) != 0) vectors[v][i] = true;
  }
  return vectors;
}

}  // namespace pp::platform
