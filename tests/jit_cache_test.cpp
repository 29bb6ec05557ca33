// The JIT kernel disk cache must only ever cost a recompile, never serve
// a wrong kernel: hit-on-rebuild, truncated and bit-flipped .so entries,
// a hash-colliding stale entry whose sidecar lies about the digest, and
// the concurrent shared-cache race (many builders, one program) are each
// driven to the fail-closed / benign-race outcome the sidecar protocol
// promises (sim/jit.h).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/circuit.h"
#include "sim/evaluator.h"
#include "sim/jit.h"
#include "sim/logic.h"
#include "util/status.h"

namespace pp::sim {
namespace {

namespace fs = std::filesystem;

std::string fresh_cache_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("pp-jit-cache-test-" + std::to_string(::getpid())) /
                       name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

JitOptions test_options(const std::string& cache_dir) {
  JitOptions o;
  o.cache_dir = cache_dir;
  o.extra_cflags = "-O0";
  return o;
}

/// Two-gate circuit whose one variable gate kind the tests flip to get a
/// *structurally identical* program (same slots, same W) with different
/// semantics — the shape a stale hash-colliding cache entry would have.
Result<CompiledEval> compile_pair_gate(GateKind kind) {
  Circuit c;
  const NetId a = c.add_net("a"), b = c.add_net("b");
  c.mark_input(a);
  c.mark_input(b);
  const NetId y = c.add_net("y");
  c.add_gate(kind, {a, b}, y);
  return CompiledEval::compile(c, {a, b}, {y});
}

bool host_cc_available() {
  static const bool available = [] {
    auto base = compile_pair_gate(GateKind::kAnd);
    EXPECT_TRUE(base.ok());
    return JitEval::build(*base, test_options(fresh_cache_dir("probe"))).ok();
  }();
  return available;
}

#define SKIP_WITHOUT_HOST_CC()                                       \
  do {                                                               \
    if (!host_cc_available())                                        \
      GTEST_SKIP() << "no host C compiler; cache paths unreachable"; \
  } while (0)

/// AND truth over the JIT: y = a & b on two packed lanes.
void expect_and_semantics(JitEval& jit) {
  std::vector<PackedBits> in(2), out(1);
  set_lane(in[0], 0, Logic::k1);
  set_lane(in[1], 0, Logic::k1);
  set_lane(in[0], 1, Logic::k1);
  set_lane(in[1], 1, Logic::k0);
  ASSERT_TRUE(jit.eval_packed(in, out, 2).ok());
  EXPECT_EQ(get_lane(out[0], 0), Logic::k1);
  EXPECT_EQ(get_lane(out[0], 1), Logic::k0);
}

TEST(JitCache, RebuildHitsCache) {
  SKIP_WITHOUT_HOST_CC();
  const std::string cache = fresh_cache_dir("hit");
  auto base = compile_pair_gate(GateKind::kAnd);
  ASSERT_TRUE(base.ok());

  auto first = JitEval::build(*base, test_options(cache));
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_TRUE(first->build_info().compiled);
  EXPECT_FALSE(first->build_info().cache_hit);
  EXPECT_FALSE(first->build_info().evicted);
  EXPECT_FALSE(first->build_info().key.empty());
  EXPECT_TRUE(fs::exists(first->build_info().so_path));
  EXPECT_TRUE(fs::exists(first->build_info().so_path + ".meta"));

  auto second = JitEval::build(*base, test_options(cache));
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_TRUE(second->build_info().cache_hit);
  EXPECT_FALSE(second->build_info().compiled);
  EXPECT_EQ(second->build_info().key, first->build_info().key);
  expect_and_semantics(*second);
}

TEST(JitCache, KeepSourceLeavesTheGeneratedC) {
  SKIP_WITHOUT_HOST_CC();
  const std::string cache = fresh_cache_dir("keepsrc");
  auto base = compile_pair_gate(GateKind::kAnd);
  ASSERT_TRUE(base.ok());
  JitOptions o = test_options(cache);
  o.keep_source = true;
  auto jit = JitEval::build(*base, o);
  ASSERT_TRUE(jit.ok()) << jit.status().to_string();
  EXPECT_TRUE(fs::exists(jit->build_info().so_path + ".c"));
}

TEST(JitCache, TruncatedSoFailsClosedAndRebuilds) {
  SKIP_WITHOUT_HOST_CC();
  const std::string cache = fresh_cache_dir("truncated");
  auto base = compile_pair_gate(GateKind::kAnd);
  ASSERT_TRUE(base.ok());
  std::string so;
  {
    // Scoped: mutating a .so a live JitEval still has dlopen-mapped would
    // fault the *old* kernel, not exercise the cache probe.
    auto first = JitEval::build(*base, test_options(cache));
    ASSERT_TRUE(first.ok());
    so = first->build_info().so_path;
  }

  // Cut the cached object in half; the sidecar still promises full size.
  const auto full = fs::file_size(so);
  fs::resize_file(so, full / 2);

  auto again = JitEval::build(*base, test_options(cache));
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_TRUE(again->build_info().evicted);
  EXPECT_TRUE(again->build_info().compiled);
  EXPECT_FALSE(again->build_info().cache_hit);
  EXPECT_GT(fs::file_size(so), full / 2) << "rebuild must reinstall the entry";
  expect_and_semantics(*again);
}

TEST(JitCache, BitFlippedSoFailsClosedAndRebuilds) {
  SKIP_WITHOUT_HOST_CC();
  const std::string cache = fresh_cache_dir("bitflip");
  auto base = compile_pair_gate(GateKind::kAnd);
  ASSERT_TRUE(base.ok());
  std::string so;
  {
    auto first = JitEval::build(*base, test_options(cache));
    ASSERT_TRUE(first.ok());
    so = first->build_info().so_path;
  }

  // Flip one byte in the middle: size still matches, CRC must not.
  {
    std::fstream f(so, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(fs::file_size(so) / 2));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(fs::file_size(so) / 2));
    f.put(static_cast<char>(byte ^ 0x40));
  }

  auto again = JitEval::build(*base, test_options(cache));
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_TRUE(again->build_info().evicted);
  EXPECT_TRUE(again->build_info().compiled);
  expect_and_semantics(*again);
}

TEST(JitCache, StaleEntryWithMismatchedEmbeddedDigestFailsClosed) {
  SKIP_WITHOUT_HOST_CC();
  // Simulate a cache-key collision: the entry under AND's key actually
  // holds OR's kernel, with a sidecar whose size/CRC honestly describe the
  // OR object but whose digest line claims it is AND's.  The sidecar
  // checks all pass; the kernel's *embedded* digest is the last line of
  // defense and must reject it.
  const std::string cache_and = fresh_cache_dir("stale-and");
  const std::string cache_or = fresh_cache_dir("stale-or");
  auto base_and = compile_pair_gate(GateKind::kAnd);
  auto base_or = compile_pair_gate(GateKind::kOr);
  ASSERT_TRUE(base_and.ok());
  ASSERT_TRUE(base_or.ok());
  std::string so_and, so_or;
  {
    auto jit_and = JitEval::build(*base_and, test_options(cache_and));
    auto jit_or = JitEval::build(*base_or, test_options(cache_or));
    ASSERT_TRUE(jit_and.ok());
    ASSERT_TRUE(jit_or.ok());
    so_and = jit_and->build_info().so_path;
    so_or = jit_or->build_info().so_path;
  }

  // Graft: OR's object under AND's cache key, sidecar = OR's (honest
  // size/CRC/compiler) with AND's digest line spliced in.
  auto read_text = [](const std::string& path) {
    std::ifstream f(path);
    return std::string(std::istreambuf_iterator<char>(f), {});
  };
  auto digest_line = [](const std::string& meta) {
    const auto from = meta.find("digest ");
    const auto to = meta.find('\n', from);
    return meta.substr(from, to - from);
  };
  const std::string meta_and = read_text(so_and + ".meta");
  std::string meta_graft = read_text(so_or + ".meta");
  const std::string or_digest = digest_line(meta_graft);
  const std::string and_digest = digest_line(meta_and);
  ASSERT_NE(or_digest, and_digest);
  meta_graft.replace(meta_graft.find(or_digest), or_digest.size(),
                     and_digest);
  fs::copy_file(so_or, so_and, fs::copy_options::overwrite_existing);
  {
    std::ofstream f(so_and + ".meta", std::ios::trunc);
    f << meta_graft;
  }

  auto again = JitEval::build(*base_and, test_options(cache_and));
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_TRUE(again->build_info().evicted)
      << "the grafted kernel must have been rejected after dlopen";
  EXPECT_TRUE(again->build_info().compiled);
  expect_and_semantics(*again);
}

TEST(JitCache, ConcurrentBuildersShareOneCacheBenignly) {
  SKIP_WITHOUT_HOST_CC();
  const std::string cache = fresh_cache_dir("race");
  auto base = compile_pair_gate(GateKind::kAnd);
  ASSERT_TRUE(base.ok());

  // Many devices racing to JIT the same resident design against one
  // shared cache directory: every build must succeed and agree.
  constexpr int kBuilders = 8;
  std::vector<Status> status(kBuilders);
  std::vector<std::unique_ptr<JitEval>> built(kBuilders);
  {
    std::vector<std::thread> threads;
    threads.reserve(kBuilders);
    for (int i = 0; i < kBuilders; ++i)
      threads.emplace_back([&, i] {
        auto jit = JitEval::build(*base, test_options(cache));
        status[i] = jit.status();
        if (jit.ok()) built[i] = std::make_unique<JitEval>(std::move(*jit));
      });
    for (auto& t : threads) t.join();
  }
  for (int i = 0; i < kBuilders; ++i) {
    ASSERT_TRUE(status[i].ok()) << "builder " << i << ": "
                                << status[i].to_string();
    ASSERT_NE(built[i], nullptr);
    expect_and_semantics(*built[i]);
  }

  // The race settled into exactly one committed entry, and a late
  // arrival hits it.
  auto late = JitEval::build(*base, test_options(cache));
  ASSERT_TRUE(late.ok());
  EXPECT_TRUE(late->build_info().cache_hit);
}

// A compiler spawn must not re-emit this process's pending stdio output:
// a fork() child that reopens stdout flushes the inherited buffer into the
// parent's stdout a second time.
TEST(JitCache, CompilerSpawnDoesNotDuplicatePendingStdout) {
  const std::string dir = fresh_cache_dir("spawn-stdout");
  const std::string capture = dir + "/stdout.txt";
  std::fflush(stdout);
  const int saved = ::dup(1);
  ASSERT_GE(saved, 0);
  const int fd = ::open(capture.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_GE(::dup2(fd, 1), 0);
  ::close(fd);
  std::setvbuf(stdout, nullptr, _IOFBF, 1 << 16);
  std::printf("pending-marker\n");  // deliberately not flushed
  auto base = compile_pair_gate(GateKind::kXor);
  const bool built =
      base.ok() && JitEval::build(*base, test_options(dir)).ok();
  std::fflush(stdout);
  ::dup2(saved, 1);
  ::close(saved);
  std::setvbuf(stdout, nullptr, ::isatty(1) ? _IOLBF : _IOFBF, BUFSIZ);

  std::ifstream in(capture);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::size_t count = 0;
  for (std::size_t at = text.find("pending-marker"); at != std::string::npos;
       at = text.find("pending-marker", at + 1))
    ++count;
  EXPECT_EQ(count, 1u) << "cold build (compiler ran: " << built << ")";
}

}  // namespace
}  // namespace pp::sim
