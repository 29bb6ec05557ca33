// Seeded stimulus and reference answers that do not depend on the program.
//
// Stimulus comes from splitmix64 seeded by --seed, never from pp::util.
// Reference answers are plain integer arithmetic on the stimulus bits:
// adders against a + b + cin, parity against popcount, and the clocked
// accumulator and counter against a running sum or count from reset.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "map/netlist.h"

namespace perfbench {

using Bits = std::vector<bool>;

struct Gen {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

enum class Kind { kAdder, kParity, kAccumulator, kCounter };

/// One design of the benchmark: which generator builds it, at what width.
struct Spec {
  Kind kind;
  int width;

  [[nodiscard]] std::string name() const {
    switch (kind) {
      case Kind::kAdder: return "adder" + std::to_string(width);
      case Kind::kParity: return "parity" + std::to_string(width);
      case Kind::kAccumulator: return "acc" + std::to_string(width);
      case Kind::kCounter: return "counter" + std::to_string(width);
    }
    return "?";
  }
  [[nodiscard]] bool clocked() const {
    return kind == Kind::kAccumulator || kind == Kind::kCounter;
  }
  [[nodiscard]] std::size_t inputs() const {
    switch (kind) {
      case Kind::kAdder: return 2 * width + 1;
      case Kind::kParity: return width;
      case Kind::kAccumulator: return width;
      case Kind::kCounter: return 1;
    }
    return 0;
  }
  [[nodiscard]] pp::map::Netlist netlist() const {
    switch (kind) {
      case Kind::kAdder: return pp::map::make_ripple_adder(width);
      case Kind::kParity: return pp::map::make_parity(width);
      case Kind::kAccumulator: return pp::map::make_accumulator(width);
      case Kind::kCounter: return pp::map::make_counter(width);
    }
    return {};
  }
};

inline std::uint64_t field(const Bits& v, std::size_t from, int n) {
  std::uint64_t x = 0;
  for (int i = 0; i < n; ++i)
    if (v[from + i]) x |= std::uint64_t{1} << i;
  return x;
}

inline void put(Bits& out, std::uint64_t x, int n) {
  for (int i = 0; i < n; ++i) out.push_back(((x >> i) & 1) != 0);
}

/// `count` random input vectors for `spec`.
inline std::vector<Bits> stimulus(const Spec& spec, std::size_t count,
                                  Gen& gen) {
  std::vector<Bits> vectors(count, Bits(spec.inputs()));
  for (Bits& v : vectors) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i % 64 == 0) word = gen.next();
      v[i] = ((word >> (i % 64)) & 1) != 0;
    }
  }
  return vectors;
}

/// Expected outputs of a combinational design for one input vector.
inline Bits combinational_answer(const Spec& spec, const Bits& in) {
  Bits out;
  const int n = spec.width;
  if (spec.kind == Kind::kAdder) {
    const std::uint64_t sum =
        field(in, 0, n) + field(in, n, n) + (in[2 * n] ? 1 : 0);
    put(out, sum, n + 1);  // s0..s(n-1), cout
  } else {
    out.push_back(std::popcount(field(in, 0, n)) % 2 == 1);
  }
  return out;
}

/// Expected outputs of a clocked design for stream-major stimulus of
/// `cycles`-vector streams, each from reset (registers 0).  Outputs are
/// sampled before the clock edge of their cycle.
inline std::vector<Bits> clocked_answer(const Spec& spec,
                                        const std::vector<Bits>& stim,
                                        std::size_t cycles) {
  const int n = spec.width;
  const std::uint64_t mask = (std::uint64_t{1} << n) - 1;
  std::vector<Bits> out;
  out.reserve(stim.size());
  std::uint64_t state = 0;
  for (std::size_t i = 0; i < stim.size(); ++i) {
    if (i % cycles == 0) state = 0;
    Bits o;
    if (spec.kind == Kind::kAccumulator) {
      const std::uint64_t b = field(stim[i], 0, n);
      put(o, (state + b) & mask, n);  // combinational sum
      put(o, state, n);               // register outputs
      state = (state + b) & mask;
    } else {
      put(o, state, n);
      if (stim[i][0]) state = (state + 1) & mask;
    }
    out.push_back(std::move(o));
  }
  return out;
}

inline std::vector<Bits> answers(const Spec& spec,
                                 const std::vector<Bits>& stim,
                                 std::size_t cycles) {
  if (spec.clocked()) return clocked_answer(spec, stim, cycles);
  std::vector<Bits> out;
  out.reserve(stim.size());
  for (const Bits& v : stim) out.push_back(combinational_answer(spec, v));
  return out;
}

}  // namespace perfbench
