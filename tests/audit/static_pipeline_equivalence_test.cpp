// Static-vs-dynamic pipeline equivalence anchors.
//
// Golden same-seed trace hashes for every scheme (all eleven, ablations
// included) across the full chaos scenario catalog, captured from the
// pre-refactor *dynamic* sender pipeline (virtual handle_ack/on_timeout
// hooks, std::function completion callbacks) immediately before the
// compile-time transport specialization landed. The static CRTP pipeline
// must reproduce every one of these 99 hashes bit-identically: the
// refactor devirtualizes dispatch and removes per-flow allocation, but a
// single reordered schedule() call, extra RNG draw, or changed packet uid
// shows up here as a hash mismatch naming the exact (scenario, scheme)
// cell.
//
// Re-capture (only after an *intentional* semantic change, and say so in
// the PR):
//   HALFBACK_CAPTURE_GOLDEN=1 ./audit_test --gtest_filter='StaticPipelineEquivalence.*' 2>&1 | grep '0x'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "exp/chaos.h"
#include "exp/emulab.h"
#include "schemes/scheme.h"

namespace halfback::exp {
namespace {

// One golden cell; order is scenario-major, matching chaos_sweep().
struct GoldenCell {
  const char* scenario;
  schemes::Scheme scheme;
  std::uint64_t trace_hash;
};

using schemes::Scheme;

// Captured from the pre-refactor dynamic pipeline (seed 1, 8 flows of
// 100 kB per cell at 800 ms spacing — the chaos_sweep defaults). Seed 1
// deliberately: rc3 × adversarial wedges into a retransmission event
// storm at some other seeds (e.g. 42) — a pre-existing pathology in a
// cell no other suite runs, tracked in the ROADMAP, and not what this
// suite is for.
constexpr GoldenCell kGolden[] = {
    {"clean", Scheme::tcp, 0x83a074e525ffe198ULL},
    {"clean", Scheme::tcp10, 0x23cdc08faec5234cULL},
    {"clean", Scheme::tcp_cache, 0x83a074e525ffe198ULL},
    {"clean", Scheme::reactive, 0xd4febaba10e526aaULL},
    {"clean", Scheme::proactive, 0x7a8fb1e678352c02ULL},
    {"clean", Scheme::jumpstart, 0xfec8862ae4e7a4b0ULL},
    {"clean", Scheme::pcp, 0xb5bb523684203013ULL},
    {"clean", Scheme::halfback, 0xfcb991dbfca5d099ULL},
    {"clean", Scheme::halfback_forward, 0xf74738b839312c82ULL},
    {"clean", Scheme::halfback_burst, 0x60b71f3bd7f6e4b3ULL},
    {"clean", Scheme::rc3, 0xad93ccc122d13e6aULL},
    {"bursty-loss", Scheme::tcp, 0xb7be5f174019d7baULL},
    {"bursty-loss", Scheme::tcp10, 0x7cb08ca42a4e201aULL},
    {"bursty-loss", Scheme::tcp_cache, 0xb7be5f174019d7baULL},
    {"bursty-loss", Scheme::reactive, 0x90f5887767d2d528ULL},
    {"bursty-loss", Scheme::proactive, 0xacddca289925c663ULL},
    {"bursty-loss", Scheme::jumpstart, 0x97c690dd3d7c4663ULL},
    {"bursty-loss", Scheme::pcp, 0x695367dc76c0b221ULL},
    {"bursty-loss", Scheme::halfback, 0x78d142ed720e44ebULL},
    {"bursty-loss", Scheme::halfback_forward, 0xe9ce71ea1ac508e1ULL},
    {"bursty-loss", Scheme::halfback_burst, 0xdfed0651bb9bec19ULL},
    {"bursty-loss", Scheme::rc3, 0xcce7f4b4a33e6fcfULL},
    {"reorder", Scheme::tcp, 0x1d024e0c358149a2ULL},
    {"reorder", Scheme::tcp10, 0x292953f6ccaaada6ULL},
    {"reorder", Scheme::tcp_cache, 0x1d024e0c358149a2ULL},
    {"reorder", Scheme::reactive, 0x59dada7ce0f2524bULL},
    {"reorder", Scheme::proactive, 0x96c494a74dd9e673ULL},
    {"reorder", Scheme::jumpstart, 0x1e012cc8d33cbf11ULL},
    {"reorder", Scheme::pcp, 0x8e1db1053932dd3ULL},
    {"reorder", Scheme::halfback, 0xea322221333dc5e2ULL},
    {"reorder", Scheme::halfback_forward, 0x24684e30698ed39ULL},
    {"reorder", Scheme::halfback_burst, 0xf510e2499763de35ULL},
    {"reorder", Scheme::rc3, 0x100db4ea58a7dcaULL},
    {"duplicate", Scheme::tcp, 0x28d42e914bdfaae4ULL},
    {"duplicate", Scheme::tcp10, 0x5ee8153507a0b3cULL},
    {"duplicate", Scheme::tcp_cache, 0x28d42e914bdfaae4ULL},
    {"duplicate", Scheme::reactive, 0xb415f03817e32c09ULL},
    {"duplicate", Scheme::proactive, 0x70ef8fd3faff9414ULL},
    {"duplicate", Scheme::jumpstart, 0x7e0a74a981d1cef8ULL},
    {"duplicate", Scheme::pcp, 0x949353c4a885fa82ULL},
    {"duplicate", Scheme::halfback, 0x2087e056ec93bc7bULL},
    {"duplicate", Scheme::halfback_forward, 0x87af585de92b23c1ULL},
    {"duplicate", Scheme::halfback_burst, 0xed0d69d848b227b5ULL},
    {"duplicate", Scheme::rc3, 0xcb789825f04cdc8eULL},
    {"corrupt", Scheme::tcp, 0x6cb44c6f4462512eULL},
    {"corrupt", Scheme::tcp10, 0x34601c984cfde9caULL},
    {"corrupt", Scheme::tcp_cache, 0x6cb44c6f4462512eULL},
    {"corrupt", Scheme::reactive, 0xcc16d4772e0b5b1dULL},
    {"corrupt", Scheme::proactive, 0xd916154b20cc3de1ULL},
    {"corrupt", Scheme::jumpstart, 0x1f2251f7b1a0d09ULL},
    {"corrupt", Scheme::pcp, 0xbfae56f328fd4519ULL},
    {"corrupt", Scheme::halfback, 0xed6d0492fd65629fULL},
    {"corrupt", Scheme::halfback_forward, 0xa66df187c8f38ea8ULL},
    {"corrupt", Scheme::halfback_burst, 0xda396e5ea1a3e1ebULL},
    {"corrupt", Scheme::rc3, 0x6f839c842fd4cb2bULL},
    {"blackout", Scheme::tcp, 0x9ee768c3b8b37da1ULL},
    {"blackout", Scheme::tcp10, 0xc83cd123e1dbd69cULL},
    {"blackout", Scheme::tcp_cache, 0x9ee768c3b8b37da1ULL},
    {"blackout", Scheme::reactive, 0x8bd31d6a17a0e86ULL},
    {"blackout", Scheme::proactive, 0x1222cb4d2bfbe787ULL},
    {"blackout", Scheme::jumpstart, 0x18ff8201a138aa4ULL},
    {"blackout", Scheme::pcp, 0x816d403e9e332903ULL},
    {"blackout", Scheme::halfback, 0x3d1978dbb4ef96c6ULL},
    {"blackout", Scheme::halfback_forward, 0x8edba15d68475be7ULL},
    {"blackout", Scheme::halfback_burst, 0x1042288d9ecc11dfULL},
    {"blackout", Scheme::rc3, 0xb73a0416496be7d3ULL},
    {"flap", Scheme::tcp, 0xcdb49027dbd6b6f7ULL},
    {"flap", Scheme::tcp10, 0xa89d9c55f695260cULL},
    {"flap", Scheme::tcp_cache, 0xcdb49027dbd6b6f7ULL},
    {"flap", Scheme::reactive, 0xc9b5462e4ba672cdULL},
    {"flap", Scheme::proactive, 0xb7d7eca0615ee55eULL},
    {"flap", Scheme::jumpstart, 0x71fb0400bbf537eULL},
    {"flap", Scheme::pcp, 0x8187d2f61115664fULL},
    {"flap", Scheme::halfback, 0x4b2a19dd99892741ULL},
    {"flap", Scheme::halfback_forward, 0x191875c80857257dULL},
    {"flap", Scheme::halfback_burst, 0x8bb8a527556cc2daULL},
    {"flap", Scheme::rc3, 0x3e79a06dc533d37cULL},
    {"delay-spike", Scheme::tcp, 0xf1484aa011a949bcULL},
    {"delay-spike", Scheme::tcp10, 0x6fed034ac49e8c08ULL},
    {"delay-spike", Scheme::tcp_cache, 0xf1484aa011a949bcULL},
    {"delay-spike", Scheme::reactive, 0x9dc78b3ff83a7040ULL},
    {"delay-spike", Scheme::proactive, 0xb2bba8b455bb7447ULL},
    {"delay-spike", Scheme::jumpstart, 0x189ba499a89f2911ULL},
    {"delay-spike", Scheme::pcp, 0x5f36994895657b29ULL},
    {"delay-spike", Scheme::halfback, 0x84c6a175ee5cbe31ULL},
    {"delay-spike", Scheme::halfback_forward, 0x575bbe99bd278353ULL},
    {"delay-spike", Scheme::halfback_burst, 0x9c6e748957615412ULL},
    {"delay-spike", Scheme::rc3, 0xf1eecb52399289c2ULL},
    {"adversarial", Scheme::tcp, 0x45d3e23fbfc47844ULL},
    {"adversarial", Scheme::tcp10, 0xf936093a7f809daULL},
    {"adversarial", Scheme::tcp_cache, 0x45d3e23fbfc47844ULL},
    {"adversarial", Scheme::reactive, 0xee8ace3576f27eddULL},
    {"adversarial", Scheme::proactive, 0xf9914c36e7061533ULL},
    {"adversarial", Scheme::jumpstart, 0x81817a70953559c4ULL},
    {"adversarial", Scheme::pcp, 0x6344dcf637ad872eULL},
    {"adversarial", Scheme::halfback, 0x916b9f5a60d5addbULL},
    {"adversarial", Scheme::halfback_forward, 0x84883a66b035dd40ULL},
    {"adversarial", Scheme::halfback_burst, 0x3cbe43ff4265e780ULL},
    {"adversarial", Scheme::rc3, 0x7426c67a41a8509aULL},
};

ChaosSweepConfig golden_config() {
  ChaosSweepConfig config;
  config.runner.seed = 1;
  return config;
}

std::vector<schemes::Scheme> every_scheme() {
  std::vector<schemes::Scheme> out;
  for (const schemes::SchemeInfo& info : schemes::all_schemes()) {
    out.push_back(info.scheme);
  }
  return out;
}

TEST(StaticPipelineEquivalence, EverySchemeEveryScenarioMatchesDynamicGolden) {
  const std::vector<schemes::Scheme> all = every_scheme();
  const std::vector<ChaosCell> cells = chaos_sweep(golden_config(), all).cells;
  ASSERT_EQ(cells.size(), chaos_catalog().size() * all.size());

  if (std::getenv("HALFBACK_CAPTURE_GOLDEN") != nullptr) {
    for (const ChaosCell& cell : cells) {
      // The enum identifier, not the display name: s/-/_/ for the ablations.
      std::string id = schemes::name(cell.scheme);
      for (char& c : id) {
        if (c == '-') c = '_';
      }
      std::printf("    {\"%s\", Scheme::%s, 0x%llxULL},\n",
                  cell.scenario.c_str(), id.c_str(),
                  static_cast<unsigned long long>(cell.trace_hash));
    }
    GTEST_SKIP() << "golden capture mode: table printed, assertions skipped";
  }

  ASSERT_EQ(cells.size(), std::size(kGolden));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ChaosCell& cell = cells[i];
    const GoldenCell& golden = kGolden[i];
    SCOPED_TRACE(cell.scenario + " / " + schemes::name(cell.scheme));
    EXPECT_EQ(cell.scenario, golden.scenario);
    EXPECT_EQ(cell.scheme, golden.scheme);
    EXPECT_EQ(cell.unfinished, 0u);
    EXPECT_EQ(cell.audit_violations, 0u);
    EXPECT_EQ(cell.trace_hash, golden.trace_hash)
        << "static pipeline diverged from the pre-refactor dynamic golden";
  }
}

}  // namespace
}  // namespace halfback::exp
