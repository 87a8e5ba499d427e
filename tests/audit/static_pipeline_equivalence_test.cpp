// Scheme x scenario behaviour anchors.
//
// Golden same-seed trace hashes for every scheme (all eleven, ablations
// included) across the full chaos scenario catalog. The suite was built to
// hold the compile-time (CRTP) sender pipeline to the dynamic-dispatch one
// it replaced, and now holds every later change to the same behaviour: the
// trace hash pins each link offer and delivery with its sim time, every
// fault hit, segment sent and ACK applied, so one changed packet uid, one
// extra RNG draw that moves a loss, or one delivery a nanosecond late
// shows up here as a mismatch naming the exact (scenario, scheme) cell.
// The event schedule is not pinned: a change that fires other events for
// the same packets keeps all 99.
//
// Re-capture (only after an *intentional* semantic change; list each moved
// cell in CHANGES.md):
//   HALFBACK_CAPTURE_GOLDEN=1 ./audit_test --gtest_filter='StaticPipelineEquivalence.*' 2>&1 | grep '0x'
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "exp/chaos.h"
#include "exp/emulab.h"
#include "schemes/scheme.h"
#include "support/golden.h"

namespace halfback::exp {
namespace {

// One golden cell; order is scenario-major, matching chaos_sweep().
struct GoldenCell {
  const char* scenario;
  schemes::Scheme scheme;
  std::uint64_t trace_hash;
};

using schemes::Scheme;

// Seed 1, 8 flows of 100 kB per cell at 800 ms spacing (the chaos_sweep
// defaults). Re-pinned all at once when the trace hash stopped mixing each
// dispatch's (time, seq); in the clean, reorder, duplicate, flap and
// delay-spike rows tcp, tcp_cache and reactive now share a hash: there
// reactive sends exactly tcp's packets, and only its probe timer's events
// told them apart. Seed 1 deliberately: rc3 × adversarial wedges into a retransmission event
// storm at some other seeds (e.g. 42) — a pre-existing pathology in a
// cell no other suite runs, tracked in the ROADMAP, and not what this
// suite is for.
constexpr GoldenCell kGolden[] = {
    {"clean", Scheme::tcp, 0xd4ac767d517bdb9dULL},
    {"clean", Scheme::tcp10, 0xa6a0b7a8463331fcULL},
    {"clean", Scheme::tcp_cache, 0xd4ac767d517bdb9dULL},
    {"clean", Scheme::reactive, 0xd4ac767d517bdb9dULL},
    {"clean", Scheme::proactive, 0x9e998579bb3c02b2ULL},
    {"clean", Scheme::jumpstart, 0x1ec896a5d96262ebULL},
    {"clean", Scheme::pcp, 0x71c76e48e22ac406ULL},
    {"clean", Scheme::halfback, 0x538bf75de974832dULL},
    {"clean", Scheme::halfback_forward, 0x89adf47e571257bdULL},
    {"clean", Scheme::halfback_burst, 0x6243b4758d3c7118ULL},
    {"clean", Scheme::rc3, 0x591a30e2e2630099ULL},
    {"bursty-loss", Scheme::tcp, 0xf81954490ba33d40ULL},
    {"bursty-loss", Scheme::tcp10, 0x316159335ef12c7ULL},
    {"bursty-loss", Scheme::tcp_cache, 0xf81954490ba33d40ULL},
    {"bursty-loss", Scheme::reactive, 0x7dbcc88552150a8ULL},
    {"bursty-loss", Scheme::proactive, 0xe6e9b458a20eeb6fULL},
    {"bursty-loss", Scheme::jumpstart, 0xb5754fed48a994d5ULL},
    {"bursty-loss", Scheme::pcp, 0x5ca1601f51a5e0efULL},
    {"bursty-loss", Scheme::halfback, 0x62db836dee56fb03ULL},
    {"bursty-loss", Scheme::halfback_forward, 0xb934eed9c942c2f1ULL},
    {"bursty-loss", Scheme::halfback_burst, 0x2d95f74c4f60ac9ULL},
    {"bursty-loss", Scheme::rc3, 0x144b41bda082bdc7ULL},
    {"reorder", Scheme::tcp, 0xed3a9c0b985c6845ULL},
    {"reorder", Scheme::tcp10, 0xe50142c314dbae93ULL},
    {"reorder", Scheme::tcp_cache, 0xed3a9c0b985c6845ULL},
    {"reorder", Scheme::reactive, 0xed3a9c0b985c6845ULL},
    {"reorder", Scheme::proactive, 0xd8d6ed67b3b015f7ULL},
    {"reorder", Scheme::jumpstart, 0x78afe3baf0f2ddacULL},
    {"reorder", Scheme::pcp, 0xce7ab904a5711312ULL},
    {"reorder", Scheme::halfback, 0x9c1b2c739ae2c42eULL},
    {"reorder", Scheme::halfback_forward, 0xea13ab7e2c3660cfULL},
    {"reorder", Scheme::halfback_burst, 0x234490def58474c3ULL},
    {"reorder", Scheme::rc3, 0x6481e5375e525e2aULL},
    {"duplicate", Scheme::tcp, 0xcdd407607f1165b5ULL},
    {"duplicate", Scheme::tcp10, 0x15b93427b7eec4c7ULL},
    {"duplicate", Scheme::tcp_cache, 0xcdd407607f1165b5ULL},
    {"duplicate", Scheme::reactive, 0xcdd407607f1165b5ULL},
    {"duplicate", Scheme::proactive, 0xf24dccdeb8c45664ULL},
    {"duplicate", Scheme::jumpstart, 0x7c8e857d33c3b46dULL},
    {"duplicate", Scheme::pcp, 0x82bfc14f8cf5ccd8ULL},
    {"duplicate", Scheme::halfback, 0x48677346f8650ec2ULL},
    {"duplicate", Scheme::halfback_forward, 0xb7bac6aed4d96161ULL},
    {"duplicate", Scheme::halfback_burst, 0x1c38cfcd745347baULL},
    {"duplicate", Scheme::rc3, 0xaa1e480f3774d198ULL},
    {"corrupt", Scheme::tcp, 0x494837111d075a4cULL},
    {"corrupt", Scheme::tcp10, 0xcc93fb2a2f3f7d15ULL},
    {"corrupt", Scheme::tcp_cache, 0x494837111d075a4cULL},
    {"corrupt", Scheme::reactive, 0x9e5d314a2b749f7aULL},
    {"corrupt", Scheme::proactive, 0x96518b8fccb08e45ULL},
    {"corrupt", Scheme::jumpstart, 0x6193b0f69a22b0a2ULL},
    {"corrupt", Scheme::pcp, 0x162c9a2aa087de0ULL},
    {"corrupt", Scheme::halfback, 0xbfce8cf950f01f66ULL},
    {"corrupt", Scheme::halfback_forward, 0x5effe12cad67380dULL},
    {"corrupt", Scheme::halfback_burst, 0x32526a6255bc7f8fULL},
    {"corrupt", Scheme::rc3, 0x78d9065cf45fecd1ULL},
    {"blackout", Scheme::tcp, 0xa25349dc4e7ab9d9ULL},
    {"blackout", Scheme::tcp10, 0xd8bae05a249e1646ULL},
    {"blackout", Scheme::tcp_cache, 0xa25349dc4e7ab9d9ULL},
    {"blackout", Scheme::reactive, 0x16f31b2eca556c36ULL},
    {"blackout", Scheme::proactive, 0x9c00d2a87ce51c0bULL},
    {"blackout", Scheme::jumpstart, 0x3b3129339b20735eULL},
    {"blackout", Scheme::pcp, 0x3a5690dfa1a60e91ULL},
    {"blackout", Scheme::halfback, 0x27c15e6895a20ba1ULL},
    {"blackout", Scheme::halfback_forward, 0x8831b7332a037a73ULL},
    {"blackout", Scheme::halfback_burst, 0x1e019ad0e24c24e5ULL},
    {"blackout", Scheme::rc3, 0x4c9cd3377869770dULL},
    {"flap", Scheme::tcp, 0x1e15f85ddc46555bULL},
    {"flap", Scheme::tcp10, 0xa9f2a72729e5f94cULL},
    {"flap", Scheme::tcp_cache, 0x1e15f85ddc46555bULL},
    {"flap", Scheme::reactive, 0x1e15f85ddc46555bULL},
    {"flap", Scheme::proactive, 0x899abea977c0f30aULL},
    {"flap", Scheme::jumpstart, 0xe86af4a94b76a96ULL},
    {"flap", Scheme::pcp, 0x106a938b55c0135bULL},
    {"flap", Scheme::halfback, 0x9f286164d3495c3ULL},
    {"flap", Scheme::halfback_forward, 0xcd855bb166b62179ULL},
    {"flap", Scheme::halfback_burst, 0x84346099c9e1910dULL},
    {"flap", Scheme::rc3, 0x67422db176efeaefULL},
    {"delay-spike", Scheme::tcp, 0xbe7fb233d5644227ULL},
    {"delay-spike", Scheme::tcp10, 0x92d2285b7cafa6bbULL},
    {"delay-spike", Scheme::tcp_cache, 0xbe7fb233d5644227ULL},
    {"delay-spike", Scheme::reactive, 0xbe7fb233d5644227ULL},
    {"delay-spike", Scheme::proactive, 0x5017c8799bb29756ULL},
    {"delay-spike", Scheme::jumpstart, 0x80bc1a655ed2cf45ULL},
    {"delay-spike", Scheme::pcp, 0xc7964b641a3d4a8dULL},
    {"delay-spike", Scheme::halfback, 0xc3b7a865d14c1d91ULL},
    {"delay-spike", Scheme::halfback_forward, 0xfe9935ce73ae5ff1ULL},
    {"delay-spike", Scheme::halfback_burst, 0x602f1ff8cb3fa150ULL},
    {"delay-spike", Scheme::rc3, 0x14936c995720d04fULL},
    {"adversarial", Scheme::tcp, 0x583e34a257ca4eadULL},
    {"adversarial", Scheme::tcp10, 0xd74c97249fa6dc56ULL},
    {"adversarial", Scheme::tcp_cache, 0x583e34a257ca4eadULL},
    {"adversarial", Scheme::reactive, 0x480c615ae8ccd26fULL},
    {"adversarial", Scheme::proactive, 0x9121bcdb2b09ebe6ULL},
    {"adversarial", Scheme::jumpstart, 0xe9622098fffeb7ULL},
    {"adversarial", Scheme::pcp, 0xeb49a0dcf6edf131ULL},
    {"adversarial", Scheme::halfback, 0x7fdda95e039cd02aULL},
    {"adversarial", Scheme::halfback_forward, 0xf24af85549ad69c0ULL},
    {"adversarial", Scheme::halfback_burst, 0x5669209914b62f87ULL},
    {"adversarial", Scheme::rc3, 0x177d3a14e86a6e94ULL},
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

  if (testing::capturing_golden()) {
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
