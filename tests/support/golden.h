// Golden trace hashes that more than one suite pins, with the runs that
// produce them, and the capture mode every golden suite shares.
//
// A trace hash (audit::InvariantAuditor::trace_hash) pins what a run sends,
// delivers and ACKs, each link offer and delivery with its sim time. It
// does not pin the event schedule, so a change that only fires other
// events for the same packets keeps every golden. Re-pin only after an
// intentional change to behaviour, in one step, and list each constant in
// CHANGES.md as old -> new with the reason:
//
//   HALFBACK_CAPTURE_GOLDEN=1 ./audit_test --gtest_filter='RefactorStability.*:StaticPipelineEquivalence.*'
//   HALFBACK_CAPTURE_GOLDEN=1 ./telemetry_test --gtest_filter='HubInvariance.*'
//
// In capture mode each pin prints the value it read instead of asserting.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "exp/emulab.h"
#include "exp/planetlab.h"
#include "schemes/scheme.h"
#include "workload/flow_schedule.h"

namespace halfback::testing {

/// EmulabRunner{golden_emulab_config()}.run(golden_emulab_parts()).
inline constexpr std::uint64_t kGoldenEmulabHalfback = 0xf4449bc2ca736739ULL;
/// golden_planetlab_env()'s Halfback trial on its first path, seed 1234.
inline constexpr std::uint64_t kGoldenPlanetLabHalfback = 0xbbb180da9cf8a3bcULL;

/// Seed 5, a 4x4 dumbbell and a 20 s drain.
inline exp::EmulabRunner::Config golden_emulab_config() {
  exp::EmulabRunner::Config config;
  config.seed = 5;
  config.dumbbell.sender_count = 4;
  config.dumbbell.receiver_count = 4;
  config.drain = sim::Time::seconds(20);
  return config;
}

/// Six 100 KB Halfback flows, 50 ms apart.
inline std::vector<exp::WorkloadPart> golden_emulab_parts() {
  std::vector<exp::WorkloadPart> parts(1);
  parts[0].scheme = schemes::Scheme::halfback;
  for (int i = 0; i < 6; ++i) {
    parts[0].schedule.push_back(workload::FlowArrival{
        sim::Time::milliseconds(50.0 * i), /*bytes=*/100'000});
  }
  return parts;
}

/// Four PlanetLab pairs from seed 7, with a 60 s trial timeout.
inline exp::PlanetLabEnv golden_planetlab_env() {
  exp::PlanetLabConfig config;
  config.pair_count = 4;
  config.seed = 7;
  config.per_trial_timeout = sim::Time::seconds(60);
  return exp::PlanetLabEnv{config};
}

/// True when HALFBACK_CAPTURE_GOLDEN is set in the environment.
inline bool capturing_golden() {
  return std::getenv("HALFBACK_CAPTURE_GOLDEN") != nullptr;
}

/// Expect `actual` to equal the golden `expected`, called `name`; in capture
/// mode print `name = 0x...ULL` instead, ready to paste.
inline void expect_golden(const char* name, std::uint64_t actual,
                          std::uint64_t expected) {
  if (capturing_golden()) {
    std::printf("%s = 0x%016llxULL\n", name, static_cast<unsigned long long>(actual));
    return;
  }
  EXPECT_EQ(actual, expected) << name << " moved: re-pin it only after an "
                                         "intentional behaviour change";
}

}  // namespace halfback::testing
