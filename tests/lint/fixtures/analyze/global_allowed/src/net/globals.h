// Fixture: the same state as the `global` fixture, but each site is
// justified inline with a shard-ok tag, so shard_safety stays silent.
#pragma once
namespace halfback::net {

// lint: shard-ok(fixture: process-wide debug counter, torn down between shards)
int g_total_packets = 0;

inline long sequence() {
  static long next = 0;  // lint: shard-ok(fixture: wire-format sequence space)
  return ++next;
}

}  // namespace halfback::net
