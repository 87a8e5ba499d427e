#include "telemetry/span.h"

namespace halfback::telemetry {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::flow: return "flow";
    case SpanKind::handshake: return "handshake";
    case SpanKind::pacing: return "pacing";
    case SpanKind::blast: return "blast";
    case SpanKind::ropr_repair: return "ropr_repair";
    case SpanKind::fallback: return "fallback";
    case SpanKind::rto_recovery: return "rto_recovery";
  }
  return "?";
}

}  // namespace halfback::telemetry
