#include "telemetry/manifest.h"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "telemetry/export.h"
#include "telemetry/registry.h"

namespace halfback::telemetry {

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void write_manifest_json(std::ostream& out, const RunManifest& manifest,
                         const MetricRegistry* registry) {
  out << "{\"experiment\":\"" << json_escape(manifest.experiment)
      << "\",\"scheme\":\"" << json_escape(manifest.scheme)
      << "\",\"seed\":" << manifest.seed << ",\"config_digest\":\""
      << hex64(manifest.config_digest) << "\",\"trace_hash\":\""
      << hex64(manifest.trace_hash) << "\",\"sim_end_ns\":"
      << manifest.sim_end.ns() << ",\"events_dispatched\":"
      << manifest.events_dispatched << ",\"wall_time_seconds\":"
      << format_double(manifest.wall_time_seconds);
  if (!manifest.profile.empty()) {
    out << ",\"profile\":[";
    bool first = true;
    for (const RunManifest::ProfileRow& row : manifest.profile) {
      if (!first) out << ',';
      first = false;
      out << "{\"type\":\"" << json_escape(row.event_type)
          << "\",\"count\":" << row.count << ",\"cycles\":" << row.cycles
          << '}';
    }
    out << ']';
  }
  if (registry != nullptr) {
    out << ",\"metrics\":[";
    std::ostringstream lines;
    write_metrics_jsonl(lines, *registry);
    std::string text = lines.str();
    // JSONL -> JSON array: newlines between objects become commas.
    bool first = true;
    std::size_t start = 0;
    while (start < text.size()) {
      const std::size_t stop = text.find('\n', start);
      if (!first) out << ',';
      first = false;
      out << text.substr(start, stop - start);
      if (stop == std::string::npos) break;
      start = stop + 1;
    }
    out << ']';
  }
  out << "}\n";
}

}  // namespace halfback::telemetry
