#include "telemetry/quarantine.h"

#include <ostream>
#include <sstream>

#include "telemetry/export.h"

namespace halfback::telemetry {

void write_quarantine_json(std::ostream& out,
                           const QuarantineManifest& manifest) {
  out << "{\"attempted\":" << manifest.attempted
      << ",\"completed\":" << manifest.completed
      << ",\"quarantined\":" << manifest.quarantined << ",\"cells\":[";
  bool first = true;
  for (const QuarantineRecord& record : manifest.records) {
    if (!first) out << ',';
    first = false;
    out << "{\"cell_index\":" << record.cell_index << ",\"cell\":\""
        << json_escape(record.cell) << "\",\"reason\":\""
        << json_escape(record.reason)
        << "\",\"events_at_trip\":" << record.events_at_trip
        << ",\"sim_time_at_trip_ns\":" << record.sim_time_at_trip.ns()
        << ",\"detail\":\"" << json_escape(record.detail) << "\"}";
  }
  out << "]}\n";
}

std::string quarantine_json(const QuarantineManifest& manifest) {
  std::ostringstream out;
  write_quarantine_json(out, manifest);
  return out.str();
}

}  // namespace halfback::telemetry
