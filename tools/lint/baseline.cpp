#include "baseline.h"

#include <charconv>
#include <sstream>

namespace halfback::lint {

bool Baseline::parse(const std::string& text, std::string& error) {
  std::istringstream in{text};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;

    std::istringstream fields{line};
    std::string rule;
    std::string location;
    fields >> rule >> location;
    const std::size_t colon = location.rfind(':');
    int finding_line = 0;
    bool ok = !rule.empty() && colon != std::string::npos && colon + 1 < location.size();
    if (ok) {
      const char* begin = location.data() + colon + 1;
      const char* end = location.data() + location.size();
      ok = std::from_chars(begin, end, finding_line).ptr == end;
    }
    if (!ok) {
      error = "baseline line " + std::to_string(line_no) +
              ": expected '<rule> <path>:<line>', got: " + line;
      return false;
    }
    entries_.insert({rule, location.substr(0, colon), finding_line});
  }
  return true;
}

std::vector<std::string> Baseline::stale_entries(
    const std::vector<Finding>& findings) const {
  std::set<std::tuple<std::string, std::string, int>> live;
  for (const Finding& f : findings) live.insert({f.rule, f.path, f.line});
  std::vector<std::string> stale;
  for (const auto& [rule, path, line] : entries_) {
    if (live.contains({rule, path, line})) continue;
    stale.push_back(rule + " " + path + ":" + std::to_string(line));
  }
  return stale;
}

std::string Baseline::render(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "# halfback-lint suppression baseline. Policy: keep this file "
         "empty;\n# justify findings inline with '// lint: <tag>(reason)' "
         "instead.\n";
  for (const Finding& f : findings) {
    out << f.rule << ' ' << f.path << ':' << f.line << '\n';
  }
  return out.str();
}

}  // namespace halfback::lint
