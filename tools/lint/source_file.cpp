#include "source_file.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace halfback::lint {
namespace {

bool contains_tag(std::string_view line, std::string_view tag) {
  // Look for "lint:" then the tag anywhere after it (so both
  // "// lint: ordered-ok" and "// lint: ordered-ok(sorted below)" match,
  // as does a tag list "lint: ordered-ok, unit-ok").
  const std::size_t at = line.find("lint:");
  return at != std::string_view::npos &&
         line.find(tag, at + 5) != std::string_view::npos;
}

}  // namespace

SourceFile::SourceFile(std::string logical_path, std::string text)
    : path_{std::move(logical_path)},
      text_{std::make_unique<std::string>(std::move(text))} {
  std::string_view rest = *text_;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    lines_.push_back(rest.substr(0, nl));
    if (nl == std::string_view::npos) break;
    rest.remove_prefix(nl + 1);
  }
  tokens_ = tokenize(*text_);
  code_.reserve(tokens_.size());
  std::copy_if(tokens_.begin(), tokens_.end(), std::back_inserter(code_),
               [](const Token& t) {
                 return t.kind != TokenKind::comment &&
                        t.kind != TokenKind::pp_directive;
               });
}

bool SourceFile::is_header() const { return path_.ends_with(".h"); }

bool SourceFile::in_any_dir(std::initializer_list<std::string_view> prefixes) const {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](std::string_view p) { return path_.starts_with(p); });
}

bool SourceFile::suppressed(int line, std::string_view tag) const {
  return contains_tag(line_text(line), tag) || contains_tag(line_text(line - 1), tag);
}

bool SourceFile::annotated(std::string_view tag, int search_lines) const {
  for (const Token& t : tokens_) {
    if (t.line > search_lines) break;
    if (t.kind == TokenKind::comment && contains_tag(t.text, tag)) return true;
  }
  return false;
}

std::string_view SourceFile::line_text(int line) const {
  if (line < 1 || static_cast<std::size_t>(line) > lines_.size()) return {};
  return lines_[static_cast<std::size_t>(line) - 1];
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + path.string()};
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

}  // namespace halfback::lint
