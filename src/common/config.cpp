#include "common/config.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace sgfs {

std::string_view trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

Config Config::parse(std::string_view text) {
  Config cfg;
  std::string section;
  size_t lineno = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = trim(text.substr(pos, nl - pos));
    pos = nl + 1;
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw std::runtime_error("config line " + std::to_string(lineno) +
                                 ": unterminated section header");
      }
      section = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("config line " + std::to_string(lineno) +
                               ": expected key = value");
    }
    cfg.set(section, std::string(trim(line.substr(0, eq))),
            std::string(trim(line.substr(eq + 1))));
  }
  return cfg;
}

std::optional<std::string> Config::get(const std::string& section,
                                       const std::string& key) const {
  auto it = index_.find({section, key});
  if (it == index_.end()) return std::nullopt;
  return entries_[it->second].value;
}

std::string Config::get_or(const std::string& section, const std::string& key,
                           std::string def) const {
  auto v = get(section, key);
  return v ? *v : std::move(def);
}

int64_t Config::get_int(const std::string& section, const std::string& key,
                        int64_t def) const {
  auto v = get(section, key);
  if (!v) return def;
  return std::strtoll(v->c_str(), nullptr, 0);
}

bool Config::get_bool(const std::string& section, const std::string& key,
                      bool def) const {
  auto v = get(section, key);
  if (!v) return def;
  return *v == "1" || *v == "true" || *v == "yes" || *v == "on";
}

double Config::get_double(const std::string& section, const std::string& key,
                          double def) const {
  auto v = get(section, key);
  if (!v) return def;
  return std::strtod(v->c_str(), nullptr);
}

void Config::set(const std::string& section, const std::string& key,
                 std::string value) {
  auto it = index_.find({section, key});
  if (it != index_.end()) {
    entries_[it->second].value = std::move(value);
    return;
  }
  index_[{section, key}] = entries_.size();
  entries_.push_back({section, key, std::move(value)});
}

std::vector<std::string> Config::keys(const std::string& section) const {
  std::vector<std::string> out;
  for (const auto& e : entries_) {
    if (e.section == section) out.push_back(e.key);
  }
  return out;
}

std::vector<std::string> Config::sections() const {
  std::vector<std::string> out;
  for (const auto& e : entries_) {
    bool seen = false;
    for (const auto& s : out) {
      if (s == e.section) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(e.section);
  }
  return out;
}

std::string Config::to_string() const {
  std::ostringstream out;
  std::string current = "\x01";  // sentinel: no section emitted yet
  // Emit section-less entries first, then by first-appearance section order.
  for (const auto& sec : sections()) {
    if (!sec.empty() || current == "\x01") {
      if (!sec.empty()) out << "[" << sec << "]\n";
      current = sec;
    }
    for (const auto& e : entries_) {
      if (e.section == sec) out << e.key << " = " << e.value << "\n";
    }
  }
  return out.str();
}

}  // namespace sgfs
