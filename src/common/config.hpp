// INI-style configuration parser.
//
// SGFS proxies and services are configured through config files (paper §4.2):
// sections of key = value pairs, '#' or ';' comments, whitespace-insensitive.
// The same parser reads the security configuration (ciphers, MAC, cert
// paths), disk-cache parameters and renegotiation timeouts.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sgfs {

class Config {
 public:
  Config() = default;

  /// Parses INI text.  Throws std::runtime_error on malformed lines.
  static Config parse(std::string_view text);

  /// Full lookup: "section.key".  Keys outside any section use "" section.
  std::optional<std::string> get(const std::string& section,
                                 const std::string& key) const;

  std::string get_or(const std::string& section, const std::string& key,
                     std::string def) const;
  int64_t get_int(const std::string& section, const std::string& key,
                  int64_t def) const;
  bool get_bool(const std::string& section, const std::string& key,
                bool def) const;
  double get_double(const std::string& section, const std::string& key,
                    double def) const;

  void set(const std::string& section, const std::string& key,
           std::string value);

  /// All keys present in a section, in insertion order.
  std::vector<std::string> keys(const std::string& section) const;

  /// Sections present, in insertion order ("" excluded unless used).
  std::vector<std::string> sections() const;

  /// Serializes back to INI text (stable ordering).
  std::string to_string() const;

 private:
  struct Entry {
    std::string section, key, value;
  };
  std::vector<Entry> entries_;  // preserves order for to_string()
  std::map<std::pair<std::string, std::string>, size_t> index_;
};

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Splits on a delimiter, trimming each piece; empty pieces kept.
std::vector<std::string> split(std::string_view s, char delim);

}  // namespace sgfs
