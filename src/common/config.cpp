#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace amri {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

// Flag keys are normalised to config keys: strip the leading dashes and
// turn '-' into '_', so `--trace-out` stores under "trace_out".
std::string normalize_key(std::string_view key) {
  while (!key.empty() && key.front() == '-') key.remove_prefix(1);
  std::string out(trim(key));
  std::replace(out.begin(), out.end(), '-', '_');
  return out;
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string_view tok = argv[i];
    const auto eq = tok.find('=');
    if (eq != std::string_view::npos && eq > 0) {
      // "key=value" / "--key=value"
      cfg.set(normalize_key(trim(tok.substr(0, eq))),
              std::string(trim(tok.substr(eq + 1))));
      continue;
    }
    if (tok.size() > 2 && tok.substr(0, 2) == "--") {
      // "--key value" consumes the next token; a trailing "--key" or one
      // followed by another flag becomes a boolean "true".
      const std::string key = normalize_key(tok);
      if (key.empty()) continue;
      const std::string_view next =
          i + 1 < argc ? std::string_view(argv[i + 1]) : std::string_view{};
      if (next.empty() || next.substr(0, 2) == "--") {
        cfg.set(key, "true");
      } else {
        cfg.set(key, std::string(trim(next)));
        ++i;
      }
    }
    // Bare tokens without '=' stay ignored, as before.
  }
  return cfg;
}

Config Config::from_text(std::string_view text) {
  Config cfg;
  while (!text.empty()) {
    const auto nl = text.find('\n');
    std::string_view line =
        (nl == std::string_view::npos) ? text : text.substr(0, nl);
    text = (nl == std::string_view::npos) ? std::string_view{}
                                          : text.substr(nl + 1);
    const auto hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) continue;
    cfg.set(std::string(trim(line.substr(0, eq))),
            std::string(trim(line.substr(eq + 1))));
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

Config::Entries::const_iterator Config::lookup(std::string_view key) const {
  asked_.emplace(key);
  return entries_.find(key);
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : entries_) {
    if (asked_.find(key) == asked_.end()) out.push_back(key);
  }
  return out;
}

bool Config::has(std::string_view key) const {
  return lookup(key) != entries_.end();
}

std::optional<std::string> Config::get_string(std::string_view key) const {
  const auto it = lookup(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::int64_t> Config::get_int(std::string_view key) const {
  const auto it = lookup(key);
  if (it == entries_.end()) return std::nullopt;
  const std::string& s = it->second;
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<double> Config::get_double(std::string_view key) const {
  const auto it = lookup(key);
  if (it == entries_.end()) return std::nullopt;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<bool> Config::get_bool(std::string_view key) const {
  const auto it = lookup(key);
  if (it == entries_.end()) return std::nullopt;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  return std::nullopt;
}

std::string Config::string_or(std::string_view key, std::string fallback) const {
  auto v = get_string(key);
  return v ? *v : std::move(fallback);
}

std::int64_t Config::int_or(std::string_view key, std::int64_t fallback) const {
  auto v = get_int(key);
  return v ? *v : fallback;
}

double Config::double_or(std::string_view key, double fallback) const {
  auto v = get_double(key);
  return v ? *v : fallback;
}

bool Config::bool_or(std::string_view key, bool fallback) const {
  auto v = get_bool(key);
  return v ? *v : fallback;
}

std::size_t Config::size_or(std::string_view key, std::size_t fallback) const {
  const std::int64_t v = int_or(key, static_cast<std::int64_t>(fallback));
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

}  // namespace amri
