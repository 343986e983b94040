// Lightweight key=value configuration used by benchmark binaries to accept
// command-line overrides, e.g. `./fig6_assessment sim_minutes=10 seed=7`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace amri {

class Config {
 public:
  Config() = default;

  /// Parse argv-style tokens. Accepts "key=value", "--key=value", and
  /// "--key value" (a trailing or value-less "--key" becomes "true").
  /// Flag keys are normalised: leading dashes stripped, '-' → '_', so
  /// `--trace-out x.jsonl` is read back via get_string("trace_out").
  /// Bare tokens without '=' are ignored.
  static Config from_args(int argc, const char* const* argv);

  /// Parse newline-separated "key=value" text ('#' starts a comment).
  static Config from_text(std::string_view text);

  void set(std::string key, std::string value);
  bool has(std::string_view key) const;

  std::optional<std::string> get_string(std::string_view key) const;
  std::optional<std::int64_t> get_int(std::string_view key) const;
  std::optional<double> get_double(std::string_view key) const;
  std::optional<bool> get_bool(std::string_view key) const;

  std::string string_or(std::string_view key, std::string fallback) const;
  std::int64_t int_or(std::string_view key, std::int64_t fallback) const;
  double double_or(std::string_view key, double fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
  /// int_or for count-like knobs (`--batch-size 64`): negative values clamp
  /// to 0, so callers can treat the result as a plain std::size_t.
  std::size_t size_or(std::string_view key, std::size_t fallback) const;

  const std::map<std::string, std::string, std::less<>>& entries() const {
    return entries_;
  }

  /// Keys that are set but were never asked for through has() or a
  /// getter, in key order. A binary calls this once its options are
  /// parsed to reject flags it does not know. Lookups record the keys
  /// they ask for, so a Config must not be read from several threads.
  std::vector<std::string> unread_keys() const;

 private:
  using Entries = std::map<std::string, std::string, std::less<>>;
  /// entries_.find(key), recording `key` as asked for.
  Entries::const_iterator lookup(std::string_view key) const;

  Entries entries_;
  mutable std::set<std::string, std::less<>> asked_;
};

}  // namespace amri
