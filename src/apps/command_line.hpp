// The command-line parser every bench and example binary shares. A binary
// declares its flags as a table of Flag rows and hands it to parse_args(),
// which owns the spellings, the usage text and the exit codes:
//
//   --name V, --name=V   a flag with a value (`-xV` too for a short name)
//   --name               a switch (Flag::value empty)
//   V                    a positional argument (a name without a leading
//                        '-'), filled in declaration order
//   -h, --help           usage to stdout, exit 0
//
// Anything undeclared, a missing value or a value the row's setter rejects
// prints the reason and the usage to stderr and exits 2.
#pragma once

#include <charconv>
#include <cstring>
#include <functional>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace clicsim::apps {

struct Flag {
  std::string name;        // "--nodes", or "seed" for a positional
  std::string short_name;  // optional "-j": also takes "-j N" and "-jN"
  std::string value;       // usage placeholder ("N"); empty for a switch
  std::string help;        // one usage line
  // Stores the value (nullptr for a switch); false rejects it.
  std::function<bool(const char*)> set;
};

// Parses all of `text` as a decimal integer in [lo, hi].
template <typename T>
[[nodiscard]] bool parse_int(const char* text, T lo, T hi, T& out) {
  const char* end = text + std::strlen(text);
  T v{};
  const auto [stop, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || stop != end || v < lo || v > hi) return false;
  out = v;
  return true;
}

// An integer flag bounded to [lo, hi].
template <typename T>
[[nodiscard]] Flag int_flag(std::string name, std::string help,
                            std::type_identity_t<T> lo,
                            std::type_identity_t<T> hi, T& out) {
  return {std::move(name), "", "N", std::move(help),
          [lo, hi, &out](const char* text) {
            return parse_int(text, lo, hi, out);
          }};
}

// A switch: present sets `out`.
[[nodiscard]] Flag bool_flag(std::string name, std::string help, bool& out);

// A value that must be one of `choices`.
[[nodiscard]] Flag enum_flag(std::string name,
                             std::vector<std::string> choices,
                             std::string help, std::string& out);

// The sweep binaries' worker count: `-j N`, `-jN`, `--jobs N`, `--jobs=N`,
// in [1, 4096]. Left untouched (0 = every core) when absent.
[[nodiscard]] Flag jobs_flag(int& jobs);

// Parses argv against `flags`; returns only when every argument was
// accepted (see the file comment for the exits).
void parse_args(int argc, char** argv, const std::vector<Flag>& flags);

}  // namespace clicsim::apps
