#include "apps/command_line.hpp"

#include <cstdio>
#include <cstdlib>

namespace clicsim::apps {

namespace {

bool is_positional(const Flag& f) { return !f.name.starts_with('-'); }

// How a row is written in the synopsis: "-j N", "--nodes N", "clic|tcp".
std::string synopsis(const Flag& f) {
  if (is_positional(f)) return f.value.empty() ? f.name : f.value;
  return (f.short_name.empty() ? f.name : f.short_name) +
         (f.value.empty() ? "" : " " + f.value);
}

// How a row is written in the flag list: "-j N, --jobs N".
std::string spelling(const Flag& f) {
  if (is_positional(f)) return synopsis(f);
  const std::string value = f.value.empty() ? "" : " " + f.value;
  return (f.short_name.empty() ? "" : f.short_name + value + ", ") + f.name +
         value;
}

[[noreturn]] void usage(const char* prog, const std::vector<Flag>& flags,
                        int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out, "usage: %s", prog);
  for (const auto& f : flags) std::fprintf(out, " [%s]", synopsis(f).c_str());
  std::fputc('\n', out);
  for (const auto& f : flags) {
    const std::string s = spelling(f);
    if (s.size() > 18) std::fprintf(out, "  %s\n", s.c_str());
    std::fprintf(out, "  %-18s %s\n", s.size() > 18 ? "" : s.c_str(),
                 f.help.c_str());
  }
  std::exit(code);
}

}  // namespace

Flag bool_flag(std::string name, std::string help, bool& out) {
  return {std::move(name), "", "", std::move(help), [&out](const char*) {
            out = true;
            return true;
          }};
}

Flag enum_flag(std::string name, std::vector<std::string> choices,
               std::string help, std::string& out) {
  std::string value;
  for (const auto& c : choices) value += (value.empty() ? "" : "|") + c;
  return {std::move(name), "", std::move(value), std::move(help),
          [choices = std::move(choices), &out](const char* text) {
            for (const auto& c : choices) {
              if (c == text) {
                out = c;
                return true;
              }
            }
            return false;
          }};
}

Flag jobs_flag(int& jobs) {
  Flag f = int_flag("--jobs",
                    "worker threads (default: all cores; stdout is"
                    " identical at any -j)",
                    1, 4096, jobs);
  f.short_name = "-j";
  return f;
}

void parse_args(int argc, char** argv, const std::vector<Flag>& flags) {
  const char* prog = argc > 0 ? argv[0] : "clicsim";
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "%s: %s\n", prog, why.c_str());
    usage(prog, flags, 2);
  };
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") usage(prog, flags, 0);
    const Flag* flag = nullptr;
    const char* value = nullptr;
    if (arg.empty() || arg[0] != '-') {
      while (next_positional < flags.size() &&
             !is_positional(flags[next_positional])) {
        ++next_positional;
      }
      if (next_positional == flags.size()) {
        fail("unexpected argument '" + arg + "'");
      }
      flag = &flags[next_positional++];
      value = argv[i];
    } else {
      for (const auto& f : flags) {
        if (is_positional(f)) continue;
        if (arg == f.name || arg == f.short_name) {
          flag = &f;
          if (!f.value.empty()) {
            if (i + 1 >= argc) fail("missing value for " + arg);
            value = argv[++i];
          }
          break;
        }
        if (f.value.empty()) continue;
        if (arg.starts_with(f.name + "=")) {
          flag = &f;
          value = argv[i] + f.name.size() + 1;
          break;
        }
        if (!f.short_name.empty() && arg.starts_with(f.short_name)) {
          flag = &f;
          value = argv[i] + f.short_name.size();
          break;
        }
      }
      if (flag == nullptr) fail("unknown argument '" + arg + "'");
    }
    if (!flag->set(value)) {
      fail("bad value '" + std::string(value) + "' for " + flag->name);
    }
  }
}

}  // namespace clicsim::apps
