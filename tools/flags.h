// Command-line flag lookup shared by the tools. Flags accept both spellings, `--name value`
// and `--name=value`; a flag that is absent yields the caller's fallback. Unknown flags are
// ignored, so each tool documents its own set in its usage comment.
#ifndef TOOLS_FLAGS_H_
#define TOOLS_FLAGS_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace bft {

inline const char* FlagString(int argc, char** argv, const char* name, const char* fallback) {
  size_t name_len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], name, name_len) == 0 && argv[i][name_len] == '=') {
      return argv[i] + name_len + 1;
    }
  }
  return fallback;
}

inline uint64_t FlagValue(int argc, char** argv, const char* name, uint64_t fallback) {
  const char* s = FlagString(argc, argv, name, nullptr);
  return s != nullptr ? std::strtoull(s, nullptr, 10) : fallback;
}

inline double FlagDouble(int argc, char** argv, const char* name, double fallback) {
  const char* s = FlagString(argc, argv, name, nullptr);
  return s != nullptr ? std::strtod(s, nullptr) : fallback;
}

// A boolean switch such as `--formation`: true when the bare flag appears anywhere.
inline bool FlagPresent(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace bft

#endif  // TOOLS_FLAGS_H_
