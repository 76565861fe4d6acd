// Library version. Bumped with every released change to the public API
// surface (seamap/seamap.h); `seamap_cli version` prints this. It lives
// in util/ (the bottom layer) so any module may stamp output with the
// version without depending upward; seamap/version.h re-exports it for
// installed-header consumers.
#pragma once

#include <string_view>

#define SEAMAP_VERSION_MAJOR 0
#define SEAMAP_VERSION_MINOR 2
#define SEAMAP_VERSION_PATCH 0
#define SEAMAP_VERSION_STRING "0.2.0"

namespace seamap {

inline constexpr std::string_view k_version_string = SEAMAP_VERSION_STRING;
inline constexpr int k_version_major = SEAMAP_VERSION_MAJOR;
inline constexpr int k_version_minor = SEAMAP_VERSION_MINOR;
inline constexpr int k_version_patch = SEAMAP_VERSION_PATCH;

} // namespace seamap
