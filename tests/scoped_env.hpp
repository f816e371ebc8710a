#pragma once

/// \file scoped_env.hpp
/// Scoped environment-variable override for tests.

#include <cstdlib>
#include <string>

namespace m3d {

/// Sets (or, with nullptr, clears) one environment variable and restores its
/// previous state on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    set(value);
  }
  ~ScopedEnv() { set(had_ ? saved_.c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) const {
    if (value != nullptr) {
      ::setenv(name_, value, 1);
    } else {
      ::unsetenv(name_);
    }
  }

  const char* name_;
  std::string saved_;
  bool had_ = false;
};

}  // namespace m3d
