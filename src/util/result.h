#ifndef SECMED_UTIL_RESULT_H_
#define SECMED_UTIL_RESULT_H_

#include <cassert>
#include <utility>
#include <variant>

#include "util/status.h"

namespace secmed {

/// Holder of either a value of type T or an error Status.
///
/// Mirrors arrow::Result / absl::StatusOr. Accessing the value of an
/// errored Result is a programming error (checked by assert in debug
/// builds).
template <typename T>
class Result {
 public:
  /// Constructs an errored result. `status` must not be OK.
  Result(Status status) : repr_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!std::get<Status>(repr_).ok());
  }

  /// Constructs a successful result holding `value`.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// Returns the error status, or OK if the result holds a value.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(repr_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  /// By value, not T&&: a reference into a temporary Result dangles once
  /// the full expression ends, e.g. in `for (x : MakeResult().value())`.
  T value() && {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `alternative` if the result is an error.
  T ValueOr(T alternative) const {
    if (ok()) return value();
    return alternative;
  }

 private:
  std::variant<Status, T> repr_;
};

/// Propagates the error of a Result-returning expression or assigns its
/// value to `lhs`.
#define SECMED_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value();

#define SECMED_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define SECMED_ASSIGN_OR_RETURN_NAME(x, y) SECMED_ASSIGN_OR_RETURN_CONCAT(x, y)

#define SECMED_ASSIGN_OR_RETURN(lhs, expr) \
  SECMED_ASSIGN_OR_RETURN_IMPL(            \
      SECMED_ASSIGN_OR_RETURN_NAME(_secmed_result_, __LINE__), lhs, expr)

}  // namespace secmed

#endif  // SECMED_UTIL_RESULT_H_
