#pragma once
// The a/L reader: text -> Value forms.

#include <cstddef>
#include <string>
#include <vector>

#include "al/value.hpp"

namespace interop::al {

/// Deepest nesting the reader accepts: open lists plus pending quotes
/// ('x reads as (quote x), one level more). Reading itself does not
/// recurse, but destroying, printing and evaluating a Value do, so input
/// nested deeper is refused with an AlError rather than built.
inline constexpr std::size_t kMaxNesting = 1000;

/// Parse every top-level form in `source`. Supports integers, doubles,
/// strings with \" \\ \n escapes, symbols, #t/#f, nil, lists, 'x quoting,
/// and ; line comments. Throws AlError on malformed input or nesting
/// deeper than kMaxNesting.
std::vector<Value> read_all(const std::string& source);

/// Parse exactly one form; throws if there is not exactly one.
Value read_one(const std::string& source);

}  // namespace interop::al
