#pragma once
// Dense ids for keys: an open-addressed interning table, for code that
// keeps per-key state in flat arrays of its own rather than in a map.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/geometry.hpp"

namespace interop::base {

/// Hash for grid points, for unordered containers keyed by Point.
struct PointHash {
  std::size_t operator()(const Point& p) const;
};

/// Dense ids for keys: the first key interned gets 0, the next new one 1,
/// and so on. Open addressing with linear probing over a power-of-two slot
/// array; ids index the caller's own per-key arrays. Instantiated for
/// Point, std::int64_t and std::string_view (whose text must outlive it).
template <class Key>
class DenseIds {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Size the table for `n` keys without rehashing.
  void reserve(std::size_t n);
  /// Id of `key`, or kNone.
  std::uint32_t find(const Key& key) const;
  /// Id of `key`, giving it the next id when it is new.
  std::uint32_t intern(const Key& key);
  std::size_t size() const { return keys_.size(); }
  const Key& key(std::uint32_t id) const { return keys_[id]; }

 private:
  std::size_t slot_of(const Key& key) const;
  void rehash(std::size_t slots);

  std::vector<std::uint32_t> slots_;  ///< id, or kNone for an empty slot
  std::vector<Key> keys_;             ///< by id
  int shift_ = 64;
};

}  // namespace interop::base
