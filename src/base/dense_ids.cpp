#include "base/dense_ids.hpp"

#include <algorithm>
#include <functional>
#include <string_view>

namespace interop::base {

std::size_t PointHash::operator()(const Point& p) const {
  std::uint64_t h = std::uint64_t(p.x) * 0x9e3779b97f4a7c15ULL;
  h ^= std::uint64_t(p.y) + 0x7f4a7c159e3779b9ULL + (h << 6) + (h >> 2);
  return std::size_t(h);
}

namespace {

std::uint64_t key_hash(const Point& p) { return PointHash{}(p); }
std::uint64_t key_hash(std::int64_t v) { return std::uint64_t(v); }
std::uint64_t key_hash(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

}  // namespace

template <class Key>
std::size_t DenseIds<Key>::slot_of(const Key& key) const {
  // Fibonacci hashing: the top bits of the product mix every key bit.
  return std::size_t((key_hash(key) * 0x9e3779b97f4a7c15ULL) >> shift_);
}

template <class Key>
void DenseIds<Key>::rehash(std::size_t slots) {
  int bits = 0;
  while ((std::size_t(1) << bits) < slots) ++bits;
  slots_.assign(std::size_t(1) << bits, kNone);
  shift_ = 64 - bits;
  std::size_t mask = slots_.size() - 1;
  for (std::uint32_t id = 0; id < keys_.size(); ++id) {
    std::size_t s = slot_of(keys_[id]);
    while (slots_[s] != kNone) s = (s + 1) & mask;
    slots_[s] = id;
  }
}

template <class Key>
void DenseIds<Key>::reserve(std::size_t n) {
  keys_.reserve(n);
  // Load factor at most one half.
  if (2 * n > slots_.size()) rehash(std::max<std::size_t>(16, 2 * n));
}

template <class Key>
std::uint32_t DenseIds<Key>::find(const Key& key) const {
  if (slots_.empty()) return kNone;
  std::size_t mask = slots_.size() - 1;
  for (std::size_t s = slot_of(key);; s = (s + 1) & mask) {
    std::uint32_t id = slots_[s];
    if (id == kNone || keys_[id] == key) return id;
  }
}

template <class Key>
std::uint32_t DenseIds<Key>::intern(const Key& key) {
  if (2 * (keys_.size() + 1) > slots_.size())
    rehash(std::max<std::size_t>(16, 4 * (keys_.size() + 1)));
  std::size_t mask = slots_.size() - 1;
  std::size_t s = slot_of(key);
  for (; slots_[s] != kNone; s = (s + 1) & mask)
    if (keys_[slots_[s]] == key) return slots_[s];
  auto id = std::uint32_t(keys_.size());
  slots_[s] = id;
  keys_.push_back(key);
  return id;
}

template class DenseIds<Point>;
template class DenseIds<std::int64_t>;
template class DenseIds<std::string_view>;

}  // namespace interop::base
