// Open-addressed hash table keyed by a packed group pair (see pair_key in
// partition.cpp), the partition optimizer's live-candidate index.
//
// Linear probing with backward-shift erase: no tombstones, so a probe run
// only ever covers live keys and erase-heavy workloads (every committed
// merge erases and re-inserts a group's whole pair fan) never degrade it.
// The table is sized once, for the largest live count the caller will
// ever hold, at <= 50% load; it never grows or rehashes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/common.h"
#include "base/rng.h"

namespace desyn::flow {

template <class V>
class PairTable {
 public:
  /// The one key value a pair can never pack to (both halves are group
  /// indices, far below 2^32 - 1); it marks an empty slot.
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  /// Room for `max_live` keys at <= 50% load; the spare slot keeps one
  /// slot empty even at max_live == 0, so every probe run ends.
  explicit PairTable(size_t max_live)
      : slots_(2 * max_live + 1, Slot{kEmpty, V{}}) {}

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  /// The slot a probe for `key` starts at.
  size_t home(uint64_t key) const { return splitmix64(key) % slots_.size(); }

  V* find(uint64_t key) {
    const size_t i = locate(key);
    return slots_[i].key == key ? &slots_[i].value : nullptr;
  }

  /// The value for `key`, value-initialized and inserted when absent;
  /// `.second` says whether it was inserted.
  std::pair<V*, bool> try_emplace(uint64_t key) {
    const size_t i = locate(key);
    if (slots_[i].key == key) return {&slots_[i].value, false};
    DESYN_ASSERT(size_ + 1 < slots_.size(), "PairTable: sized too small");
    slots_[i] = Slot{key, V{}};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes `key`, moving its value to `*taken` when given; false if it
  /// was absent. Later entries of the probe run shift back into the hole
  /// whenever their home does not lie strictly between the hole and their
  /// slot, so no lookup ever crosses a gap.
  bool erase(uint64_t key, V* taken = nullptr) {
    size_t hole = locate(key);
    if (slots_[hole].key != key) return false;
    if (taken) *taken = std::move(slots_[hole].value);
    for (size_t j = next(hole); slots_[j].key != kEmpty; j = next(j)) {
      if (distance(home(slots_[j].key), j) >= distance(hole, j)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].key = kEmpty;
    --size_;
    return true;
  }

 private:
  struct Slot {
    uint64_t key;
    V value;
  };

  size_t next(size_t i) const { return i + 1 == slots_.size() ? 0 : i + 1; }
  /// Probe steps from slot `from` forward to slot `to`, wrapping.
  size_t distance(size_t from, size_t to) const {
    return to >= from ? to - from : to + slots_.size() - from;
  }

  /// The slot holding `key`, or the empty slot ending its probe run.
  size_t locate(uint64_t key) const {
    DESYN_ASSERT(key != kEmpty, "PairTable: reserved key");
    size_t i = home(key);
    while (slots_[i].key != key && slots_[i].key != kEmpty) i = next(i);
    return i;
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace desyn::flow
