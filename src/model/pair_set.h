#ifndef PROGRES_MODEL_PAIR_SET_H_
#define PROGRES_MODEL_PAIR_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/entity.h"

namespace progres {

// A set of pair keys in one flat array: open addressing with linear probing,
// kept at most half full. Key 0 marks an empty slot — MakePairKey never
// returns 0, since the two ids of a pair differ. Erase shifts the rest of
// the probe run back (no tombstones), so a set that grows and is cut back
// (checkpoint restore) probes as if the erased keys had never been there.
class PairSet {
 public:
  bool contains(PairKey key) const {
    if (size_ == 0) return false;
    for (size_t slot = Home(key);; slot = (slot + 1) & mask_) {
      if (slots_[slot] == key) return true;
      if (slots_[slot] == kEmpty) return false;
    }
  }

  // Adds `key` (non-zero); returns false when it was already present.
  bool insert(PairKey key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t slot = Home(key);
    for (; slots_[slot] != kEmpty; slot = (slot + 1) & mask_) {
      if (slots_[slot] == key) return false;
    }
    slots_[slot] = key;
    ++size_;
    return true;
  }

  // Removes `key`; returns false when it was absent.
  bool erase(PairKey key);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr PairKey kEmpty = 0;

  // Folds the smaller id into the larger one's bits, then takes the top
  // bits of a Fibonacci product: consecutive ids spread over the table.
  size_t Home(PairKey key) const {
    return static_cast<size_t>(((key ^ (key >> 32)) * 0x9E3779B97F4A7C15ULL) >>
                               shift_);
  }

  // Doubles the table (the first insert allocates 16 slots) and re-inserts
  // every key.
  void Grow();

  std::vector<PairKey> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace progres

#endif  // PROGRES_MODEL_PAIR_SET_H_
