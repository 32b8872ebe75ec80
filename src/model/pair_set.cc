#include "model/pair_set.h"

#include <utility>

namespace progres {

bool PairSet::erase(PairKey key) {
  if (size_ == 0) return false;
  size_t hole = Home(key);
  while (slots_[hole] != key) {
    if (slots_[hole] == kEmpty) return false;
    hole = (hole + 1) & mask_;
  }
  // Backward shift: walk the rest of the probe run and move back every key
  // whose home does not lie cyclically in (hole, slot] — a lookup for it
  // starts at or before the hole and would otherwise stop there.
  for (size_t slot = (hole + 1) & mask_; slots_[slot] != kEmpty;
       slot = (slot + 1) & mask_) {
    const size_t home = Home(slots_[slot]);
    if (((slot - home) & mask_) >= ((slot - hole) & mask_)) {
      slots_[hole] = slots_[slot];
      hole = slot;
    }
  }
  slots_[hole] = kEmpty;
  --size_;
  return true;
}

void PairSet::Grow() {
  std::vector<PairKey> old = std::move(slots_);
  const size_t capacity = old.empty() ? 16 : 2 * old.size();
  slots_.assign(capacity, kEmpty);
  mask_ = capacity - 1;
  shift_ = 64;
  for (size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (const PairKey key : old) {
    if (key == kEmpty) continue;
    size_t slot = Home(key);
    while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
    slots_[slot] = key;
  }
}

}  // namespace progres
