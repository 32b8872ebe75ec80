#include "similarity/levenshtein.h"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace progres {

namespace {

constexpr size_t kWordBits = 64;
constexpr uint64_t kTopBit = uint64_t{1} << (kWordBits - 1);

// One text column of the DP over one 64-row block of the pattern. `pv`/`mv`
// hold the block's positive/negative vertical deltas, `eq` the rows whose
// pattern byte equals the text byte, and `hin` (-1, 0 or +1) the horizontal
// delta entering the block's top row. Returns the horizontal delta leaving
// the row selected by `out_row` (the block's last row, or the pattern's last
// row in the final block).
inline int AdvanceBlock(uint64_t* pv, uint64_t* mv, uint64_t eq, int hin,
                        uint64_t out_row) {
  const uint64_t p = *pv;
  const uint64_t m = *mv;
  const uint64_t hin_neg = static_cast<uint64_t>(hin < 0);
  const uint64_t hin_pos = static_cast<uint64_t>(hin > 0);
  const uint64_t xv = eq | m;
  eq |= hin_neg;
  const uint64_t xh = (((eq & p) + p) ^ p) | eq;
  uint64_t ph = m | ~(xh | p);
  uint64_t mh = p & xh;
  // Branch-free: Ph and Mh never share a set bit.
  const int hout = static_cast<int>((ph & out_row) != 0) -
                   static_cast<int>((mh & out_row) != 0);
  ph = (ph << 1) | hin_pos;
  mh = (mh << 1) | hin_neg;
  *pv = mh | ~(xv | ph);
  *mv = ph & xv;
  return hout;
}

// Pattern of 1..64 bytes: the whole DP column is one word. The match table
// is zeroed only at the byte values the two strings use — the only entries
// ever read.
int64_t SingleWord(std::string_view pattern, std::string_view text) {
  uint64_t peq[256];
  for (const char c : text) peq[static_cast<unsigned char>(c)] = 0;
  for (const char c : pattern) peq[static_cast<unsigned char>(c)] = 0;
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
  }
  const uint64_t last_row = uint64_t{1} << (pattern.size() - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  int64_t score = static_cast<int64_t>(pattern.size());
  for (const char c : text) {
    // Row 0 of the global distance grows by one per column: hin = +1.
    score += AdvanceBlock(&pv, &mv, peq[static_cast<unsigned char>(c)], 1,
                          last_row);
  }
  return score;
}

// Pattern longer than 64 bytes: ceil(n/64) words per column, the horizontal
// delta carried from each block into the next. Rows past the pattern's end
// in the last block are padding; no row depends on a later one, so they
// never disturb the score read at the pattern's last row.
int64_t MultiWord(std::string_view pattern, std::string_view text) {
  const size_t blocks = (pattern.size() + kWordBits - 1) / kWordBits;
  // Match table (256 rows of `blocks` words) followed by the Pv and Mv
  // vectors. Grown on demand, never shrunk: steady state allocates nothing.
  thread_local std::vector<uint64_t> buffer;
  const size_t need = (256 + 2) * blocks;
  if (buffer.size() < need) buffer.resize(need);
  uint64_t* peq = buffer.data();
  uint64_t* pv = peq + 256 * blocks;
  uint64_t* mv = pv + blocks;

  uint64_t zeroed[4] = {0, 0, 0, 0};
  const auto clear_row = [&](char ch) {
    const unsigned char c = static_cast<unsigned char>(ch);
    const uint64_t bit = uint64_t{1} << (c % kWordBits);
    if ((zeroed[c / kWordBits] & bit) != 0) return;
    zeroed[c / kWordBits] |= bit;
    std::fill_n(peq + c * blocks, blocks, uint64_t{0});
  };
  for (const char c : text) clear_row(c);
  for (const char c : pattern) clear_row(c);
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<unsigned char>(pattern[i]) * blocks + i / kWordBits] |=
        uint64_t{1} << (i % kWordBits);
  }
  std::fill_n(pv, blocks, ~uint64_t{0});
  std::fill_n(mv, blocks, uint64_t{0});

  const size_t last = blocks - 1;
  const uint64_t last_row = uint64_t{1} << ((pattern.size() - 1) % kWordBits);
  int64_t score = static_cast<int64_t>(pattern.size());
  for (const char c : text) {
    const uint64_t* eq = peq + static_cast<unsigned char>(c) * blocks;
    int carry = 1;
    for (size_t k = 0; k < last; ++k) {
      carry = AdvanceBlock(&pv[k], &mv[k], eq[k], carry, kTopBit);
    }
    score += AdvanceBlock(&pv[last], &mv[last], eq[last], carry, last_row);
  }
  return score;
}

}  // namespace

int64_t Levenshtein(std::string_view a, std::string_view b) {
  // A shared prefix or suffix never changes the distance.
  size_t prefix = 0;
  const size_t shortest = std::min(a.size(), b.size());
  while (prefix < shortest && a[prefix] == b[prefix]) ++prefix;
  a.remove_prefix(prefix);
  b.remove_prefix(prefix);
  size_t suffix = 0;
  const size_t rest = std::min(a.size(), b.size());
  while (suffix < rest &&
         a[a.size() - 1 - suffix] == b[b.size() - 1 - suffix]) {
    ++suffix;
  }
  a.remove_suffix(suffix);
  b.remove_suffix(suffix);

  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter: the pattern
  if (a.empty()) return static_cast<int64_t>(b.size());
  return a.size() <= kWordBits ? SingleWord(a, b) : MultiWord(a, b);
}

double EditSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  const int64_t d = Levenshtein(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(longest);
}

}  // namespace progres
