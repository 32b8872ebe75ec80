#ifndef PROGRES_SIMILARITY_LEVENSHTEIN_H_
#define PROGRES_SIMILARITY_LEVENSHTEIN_H_

#include <cstdint>
#include <string_view>

namespace progres {

// Computes the exact Levenshtein (edit) distance between `a` and `b` with
// Myers' bit-parallel algorithm in Hyyrö's block formulation: the shorter
// string is the pattern, packed 64 DP rows to a machine word, and each
// character of the longer string advances every word by one column in O(1)
// word operations — O(ceil(min/64) * max) time. A common prefix and suffix
// are stripped first (they never change the distance). Patterns of up to
// 64 bytes run in one word with a stack match table; longer ones reuse a
// per-thread buffer, so no call allocates once the buffer has grown.
// Strings are compared byte by byte.
int64_t Levenshtein(std::string_view a, std::string_view b);

// Normalized edit similarity in [0, 1]: 1 - dist / max(|a|, |b|). Two empty
// strings have similarity 1.
double EditSimilarity(std::string_view a, std::string_view b);

}  // namespace progres

#endif  // PROGRES_SIMILARITY_LEVENSHTEIN_H_
