#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "similarity/levenshtein.h"

namespace progres {
namespace {

// The classic two-row dynamic program, O(|a|*|b|): the reference the
// bit-parallel kernel is held to.
int64_t ReferenceLevenshtein(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<int64_t> row(n + 1);
  for (size_t i = 0; i <= n; ++i) row[i] = static_cast<int64_t>(i);
  for (size_t j = 1; j <= m; ++j) {
    int64_t diag = row[0];
    row[0] = static_cast<int64_t>(j);
    for (size_t i = 1; i <= n; ++i) {
      const int64_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, subst});
    }
  }
  return row[n];
}

double ReferenceEditSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(ReferenceLevenshtein(a, b)) /
                   static_cast<double>(longest);
}

TEST(LevenshteinTest, IdenticalStrings) {
  EXPECT_EQ(Levenshtein("kitten", "kitten"), 0);
  EXPECT_EQ(Levenshtein("", ""), 0);
}

TEST(LevenshteinTest, ClassicExamples) {
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3);
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2);
  EXPECT_EQ(Levenshtein("intention", "execution"), 5);
}

TEST(LevenshteinTest, EmptyVsNonEmpty) {
  EXPECT_EQ(Levenshtein("", "abc"), 3);
  EXPECT_EQ(Levenshtein("abc", ""), 3);
}

TEST(LevenshteinTest, Symmetric) {
  EXPECT_EQ(Levenshtein("abcdef", "azced"), Levenshtein("azced", "abcdef"));
}

TEST(LevenshteinTest, SingleEdits) {
  EXPECT_EQ(Levenshtein("abc", "axc"), 1);  // substitution
  EXPECT_EQ(Levenshtein("abc", "ac"), 1);   // deletion
  EXPECT_EQ(Levenshtein("abc", "abxc"), 1); // insertion
}

TEST(LevenshteinTest, WordBoundaryPatterns) {
  // Patterns filling exactly one word, one bit past it, and two words.
  for (const size_t n : {63u, 64u, 65u, 127u, 128u, 129u}) {
    const std::string a(n, 'x');
    EXPECT_EQ(Levenshtein(a, ""), static_cast<int64_t>(n));
    EXPECT_EQ(Levenshtein(a, a + "y"), 1);
    EXPECT_EQ(Levenshtein(a, std::string(n, 'y')), static_cast<int64_t>(n));
    std::string b = a;
    b[n / 2] = 'y';
    EXPECT_EQ(Levenshtein(a, b), 1) << "n=" << n;
  }
}

TEST(LevenshteinTest, HighAndNulBytes) {
  const std::string a("\x00\xff\x80z", 4);
  const std::string b("\xff\x00\x80", 3);
  EXPECT_EQ(Levenshtein(a, b), ReferenceLevenshtein(a, b));
  EXPECT_EQ(Levenshtein(a, a), 0);
}

TEST(EditSimilarityTest, Bounds) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
}

TEST(EditSimilarityTest, PartialOverlap) {
  // dist("abcd", "abxd") = 1, max len 4 -> 0.75.
  EXPECT_DOUBLE_EQ(EditSimilarity("abcd", "abxd"), 0.75);
}

// ---- Differential test against the reference DP ----

// A random string of `length` bytes over `alphabet` consecutive byte values
// starting at `base` (wrapping past 0xff), so alphabets of 256 cover every
// byte and shifted small alphabets reach bytes >= 0x80.
std::string RandomBytes(Rng* rng, size_t length, int alphabet, int base) {
  std::string s;
  s.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    const int symbol = base + static_cast<int>(rng->UniformU64(
                                  static_cast<uint64_t>(alphabet)));
    s.push_back(static_cast<char>(static_cast<unsigned char>(symbol & 0xff)));
  }
  return s;
}

// A near-duplicate of `s`: a few random substitutions, insertions and
// deletions drawn from the same alphabet.
std::string Mutate(Rng* rng, std::string s, int alphabet, int base) {
  const int edits = static_cast<int>(rng->UniformU64(6));
  for (int e = 0; e < edits; ++e) {
    const std::string c = RandomBytes(rng, 1, alphabet, base);
    const size_t pos = s.empty() ? 0 : rng->UniformU64(s.size());
    switch (rng->UniformU64(3)) {
      case 0:
        if (!s.empty()) s[pos] = c[0];
        break;
      case 1:
        s.insert(pos, c);
        break;
      default:
        if (!s.empty()) s.erase(pos, 1);
        break;
    }
  }
  return s;
}

// Holds Levenshtein and EditSimilarity to exact equality with the reference
// over `count` pairs drawn by `draw`. Returns the number of mismatches so
// one failure does not flood the log.
template <typename Draw>
int Compare(int count, Draw draw) {
  int mismatches = 0;
  for (int i = 0; i < count; ++i) {
    const auto [a, b] = draw();
    const int64_t expected = ReferenceLevenshtein(a, b);
    const int64_t got = Levenshtein(a, b);
    const double sim = EditSimilarity(a, b);
    const double expected_sim = ReferenceEditSimilarity(a, b);
    if (got != expected || sim != expected_sim) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "|a|=" << a.size() << " |b|=" << b.size()
                      << " expected " << expected << " got " << got;
      }
    }
  }
  return mismatches;
}

constexpr int kAlphabets[] = {2, 4, 26, 256};
constexpr int kBases[] = {0x61, 0xf0, 0x7e, 0x00};

int Alphabet(Rng* rng) { return kAlphabets[rng->UniformU64(4)]; }
int Base(Rng* rng) { return kBases[rng->UniformU64(4)]; }

TEST(LevenshteinDifferentialTest, ShortRandomPairs) {
  Rng rng(101);
  const auto draw = [&] {
    const int alphabet = Alphabet(&rng);
    const int base = Base(&rng);
    std::string a = RandomBytes(&rng, rng.UniformU64(71), alphabet, base);
    std::string b = RandomBytes(&rng, rng.UniformU64(71), alphabet, base);
    return std::make_pair(std::move(a), std::move(b));
  };
  EXPECT_EQ(Compare(150000, draw), 0);
}

TEST(LevenshteinDifferentialTest, WordBoundaryLengths) {
  // Patterns of 63/64/65/127/128/129 bytes against texts of nearby length:
  // the single-word limit and the multi-word carry across one and two
  // block seams. The random texts differ from the pattern in their first
  // and last byte, so stripping a shared prefix or suffix cannot shorten
  // the pattern off the boundary; the near-duplicates cover the stripping.
  constexpr size_t kBoundaries[] = {63, 64, 65, 127, 128, 129};
  Rng rng(202);
  const auto draw = [&] {
    const int alphabet = Alphabet(&rng);
    const int base = Base(&rng);
    const size_t n = kBoundaries[rng.UniformU64(6)];
    std::string a = RandomBytes(&rng, n, alphabet, base);
    std::string b;
    if (rng.UniformU64(2) == 0) {
      b = RandomBytes(&rng, n + rng.UniformU64(80), alphabet, base);
      b.front() = static_cast<char>(a.front() ^ 1);
      b.back() = static_cast<char>(a.back() ^ 1);
    } else {
      b = Mutate(&rng, a, alphabet, base);
    }
    if (rng.UniformU64(2) == 0) std::swap(a, b);
    return std::make_pair(std::move(a), std::move(b));
  };
  EXPECT_EQ(Compare(24000, draw), 0);
}

TEST(LevenshteinDifferentialTest, LongRandomPairs) {
  Rng rng(303);
  const auto draw = [&] {
    const int alphabet = Alphabet(&rng);
    const int base = Base(&rng);
    std::string a = RandomBytes(&rng, rng.UniformU64(401), alphabet, base);
    std::string b = RandomBytes(&rng, rng.UniformU64(401), alphabet, base);
    return std::make_pair(std::move(a), std::move(b));
  };
  EXPECT_EQ(Compare(4000, draw), 0);
}

TEST(LevenshteinDifferentialTest, NearDuplicatePairs) {
  // Few edits apart — the pairs a resolve loop mostly sees — including a
  // shared prefix and suffix for the stripping to remove.
  Rng rng(404);
  const auto draw = [&] {
    const int alphabet = Alphabet(&rng);
    const int base = Base(&rng);
    const size_t length = rng.UniformU64(8) == 0 ? rng.UniformU64(401)
                                                 : rng.UniformU64(141);
    std::string a = RandomBytes(&rng, length, alphabet, base);
    std::string b = Mutate(&rng, a, alphabet, base);
    return std::make_pair(std::move(a), std::move(b));
  };
  EXPECT_EQ(Compare(30000, draw), 0);
}

}  // namespace
}  // namespace progres
