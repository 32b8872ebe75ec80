#include "blocking/blocking_function.h"

#include "common/string_util.h"

namespace progres {

std::string BlockingConfig::Key(int f, int level, const Entity& e) const {
  const FamilySpec& spec = families_[static_cast<size_t>(f)];
  const std::string_view value =
      e.attribute(static_cast<size_t>(spec.attribute_index));
  const size_t len =
      static_cast<size_t>(spec.prefix_lens[static_cast<size_t>(level - 1)]);
  return ToLowerAscii(Prefix(value, len));
}

namespace {

char LowerAscii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

std::string BlockingConfig::Path(int f, int level, const Entity& e) const {
  PathChain chain;
  BuildChain(f, e, &chain, level);
  return std::move(chain.path);
}

void BlockingConfig::BuildChain(int f, const Entity& e, PathChain* chain,
                                int levels) const {
  const FamilySpec& spec = families_[static_cast<size_t>(f)];
  const std::string_view value =
      e.attribute(static_cast<size_t>(spec.attribute_index));
  if (levels < 0) levels = spec.levels();
  chain->path.clear();
  chain->ends.clear();
  for (int l = 1; l <= levels; ++l) {
    if (l > 1) chain->path.push_back(kPathSeparator);
    for (const char c : Prefix(
             value,
             static_cast<size_t>(spec.prefix_lens[static_cast<size_t>(l - 1)]))) {
      chain->path.push_back(LowerAscii(c));
    }
    chain->ends.push_back(chain->path.size());
  }
}

bool BlockingConfig::PathEquals(int f, int level, const Entity& e,
                                std::string_view path) const {
  const FamilySpec& spec = families_[static_cast<size_t>(f)];
  const std::string_view value =
      e.attribute(static_cast<size_t>(spec.attribute_index));
  size_t pos = 0;
  for (int l = 1; l <= level; ++l) {
    if (l > 1) {
      if (pos >= path.size() || path[pos] != kPathSeparator) return false;
      ++pos;
    }
    const std::string_view key = Prefix(
        value, static_cast<size_t>(spec.prefix_lens[static_cast<size_t>(l - 1)]));
    if (path.size() - pos < key.size()) return false;
    for (const char c : key) {
      if (path[pos++] != LowerAscii(c)) return false;
    }
  }
  return pos == path.size();
}

}  // namespace progres
