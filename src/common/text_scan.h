// Host byte kernels shared by the text utilities (wc, grep) and the
// completion programs that reduce the same bytes inside the kernel.
//
// These loops cost host time only: the simulated CPU of an app or program is
// charged per byte from its declared cost model (AppCpuCosts, ProgSpec), never
// from how long these functions take. They are free to change as long as they
// return the same answers.
#ifndef SLEDS_SRC_COMMON_TEXT_SCAN_H_
#define SLEDS_SRC_COMMON_TEXT_SCAN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace sled {

// wc's whitespace class: ' ', '\t', '\n', '\v', '\f', '\r'. Every other byte,
// NUL and bytes >= 0x80 included, is part of a word.
inline bool IsTextSpace(char c) {
  const auto u = static_cast<uint8_t>(c);
  return u == ' ' || static_cast<uint8_t>(u - '\t') <= '\r' - '\t';
}

struct TextCount {
  int64_t lines = 0;      // '\n' bytes
  int64_t words = 0;      // word starts: a non-space byte after a space
  bool in_word = false;   // whether the last byte is inside a word
};

// Number of '\n' bytes in `data`.
int64_t CountNewlines(std::string_view data);

// Counts lines and word starts in `data`, continuing the word state
// `in_word` of the byte before it (false at the start of a file). Feeding a
// file through in pieces, carrying `in_word`, gives the one-pass counts.
TextCount CountText(std::string_view data, bool in_word);

// Boyer-Moore-Horspool search for one fixed needle. The skip table is built
// once, so repeated searches pay only the scan.
class TextSearcher {
 public:
  explicit TextSearcher(std::string_view needle);

  // Position of the first occurrence of the needle starting at or after
  // `from`, or std::string_view::npos. An empty needle never matches.
  size_t Find(std::string_view haystack, size_t from = 0) const;

 private:
  std::string needle_;
  std::array<size_t, 256> shift_{};
};

}  // namespace sled

#endif  // SLEDS_SRC_COMMON_TEXT_SCAN_H_
