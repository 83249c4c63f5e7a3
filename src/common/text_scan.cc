#include "src/common/text_scan.h"

#include <cstring>

namespace sled {
namespace {

// The counting loops and the search filter run over fixed 64-byte blocks:
// GCC's -O2 cost model vectorises a loop only when its trip count is a known
// multiple of the vector width, and a per-block uint8_t sum cannot overflow
// (64 < 256).
constexpr size_t kBlock = 64;

}  // namespace

int64_t CountNewlines(std::string_view data) {
  const char* p = data.data();
  const size_t n = data.size();
  int64_t total = 0;
  size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    uint8_t block = 0;
    for (size_t j = 0; j < kBlock; ++j) {
      block += p[i + j] == '\n';
    }
    total += block;
  }
  for (; i < n; ++i) {
    total += p[i] == '\n';
  }
  return total;
}

TextCount CountText(std::string_view data, bool in_word) {
  TextCount c;
  c.lines = CountNewlines(data);
  const char* p = data.data();
  const size_t n = data.size();
  if (n == 0) {
    c.in_word = in_word;
    return c;
  }
  // Byte i starts a word when it is not a space and byte i-1 is; byte 0's
  // predecessor is the carried state.
  c.words = !in_word && !IsTextSpace(p[0]);
  size_t i = 1;
  for (; i + kBlock <= n; i += kBlock) {
    uint8_t block = 0;
    for (size_t j = 0; j < kBlock; ++j) {
      block += IsTextSpace(p[i + j - 1]) & !IsTextSpace(p[i + j]);
    }
    c.words += block;
  }
  for (; i < n; ++i) {
    c.words += IsTextSpace(p[i - 1]) & !IsTextSpace(p[i]);
  }
  c.in_word = !IsTextSpace(p[n - 1]);
  return c;
}

size_t TextSearcher::Find(std::string_view haystack, size_t from) const {
  const size_t m = needle_.size();
  if (m == 0 || haystack.size() < m || from > haystack.size() - m) {
    return std::string_view::npos;
  }
  const char* p = haystack.data();
  const char* needle = needle_.data();
  const char head = needle[0];
  const char tail = needle[m - 1];
  // Start `pos` is a candidate when its first and last bytes match the
  // needle's; only a candidate pays for the full compare.
  auto match_at = [&](size_t pos) {
    return p[pos] == head && p[pos + m - 1] == tail && std::memcmp(p + pos, needle, m) == 0;
  };
  const size_t end = haystack.size() - m + 1;  // one past the last start
  size_t i = from;
  for (; i + kBlock <= end; i += kBlock) {
    // Branch-free over the block so GCC vectorises it. p[i + j + m - 1] is
    // in bounds because every start i + j in the block is below `end`.
    uint8_t candidates = 0;
    for (size_t j = 0; j < kBlock; ++j) {
      candidates |= (p[i + j] == head) & (p[i + j + m - 1] == tail);
    }
    if (candidates != 0) {
      for (size_t j = 0; j < kBlock; ++j) {
        if (match_at(i + j)) {
          return i + j;
        }
      }
    }
  }
  for (; i < end; ++i) {
    if (match_at(i)) {
      return i;
    }
  }
  return std::string_view::npos;
}

}  // namespace sled
