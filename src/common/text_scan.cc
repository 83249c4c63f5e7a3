#include "src/common/text_scan.h"

#include <cstring>

namespace sled {
namespace {

// The counting loops run over fixed 64-byte blocks: GCC's -O2 cost model
// vectorises a loop only when its trip count is a known multiple of the
// vector width, and a per-block uint8_t sum cannot overflow (64 < 256).
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

TextSearcher::TextSearcher(std::string_view needle) : needle_(needle) {
  shift_.fill(needle_.size());
  for (size_t i = 0; i + 1 < needle_.size(); ++i) {
    shift_[static_cast<uint8_t>(needle_[i])] = needle_.size() - 1 - i;
  }
}

size_t TextSearcher::Find(std::string_view haystack, size_t from) const {
  const size_t m = needle_.size();
  if (m == 0 || haystack.size() < m) {
    return std::string_view::npos;
  }
  const char* p = haystack.data();
  const size_t last = m - 1;
  const char tail = needle_[last];
  const size_t end = haystack.size() - m;  // last position a match can start
  for (size_t pos = from; pos <= end;) {
    const char c = p[pos + last];
    if (c == tail && std::memcmp(p + pos, needle_.data(), last) == 0) {
      return pos;
    }
    pos += shift_[static_cast<uint8_t>(c)];
  }
  return std::string_view::npos;
}

}  // namespace sled
