#include "hash/md5.hpp"

#include <cstring>

#include "common/check.hpp"

namespace cca::hash {

namespace {

// Per-round left-rotate amounts (RFC 1321, Sec. 3.4).
constexpr int kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(2^32 * |sin(i + 1)|), precomputed per the RFC.
constexpr std::uint32_t kSine[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

std::uint32_t rotl(std::uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

Md5::Md5() : a0_(0x67452301), b0_(0xefcdab89), c0_(0x98badcfe), d0_(0x10325476) {}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);

  // The four rounds as separate loops, so each step's auxiliary function
  // and message index are fixed once the loop is unrolled.
  std::uint32_t a = a0_, b = b0_, c = c0_, d = d0_;
  const auto step = [&](std::uint32_t f, int i, int g) {
    f += a + kSine[i] + m[g];
    a = d;
    d = c;
    c = b;
    b += rotl(f, kShift[i]);
  };
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) step((b & c) | (~b & d), i, i);
#pragma GCC unroll 16
  for (int i = 16; i < 32; ++i) step((d & b) | (~d & c), i, (5 * i + 1) % 16);
#pragma GCC unroll 16
  for (int i = 32; i < 48; ++i) step(b ^ c ^ d, i, (3 * i + 5) % 16);
#pragma GCC unroll 16
  for (int i = 48; i < 64; ++i) step(c ^ (b | ~d), i, (7 * i) % 16);
  a0_ += a;
  b0_ += b;
  c0_ += c;
  d0_ += d;
}

void Md5::update(const void* data, std::size_t len) {
  CCA_CHECK_MSG(!finished_, "Md5::update after finish");
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, std::size_t{64} - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == 64) {
      process_block(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Md5::Digest Md5::finish() {
  if (finished_) return final_digest_;

  // Padding, in place: a single 0x80 byte, zeros until 8 bytes short of a
  // block boundary (spilling into a second block when the buffer has no
  // room for the length), then the message bit length little-endian.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    process_block(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  process_block(buffer_);
  buffer_len_ = 0;

  store_le32(final_digest_.data() + 0, a0_);
  store_le32(final_digest_.data() + 4, b0_);
  store_le32(final_digest_.data() + 8, c0_);
  store_le32(final_digest_.data() + 12, d0_);
  finished_ = true;
  return final_digest_;
}

Md5::Digest Md5::digest(std::string_view s) {
  Md5 md5;
  md5.update(s);
  return md5.finish();
}

std::string Md5::to_hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint8_t byte : d) {
    out += kHex[byte >> 4];
    out += kHex[byte & 0xF];
  }
  return out;
}

std::uint64_t Md5::digest64(std::string_view s) {
  const Digest d = digest(s);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
}

}  // namespace cca::hash
