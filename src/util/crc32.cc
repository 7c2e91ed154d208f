#include "util/crc32.h"

#include <array>

namespace semdrift {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial 0xEDB88320,
/// built at compile time. tables[0] is the classic byte-at-a-time table;
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so one step
/// folds eight input bytes with eight independent lookups.
constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

/// Little-endian load assembled from bytes, so the kernel gives the same
/// values on any host byte order (compilers fold it into one load on x86).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32::Update(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = state_;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ c;
    const uint32_t hi = LoadLe32(bytes + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    c = kTables[0][(c ^ *bytes) & 0xffu] ^ (c >> 8);
  }
  state_ = c;
}

void Crc32::Update(std::string_view data) { Update(data.data(), data.size()); }

uint32_t Crc32Of(std::string_view data) {
  Crc32 crc;
  crc.Update(data);
  return crc.value();
}

}  // namespace semdrift
