#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mapreduce/serde.h"

namespace progres {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  const uint64_t values[] = {0,
                             1,
                             0x7f,
                             0x80,
                             0x3fff,
                             0x4000,
                             1234567890,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t value : values) {
    std::string buffer;
    PutVarint64(value, &buffer);
    EXPECT_EQ(static_cast<int>(buffer.size()), VarintSize(value));
    size_t offset = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buffer, &offset, &decoded)) << value;
    EXPECT_EQ(decoded, value);
    EXPECT_EQ(offset, buffer.size());
  }
}

TEST(VarintTest, RandomRoundTrip) {
  Rng rng(160);
  std::string buffer;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t value = rng.NextU64() >> rng.UniformU64(64);
    values.push_back(value);
    PutVarint64(value, &buffer);
  }
  size_t offset = 0;
  for (uint64_t expected : values) {
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buffer, &offset, &decoded));
    EXPECT_EQ(decoded, expected);
  }
  EXPECT_EQ(offset, buffer.size());
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buffer;
  PutVarint64(1234567890123ULL, &buffer);
  buffer.pop_back();
  size_t offset = 0;
  uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint64(buffer, &offset, &decoded));
}

TEST(VarintTest, TenByteBoundary) {
  // The maximum uint64 needs the full ten wire bytes; the ninth byte must
  // still set its continuation bit.
  std::string buffer;
  PutVarint64(std::numeric_limits<uint64_t>::max(), &buffer);
  ASSERT_EQ(buffer.size(), 10u);
  EXPECT_EQ(VarintSize(std::numeric_limits<uint64_t>::max()), 10);
  EXPECT_NE(buffer[8] & 0x80, 0);
  EXPECT_EQ(buffer[9], '\1');
  size_t offset = 0;
  uint64_t decoded = 0;
  ASSERT_TRUE(GetVarint64(buffer, &offset, &decoded));
  EXPECT_EQ(decoded, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(offset, 10u);
}

TEST(VarintTest, OverlongTenthByteRejected) {
  // A tenth byte can only contribute the 64th bit (0 or 1). Any other
  // payload would overflow uint64 and must be rejected, not wrapped.
  for (int tenth : {0x02, 0x40, 0x7e, 0x7f}) {
    std::string buffer(9, '\x80');
    buffer.push_back(static_cast<char>(tenth));
    size_t offset = 0;
    uint64_t decoded = 0;
    EXPECT_FALSE(GetVarint64(buffer, &offset, &decoded))
        << "tenth byte " << tenth;
  }
  // The two legal tenth bytes still decode.
  for (int tenth : {0x00, 0x01}) {
    std::string buffer(9, '\x80');
    buffer.push_back(static_cast<char>(tenth));
    size_t offset = 0;
    uint64_t decoded = 0;
    EXPECT_TRUE(GetVarint64(buffer, &offset, &decoded))
        << "tenth byte " << tenth;
  }
}

TEST(VarintTest, UnterminatedInputFails) {
  // Ten continuation bytes and no terminator: the decoder must stop with
  // an error rather than read past the varint's maximum width.
  const std::string buffer(10, '\x80');
  size_t offset = 0;
  uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint64(buffer, &offset, &decoded));
}

TEST(ZigZagTest, RoundTrip) {
  const int64_t values[] = {0, -1, 1, -2, 2, 1000000, -1000000,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t value : values) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(value)), value);
  }
  // Small magnitudes stay small on the wire.
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
}

TEST(StringTest, RoundTrip) {
  std::string buffer;
  PutString("hello", &buffer);
  PutString("", &buffer);
  PutString(std::string(1000, 'x'), &buffer);
  size_t offset = 0;
  std::string value;
  ASSERT_TRUE(GetString(buffer, &offset, &value));
  EXPECT_EQ(value, "hello");
  ASSERT_TRUE(GetString(buffer, &offset, &value));
  EXPECT_EQ(value, "");
  ASSERT_TRUE(GetString(buffer, &offset, &value));
  EXPECT_EQ(value, std::string(1000, 'x'));
  EXPECT_EQ(offset, buffer.size());
}

TEST(StringTest, EmbeddedSeparatorsSurvive) {
  std::string payload = "a\tb\nc";
  payload.push_back('\0');
  payload += "d";
  std::string buffer;
  PutString(payload, &buffer);
  size_t offset = 0;
  std::string value;
  ASSERT_TRUE(GetString(buffer, &offset, &value));
  EXPECT_EQ(value, payload);
}

TEST(StringTest, TruncatedPayloadFails) {
  std::string buffer;
  PutString("hello world", &buffer);
  buffer.resize(buffer.size() - 3);
  size_t offset = 0;
  std::string value;
  EXPECT_FALSE(GetString(buffer, &offset, &value));
}

TEST(StringTest, HugeClaimedLengthFailsCleanly) {
  // A corrupt length prefix claiming nearly 2^64 bytes must fail without
  // overflowing the offset arithmetic or attempting the allocation.
  std::string buffer;
  PutVarint64(std::numeric_limits<uint64_t>::max() - 1, &buffer);
  buffer += "tiny";
  size_t offset = 0;
  std::string value;
  EXPECT_FALSE(GetString(buffer, &offset, &value));
}

TEST(StringTest, MissingLengthPrefixFails) {
  size_t offset = 0;
  std::string value;
  EXPECT_FALSE(GetString("", &offset, &value));
}

// ---- KvCodec: the shuffle data plane's per-type wire format ----

TEST(KvCodecTest, IntegralRoundTripIncludingNegatives) {
  // Integral keys ride as the two's-complement bit pattern in a varint;
  // negatives round-trip through the uint64 cast unchanged.
  const int64_t values[] = {0, 1, -1, 1234567890, -1234567890,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  std::string buffer;
  for (int64_t value : values) KvCodec<int64_t>::Encode(value, &buffer);
  size_t offset = 0;
  for (int64_t expected : values) {
    int64_t decoded = 0;
    ASSERT_TRUE(KvCodec<int64_t>::Decode(buffer, &offset, &decoded));
    EXPECT_EQ(decoded, expected);
  }
  EXPECT_EQ(offset, buffer.size());
}

TEST(KvCodecTest, BoolAndStringRoundTrip) {
  const std::string payload("key with \0 inside", 17);
  std::string buffer;
  KvCodec<bool>::Encode(true, &buffer);
  KvCodec<std::string>::Encode(payload, &buffer);
  KvCodec<bool>::Encode(false, &buffer);
  size_t offset = 0;
  bool flag = false;
  std::string text;
  ASSERT_TRUE(KvCodec<bool>::Decode(buffer, &offset, &flag));
  EXPECT_TRUE(flag);
  ASSERT_TRUE(KvCodec<std::string>::Decode(buffer, &offset, &text));
  EXPECT_EQ(text, payload);
  ASSERT_TRUE(KvCodec<bool>::Decode(buffer, &offset, &flag));
  EXPECT_FALSE(flag);
  EXPECT_EQ(offset, buffer.size());
}

TEST(KvCodecTest, RandomKvStreamRoundTrip) {
  // Fuzz the exact access pattern of the encoded shuffle plane: a mixed
  // stream of (int key, string value) records appended back to back, then
  // decoded sequentially. Every record must come back verbatim and every
  // truncation of the stream must fail rather than misparse.
  Rng rng(161);
  std::vector<std::pair<int64_t, std::string>> records;
  std::string buffer;
  for (int i = 0; i < 500; ++i) {
    const int64_t key = static_cast<int64_t>(rng.NextU64());
    std::string value(rng.UniformU64(40), '\0');
    for (char& c : value) c = static_cast<char>(rng.UniformU64(256));
    KvCodec<int64_t>::Encode(key, &buffer);
    KvCodec<std::string>::Encode(value, &buffer);
    records.emplace_back(key, std::move(value));
  }
  // A final record of known width (10-byte key varint + 12-byte string) so
  // the truncation sweep below always cuts strictly inside it.
  KvCodec<int64_t>::Encode(-1, &buffer);
  KvCodec<std::string>::Encode("tail-record", &buffer);
  records.emplace_back(-1, "tail-record");
  size_t offset = 0;
  for (const auto& [key, value] : records) {
    int64_t decoded_key = 0;
    std::string decoded_value;
    ASSERT_TRUE(KvCodec<int64_t>::Decode(buffer, &offset, &decoded_key));
    ASSERT_TRUE(
        KvCodec<std::string>::Decode(buffer, &offset, &decoded_value));
    EXPECT_EQ(decoded_key, key);
    EXPECT_EQ(decoded_value, value);
  }
  EXPECT_EQ(offset, buffer.size());

  // Chopping the stream anywhere inside the final record must surface as a
  // decode error, never as a silent short read.
  for (size_t cut = offset - 1; cut > offset - 8; --cut) {
    const std::string_view clipped(buffer.data(), cut);
    size_t pos = 0;
    bool ok = true;
    while (ok && pos < clipped.size()) {
      int64_t k = 0;
      std::string v;
      ok = KvCodec<int64_t>::Decode(clipped, &pos, &k) &&
           KvCodec<std::string>::Decode(clipped, &pos, &v);
    }
    EXPECT_FALSE(ok) << "cut at " << cut;
  }
}

// ---- FNV-1a: the default partitioner's hash ----

TEST(Fnv1aTest, KnownVectors) {
  // Reference values for the 64-bit FNV-1a parameters; pinning them pins
  // the default partition assignment across platforms and builds.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1aTest, ChainingMatchesOneShot) {
  const std::string data = "partition key material";
  const uint64_t whole = Fnv1a64(data);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, data.size()}) {
    EXPECT_EQ(Fnv1a64(data.substr(cut), Fnv1a64(data.substr(0, cut))), whole)
        << "cut at " << cut;
  }
}

TEST(Crc32Test, KnownVectors) {
  // The CRC-32/IEEE check value (reflected 0xEDB88320 polynomial).
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xe8b7be43u);
}

TEST(Crc32Test, ChainingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{10}, data.size()}) {
    const uint32_t chained =
        Crc32(data.substr(cut), Crc32(data.substr(0, cut)));
    EXPECT_EQ(chained, whole) << "cut at " << cut;
  }
}

// CRC-32 by its definition, one bit at a time: the reference the
// table-driven Crc32 must equal.
uint32_t BitwiseCrc32(std::string_view data, uint32_t crc) {
  uint32_t c = ~crc;
  for (const char ch : data) {
    c ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

TEST(Crc32Test, MatchesBitwiseReferenceOnRandomBuffers) {
  Rng rng(162);
  // Slices of one backing buffer starting at every offset mod 8, so the
  // eight-byte loop sees unaligned starts and every tail length.
  std::string backing(8 + 300, '\0');
  for (int i = 0; i < 20000; ++i) {
    const size_t start = static_cast<size_t>(rng.UniformU64(8));
    const size_t len = static_cast<size_t>(rng.UniformU64(301));
    for (size_t k = start; k < start + len; ++k) {
      backing[k] = static_cast<char>(rng.NextU64());
    }
    const std::string_view data(backing.data() + start, len);
    const uint32_t seed =
        i % 4 == 0 ? 0u : static_cast<uint32_t>(rng.NextU64());
    const uint32_t expected = BitwiseCrc32(data, seed);
    ASSERT_EQ(Crc32(data, seed), expected)
        << "case " << i << ": start " << start << ", length " << len;
    const size_t cut = static_cast<size_t>(rng.UniformU64(len + 1));
    ASSERT_EQ(Crc32(data.substr(cut), Crc32(data.substr(0, cut), seed)),
              expected)
        << "case " << i << ": chained at " << cut << " of " << len;
  }
}

TEST(Crc32Test, SingleBitFlipChangesTheChecksum) {
  std::string data = "partition payload";
  const uint32_t clean = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 1;
    EXPECT_NE(Crc32(data), clean) << "flip at " << i;
    data[i] ^= 1;
  }
}

}  // namespace
}  // namespace progres
