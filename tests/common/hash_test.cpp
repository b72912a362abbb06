/// common/hash.h: Fnv1a::mix_words sees every byte of its input, and
/// CachedHash is computed once, kept by a copy, carried by a move that
/// leaves the source to compute again.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace mystique {
namespace {

uint64_t
words_hash(const std::vector<unsigned char>& bytes)
{
    Fnv1a h;
    h.mix_words(bytes.data(), bytes.size());
    return h.value();
}

TEST(Fnv1aMixWords, EveryBitOfEveryByteChangesTheValue)
{
    for (const std::size_t len : {0, 1, 7, 8, 9, 15, 16, 100}) {
        std::vector<unsigned char> bytes(len);
        for (std::size_t i = 0; i < len; ++i)
            bytes[i] = static_cast<unsigned char>(i * 37 + 11);
        const uint64_t base = words_hash(bytes);
        EXPECT_EQ(words_hash(std::vector<unsigned char>(bytes)), base) << "len " << len;
        for (std::size_t i = 0; i < len; ++i) {
            for (int bit = 0; bit < 8; ++bit) {
                std::vector<unsigned char> flipped = bytes;
                flipped[i] ^= static_cast<unsigned char>(1u << bit);
                EXPECT_NE(words_hash(flipped), base)
                    << "len " << len << " byte " << i << " bit " << bit;
            }
        }
    }
}

TEST(Fnv1aMixWords, MixesWholeWordsThenTheTailBytewise)
{
    // Under eight bytes there is no word: mix_words is mix_bytes.
    const std::vector<unsigned char> bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
    Fnv1a tail_only;
    tail_only.mix_bytes(bytes.data(), 7);
    Fnv1a words;
    words.mix_words(bytes.data(), 7);
    EXPECT_EQ(words.value(), tail_only.value());

    // Eleven bytes: one word step (xor, multiply, fold), then three byte
    // steps.
    uint64_t w = 0;
    std::memcpy(&w, bytes.data(), sizeof(w));
    uint64_t expected = (0xcbf29ce484222325ull ^ w) * 0x100000001b3ull;
    expected ^= expected >> 32;
    for (std::size_t i = 8; i < bytes.size(); ++i)
        expected = (expected ^ bytes[i]) * 0x100000001b3ull;
    EXPECT_EQ(words_hash(bytes), expected);
}

TEST(Fnv1aMixWords, EqualFlipsInTwoWordsDoNotCancel)
{
    // Flipping the same bit of two different words: a multiply alone keeps
    // a bit-63 difference at bit 63, so two of them would cancel.
    constexpr std::size_t kWords = 12;
    std::vector<uint64_t> words(kWords);
    for (std::size_t i = 0; i < kWords; ++i)
        words[i] = 0x9e3779b97f4a7c15ull * (i + 1);
    const auto hash = [](const std::vector<uint64_t>& ws) {
        Fnv1a h;
        h.mix_words(ws.data(), ws.size() * sizeof(uint64_t));
        return h.value();
    };
    const uint64_t base = hash(words);
    for (int bit = 0; bit < 64; ++bit) {
        for (std::size_t i = 0; i < kWords; ++i) {
            for (std::size_t j = i + 1; j < kWords; ++j) {
                std::vector<uint64_t> flipped = words;
                flipped[i] ^= uint64_t{1} << bit;
                flipped[j] ^= uint64_t{1} << bit;
                EXPECT_NE(hash(flipped), base) << "bit " << bit << " words " << i << ", " << j;
            }
        }
    }
}

TEST(CachedHash, CopiesKeepAndMovesCarryTheCachedValue)
{
    int computed = 0;
    const auto compute = [&computed] {
        ++computed;
        return uint64_t{42};
    };

    CachedHash a;
    EXPECT_EQ(a.get(compute), 42u);
    EXPECT_EQ(a.get(compute), 42u);
    EXPECT_EQ(computed, 1);

    CachedHash copy = a;
    EXPECT_EQ(copy.get(compute), 42u);
    CachedHash assigned;
    assigned = a;
    EXPECT_EQ(assigned.get(compute), 42u);
    EXPECT_EQ(computed, 1);

    CachedHash moved = std::move(a);
    EXPECT_EQ(moved.get(compute), 42u);
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(a.get(compute), 42u); // recomputed
    EXPECT_EQ(computed, 2);

    CachedHash move_assigned;
    move_assigned = std::move(copy);
    EXPECT_EQ(move_assigned.get(compute), 42u);
    EXPECT_EQ(computed, 2);
    EXPECT_EQ(copy.get(compute), 42u); // recomputed
    EXPECT_EQ(computed, 3);

    moved.reset();
    EXPECT_EQ(moved.get(compute), 42u);
    EXPECT_EQ(computed, 4);
}

} // namespace
} // namespace mystique
