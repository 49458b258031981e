//===- support/SlotBitset.h - Bitset over small dense ids -------*- C++ -*-===//
//
// A set of small dense ids (Velodrome's node slots, at most 65535) stored as
// one bit per id. The word vector extends only up to the word holding the
// highest member, so an empty set owns no words and a set of low ids owns
// few. Membership is a bit test, erase clears a bit, union is a
// word-parallel OR, and iteration visits members in ascending order.
//
// clear() and erase() keep the vector's capacity: a set that is emptied and
// refilled (a recycled graph slot) does not allocate again.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SUPPORT_SLOTBITSET_H
#define VELO_SUPPORT_SLOTBITSET_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace velo {

class SlotBitset {
public:
  /// Forward iterator over the members, in ascending order.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t *;
    using reference = uint32_t;

    const_iterator() = default;
    uint32_t operator*() const { return Id; }
    const_iterator &operator++() {
      advance(Id + 1);
      return *this;
    }
    bool operator==(const const_iterator &O) const { return Id == O.Id; }
    bool operator!=(const const_iterator &O) const { return Id != O.Id; }

  private:
    friend class SlotBitset;
    const_iterator(const std::vector<uint64_t> *Words, uint32_t From)
        : Words(Words) {
      advance(From);
    }
    /// Move to the first member >= From, or to the end position.
    void advance(uint32_t From) {
      size_t W = From / 64;
      if (W >= Words->size()) {
        Id = end(*Words);
        return;
      }
      uint64_t Bits = (*Words)[W] & (~uint64_t(0) << (From % 64));
      while (Bits == 0) {
        if (++W == Words->size()) {
          Id = end(*Words);
          return;
        }
        Bits = (*Words)[W];
      }
      Id = static_cast<uint32_t>(W * 64 + __builtin_ctzll(Bits));
    }
    static uint32_t end(const std::vector<uint64_t> &Words) {
      return static_cast<uint32_t>(Words.size() * 64);
    }

    const std::vector<uint64_t> *Words = nullptr;
    uint32_t Id = 0;
  };

  /// Insert Id. Returns true if it was newly inserted.
  bool insert(uint32_t Id) {
    size_t W = Id / 64;
    if (W >= Words.size())
      Words.resize(W + 1, 0);
    uint64_t Bit = uint64_t(1) << (Id % 64);
    if (Words[W] & Bit)
      return false;
    Words[W] |= Bit;
    return true;
  }

  /// Remove Id. Returns true if it was present.
  bool erase(uint32_t Id) {
    size_t W = Id / 64;
    uint64_t Bit = uint64_t(1) << (Id % 64);
    if (W >= Words.size() || !(Words[W] & Bit))
      return false;
    Words[W] &= ~Bit;
    trim();
    return true;
  }

  bool contains(uint32_t Id) const {
    size_t W = Id / 64;
    return W < Words.size() && (Words[W] >> (Id % 64) & 1);
  }

  /// Set-union with Other. Returns true if this set grew.
  bool unionWith(const SlotBitset &Other) {
    if (Other.Words.size() > Words.size())
      Words.resize(Other.Words.size(), 0);
    uint64_t Grew = 0;
    for (size_t I = 0; I < Other.Words.size(); ++I) {
      Grew |= Other.Words[I] & ~Words[I];
      Words[I] |= Other.Words[I];
    }
    return Grew != 0;
  }

  void clear() { Words.clear(); }
  bool empty() const { return Words.empty(); }

  /// Number of members (a popcount over the words).
  size_t size() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  /// Heap bytes held by the word vector (its capacity, not its length).
  size_t heapBytes() const { return Words.capacity() * sizeof(uint64_t); }

  const_iterator begin() const { return const_iterator(&Words, 0); }
  const_iterator end() const {
    return const_iterator(&Words, const_iterator::end(Words));
  }

private:
  /// Drop trailing zero words so the vector ends at the highest member.
  void trim() {
    while (!Words.empty() && Words.back() == 0)
      Words.pop_back();
  }

  /// Invariant: empty, or the last word is non-zero.
  std::vector<uint64_t> Words;
};

} // namespace velo

#endif // VELO_SUPPORT_SLOTBITSET_H
