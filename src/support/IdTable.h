//===- support/IdTable.h - Paged table indexed by a dense id ----*- C++ -*-===//
//
// The state the analyses keep per thread, lock and variable, indexed by the
// id itself. Every id is dense from 0: thread ids are capped at 2^20, and
// variables, locks and labels come from the interner or VELOTRC's per-file
// remap. A lookup is an index, not a hash.
//
// The table is a directory of fixed pages of PageSize entries, each page
// allocated the first time one of its ids is touched, with one presence bit
// per entry. It is paged rather than one flat vector for two reasons:
//
//   - Reference stability. A reference to an entry stays valid across any
//     number of further insertions (pages never move; only the directory
//     of page pointers grows), as with std::unordered_map. The analyses
//     rely on this: a fork or join holds the parent's state while touching
//     the child's.
//   - Bounded memory. A lenient trace may name thread 1048575 and nothing
//     near it. A flat table would pay for every id below it; here the cost
//     is one page per touched range of PageSize ids, plus the directory
//     (one pointer per PageSize ids up to the largest id).
//
// operator[] inserts a default-constructed entry on first touch, like
// std::unordered_map::operator[]. erase() resets the entry and clears its
// bit (the page stays). forEach visits present entries in ascending id
// order, so a snapshot written by it is byte-stable without a sort.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SUPPORT_IDTABLE_H
#define VELO_SUPPORT_IDTABLE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace velo {

template <typename T> class IdTable {
public:
  static constexpr uint32_t PageBits = 8;
  static constexpr uint32_t PageSize = 1u << PageBits;

  /// The entry for Id, default-constructed (and marked present) on first
  /// touch.
  T &operator[](uint32_t Id) {
    Page &P = page(Id);
    uint32_t Slot = Id & (PageSize - 1);
    uint64_t &Word = P.Present[Slot / 64];
    uint64_t Bit = uint64_t(1) << (Slot % 64);
    if (!(Word & Bit)) {
      Word |= Bit;
      ++Count;
    }
    return P.Slots[Slot];
  }

  /// The entry for Id, or null when Id is absent. Never allocates.
  T *find(uint32_t Id) {
    Page *P = pageIfAny(Id);
    uint32_t Slot = Id & (PageSize - 1);
    if (!P || !(P->Present[Slot / 64] & (uint64_t(1) << (Slot % 64))))
      return nullptr;
    return &P->Slots[Slot];
  }

  /// Reset Id's entry to a default T and mark it absent. Returns whether it
  /// was present.
  bool erase(uint32_t Id) {
    Page *P = pageIfAny(Id);
    uint32_t Slot = Id & (PageSize - 1);
    uint64_t Bit = uint64_t(1) << (Slot % 64);
    if (!P || !(P->Present[Slot / 64] & Bit))
      return false;
    P->Present[Slot / 64] &= ~Bit;
    P->Slots[Slot] = T();
    --Count;
    return true;
  }

  /// Number of present entries.
  size_t size() const { return Count; }

  /// Drop every entry and page.
  void clear() {
    Pages.clear();
    Count = 0;
  }

  /// Pages allocated so far (each holds PageSize entries).
  size_t pagesAllocated() const {
    size_t N = 0;
    for (const std::unique_ptr<Page> &P : Pages)
      N += P != nullptr;
    return N;
  }

  /// Visit(Id, const T &) for every present entry, in ascending id order.
  /// Visit must not insert into or erase from this table.
  template <typename Fn> void forEach(Fn Visit) const {
    for (size_t PI = 0; PI < Pages.size(); ++PI) {
      const Page *P = Pages[PI].get();
      if (!P)
        continue;
      for (uint32_t W = 0; W < PageSize / 64; ++W) {
        for (uint64_t Bits = P->Present[W]; Bits != 0; Bits &= Bits - 1) {
          uint32_t Slot = W * 64 + static_cast<uint32_t>(__builtin_ctzll(Bits));
          Visit(static_cast<uint32_t>(PI << PageBits) + Slot, P->Slots[Slot]);
        }
      }
    }
  }

private:
  struct Page {
    std::array<uint64_t, PageSize / 64> Present{};
    std::array<T, PageSize> Slots{};
  };

  Page *pageIfAny(uint32_t Id) const {
    uint32_t PI = Id >> PageBits;
    return PI < Pages.size() ? Pages[PI].get() : nullptr;
  }

  Page &page(uint32_t Id) {
    if (Page *P = pageIfAny(Id))
      return *P;
    return allocPage(Id >> PageBits);
  }

  Page &allocPage(uint32_t PI) {
    if (PI >= Pages.size())
      Pages.resize(PI + 1);
    Pages[PI] = std::make_unique<Page>();
    return *Pages[PI];
  }

  std::vector<std::unique_ptr<Page>> Pages;
  size_t Count = 0;
};

} // namespace velo

#endif // VELO_SUPPORT_IDTABLE_H
