//===- support/InlineVector.h - Vector with inline capacity -----*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector of trivially copyable elements that keeps its first N
/// elements inside the object and spills to the heap only beyond them.
/// Dependence vectors are one entry per common loop level, and nests
/// deeper than four loops are rare, so a per-level array of this kind
/// costs no allocation in practice. The interface is the subset of
/// std::vector the library uses: indexing, iteration, push_back /
/// emplace_back, assign, initializer lists and equality.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_INLINEVECTOR_H
#define PDT_SUPPORT_INLINEVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

namespace pdt {

template <typename T, unsigned N> class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVector copies its elements bytewise");
  static_assert(N > 0, "InlineVector needs inline capacity");

public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  InlineVector() = default;
  InlineVector(size_t Count, const T &Value) { assign(Count, Value); }
  explicit InlineVector(size_t Count) { assign(Count, T()); }
  InlineVector(std::initializer_list<T> Init) {
    assignRange(Init.begin(), Init.size());
  }

  InlineVector(const InlineVector &O) { assignRange(O.data(), O.Size); }
  InlineVector(InlineVector &&O) noexcept { takeFrom(O); }
  InlineVector &operator=(const InlineVector &O) {
    if (this != &O)
      assignRange(O.data(), O.Size);
    return *this;
  }
  InlineVector &operator=(InlineVector &&O) noexcept {
    if (this != &O) {
      release();
      takeFrom(O);
    }
    return *this;
  }
  InlineVector &operator=(std::initializer_list<T> Init) {
    assignRange(Init.begin(), Init.size());
    return *this;
  }
  ~InlineVector() { release(); }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  T *data() { return spilled() ? Heap : inlineData(); }
  const T *data() const { return spilled() ? Heap : inlineData(); }

  T &operator[](size_t I) {
    assert(I < Size && "InlineVector index out of range");
    return data()[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Size && "InlineVector index out of range");
    return data()[I];
  }
  T &back() { return (*this)[Size - 1]; }
  const T &back() const { return (*this)[Size - 1]; }

  iterator begin() { return data(); }
  iterator end() { return data() + Size; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + Size; }

  void push_back(const T &V) {
    if (Size == Cap) {
      T Copy = V; // V may live in the storage grow() frees.
      grow(Size + 1);
      data()[Size++] = Copy;
      return;
    }
    data()[Size++] = V;
  }

  template <typename... Args> T &emplace_back(Args &&...A) {
    push_back(T(std::forward<Args>(A)...));
    return back();
  }

  void assign(size_t Count, const T &Value) {
    T Copy = Value;
    Size = 0;
    reserve(Count);
    std::fill_n(data(), Count, Copy);
    Size = static_cast<uint32_t>(Count);
  }

  friend bool operator==(const InlineVector &A, const InlineVector &B) {
    return std::equal(A.begin(), A.end(), B.begin(), B.end());
  }

private:
  /// The inline elements, or the heap pointer once spilled (Cap > N).
  union {
    alignas(T) unsigned char Inline[N * sizeof(T)];
    T *Heap;
  };
  uint32_t Size = 0;
  uint32_t Cap = N;

  bool spilled() const { return Cap > N; }
  void reserve(size_t Want) {
    if (Want > Cap)
      grow(Want);
  }
  T *inlineData() { return std::launder(reinterpret_cast<T *>(Inline)); }
  const T *inlineData() const {
    return std::launder(reinterpret_cast<const T *>(Inline));
  }

  void grow(size_t Want) {
    size_t NewCap = std::max<size_t>(Want, 2 * size_t(Cap));
    T *New = static_cast<T *>(::operator new(NewCap * sizeof(T)));
    if (Size)
      std::memcpy(static_cast<void *>(New), data(), Size * sizeof(T));
    release();
    Heap = New;
    Cap = static_cast<uint32_t>(NewCap);
  }

  void assignRange(const T *Src, size_t Count) {
    Size = 0;
    reserve(Count);
    if (Count)
      std::memcpy(static_cast<void *>(data()), Src, Count * sizeof(T));
    Size = static_cast<uint32_t>(Count);
  }

  void release() {
    if (spilled())
      ::operator delete(Heap);
    Cap = N;
  }

  void takeFrom(InlineVector &O) {
    Size = O.Size;
    Cap = O.Cap;
    if (O.spilled())
      Heap = O.Heap;
    else if (O.Size)
      std::memcpy(Inline, O.Inline, O.Size * sizeof(T));
    O.Size = 0;
    O.Cap = N;
  }
};

} // namespace pdt

#endif // PDT_SUPPORT_INLINEVECTOR_H
