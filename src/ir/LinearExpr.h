//===- ir/LinearExpr.h - Canonical affine subscript form --------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical affine form every dependence test consumes:
///
///   a1*i1 + a2*i2 + ... + b1*N1 + b2*N2 + ... + c
///
/// where the i's are loop index variables, the N's are loop-invariant
/// symbolic constants (the paper's "symbolic additive constants"), and
/// all coefficients are integers. Subscript expressions that do not fit
/// this form (index*index, index*symbol, non-exact division) are
/// *nonlinear*; building a LinearExpr from them fails and the driver
/// classifies the subscript pair as untestable, exactly as PFC did.
///
/// Representation: one sorted term array, index terms first and then
/// symbol terms, each run ordered by name. Up to InlineTerms terms live
/// inside the object, so the subscripts of real programs (Tables 1-2:
/// almost all ZIV or SIV) never touch the heap; longer expressions
/// spill the array. Names of up to 15 bytes are stored inline in the
/// term itself. Every arithmetic operation is a single merge of two
/// sorted runs.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_IR_LINEAREXPR_H
#define PDT_IR_LINEAREXPR_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>

namespace pdt {

class Expr;

/// An affine expression over loop indices and symbolic constants.
/// Terms with zero coefficients are never stored, so structural
/// equality is semantic equality. Terms are ordered by name to keep
/// every downstream iteration deterministic.
class LinearExpr {
  /// A variable name: inline when at most 15 bytes, else on the heap.
  class Name {
  public:
    explicit Name(std::string_view S);
    Name(const Name &O) {
      if (O.spilled())
        init(O.view());
      else
        std::memcpy(Buf, O.Buf, sizeof(Buf));
    }
    Name(Name &&O) noexcept {
      std::memcpy(Buf, O.Buf, sizeof(Buf));
      std::memset(O.Buf, 0, sizeof(Buf));
    }
    Name &operator=(Name O) noexcept {
      char Tmp[sizeof(Buf)];
      std::memcpy(Tmp, Buf, sizeof(Buf));
      std::memcpy(Buf, O.Buf, sizeof(Buf));
      std::memcpy(O.Buf, Tmp, sizeof(Buf));
      return *this;
    }
    ~Name() {
      if (spilled())
        delete[] heapPtr();
    }

    std::string_view view() const {
      if (spilled())
        return {heapPtr(), heapLen()};
      return {Buf, static_cast<unsigned char>(Buf[Tag])};
    }
    size_t hash() const;
    bool operator==(const Name &O) const {
      if (!spilled() && !O.spilled())
        return std::memcmp(Buf, O.Buf, sizeof(Buf)) == 0;
      return view() == O.view();
    }

  private:
    /// Buf[Tag] is the inline length, or SpillTag when the bytes live
    /// on the heap (pointer and length then fill the front of Buf).
    static constexpr unsigned Tag = 15;
    static constexpr unsigned char SpillTag = 0xFF;
    alignas(8) char Buf[16];

    void init(std::string_view S);
    bool spilled() const {
      return static_cast<unsigned char>(Buf[Tag]) == SpillTag;
    }
    char *heapPtr() const {
      char *P;
      std::memcpy(&P, Buf, sizeof(P));
      return P;
    }
    uint32_t heapLen() const {
      uint32_t L;
      std::memcpy(&L, Buf + sizeof(char *), sizeof(L));
      return L;
    }
  };

  struct Term {
    Name N;
    int64_t Coeff;
  };

public:
  /// Terms held without a heap allocation. Four is the most any
  /// kernel of the fuzz corpus needs.
  static constexpr unsigned InlineTerms = 4;

  /// A sorted run of (name, coefficient) terms.
  class TermRange {
  public:
    using value_type = std::pair<std::string_view, int64_t>;

    class iterator {
    public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = TermRange::value_type;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = value_type;

      iterator() = default;
      explicit iterator(const Term *P) : P(P) {}
      value_type operator*() const { return {P->N.view(), P->Coeff}; }
      iterator &operator++() {
        ++P;
        return *this;
      }
      iterator operator++(int) {
        iterator Old = *this;
        ++P;
        return Old;
      }
      bool operator==(const iterator &O) const { return P == O.P; }
      bool operator!=(const iterator &O) const { return P != O.P; }

    private:
      const Term *P = nullptr;
    };

    TermRange(const Term *B, const Term *E) : B(B), E(E) {}
    iterator begin() const { return iterator(B); }
    iterator end() const { return iterator(E); }
    size_t size() const { return E - B; }
    bool empty() const { return B == E; }
    value_type operator[](size_t I) const {
      return {B[I].N.view(), B[I].Coeff};
    }

  private:
    const Term *B, *E;
  };

  /// The zero expression.
  LinearExpr() = default;

  /// The constant expression \p C.
  explicit LinearExpr(int64_t C) : Constant(C) {}

  LinearExpr(const LinearExpr &O);
  LinearExpr(LinearExpr &&O) noexcept;
  LinearExpr &operator=(const LinearExpr &O);
  LinearExpr &operator=(LinearExpr &&O) noexcept;
  ~LinearExpr() { release(); }

  /// Builds c + sum(coeff * name) term by term.
  static LinearExpr constant(int64_t C) { return LinearExpr(C); }
  static LinearExpr index(std::string_view Name, int64_t Coeff = 1);
  static LinearExpr symbol(std::string_view Name, int64_t Coeff = 1);

  int64_t getConstant() const { return Constant; }

  /// Coefficient of loop index \p Name (0 if absent).
  int64_t indexCoeff(std::string_view Name) const;

  /// Coefficient of symbolic constant \p Name (0 if absent).
  int64_t symbolCoeff(std::string_view Name) const;

  /// The index terms, then the symbol terms, each sorted by name.
  TermRange indexTerms() const { return {Data, Data + NumIndex}; }
  TermRange symbolTerms() const { return {Data + NumIndex, Data + Size}; }

  /// Number of distinct loop indices appearing (with non-zero
  /// coefficient). This is the paper's ZIV/SIV/MIV discriminator when
  /// applied to the union of the two subscripts of a pair.
  unsigned numIndices() const { return NumIndex; }

  /// True iff no loop index appears (symbols are still allowed; the
  /// result is loop-invariant).
  bool isLoopInvariant() const { return NumIndex == 0; }

  /// True iff the expression is a literal integer constant (no indices
  /// and no symbols).
  bool isPureConstant() const { return Size == 0; }

  /// True iff the expression is identically zero.
  bool isZero() const { return isPureConstant() && Constant == 0; }

  /// The single index name when exactly one index appears.
  std::string_view singleIndex() const;

  /// All index names appearing in the expression.
  std::set<std::string> indexNames() const;

  /// Mentions of a particular index?
  bool usesIndex(std::string_view Name) const { return indexCoeff(Name) != 0; }

  LinearExpr operator+(const LinearExpr &RHS) const;
  LinearExpr operator-(const LinearExpr &RHS) const;
  LinearExpr operator-() const;

  /// Multiplication by an integer constant.
  LinearExpr scale(int64_t Factor) const;

  /// Exact division by an integer constant: succeeds only when every
  /// coefficient (and the constant) is divisible by \p Divisor.
  std::optional<LinearExpr> divideExactly(int64_t Divisor) const;

  /// Replaces index \p Name with the affine expression \p Replacement.
  /// This is how Delta-test constraint propagation rewrites i' as i+d
  /// inside coupled MIV subscripts.
  LinearExpr substituteIndex(std::string_view Name,
                             const LinearExpr &Replacement) const;

  /// Drops the index term for \p Name (used when a point constraint
  /// fixes an index to a constant: substitute then erase).
  LinearExpr withoutIndex(std::string_view Name) const;

  /// The tagged dependence equation Src - Dst', where every index name
  /// of \p Dst gets \p SinkSuffix appended (core/Subscript.h).
  static LinearExpr taggedDifference(const LinearExpr &Src,
                                     const LinearExpr &Dst,
                                     std::string_view SinkSuffix);

  /// Turns the index terms whose name \p IsRetagged accepts into
  /// symbols named after the index with \p Suffix appended, in one
  /// merge. This is how a pair's non-common indices become ranged
  /// "#src"/"#snk" symbols.
  LinearExpr
  retagIndices(const std::function<bool(std::string_view)> &IsRetagged,
               std::string_view Suffix) const;

  bool operator==(const LinearExpr &RHS) const;
  bool operator!=(const LinearExpr &RHS) const { return !(*this == RHS); }

  /// Deterministic ordering (for use as a map key): the constant, then
  /// the index terms, then the symbol terms, each compared
  /// lexicographically as (name, coefficient) sequences.
  bool operator<(const LinearExpr &RHS) const;

  /// Hash of the structural content, consistent with operator==.
  size_t hash() const;

  /// Renders e.g. "2*i - j + N + 3".
  std::string str() const;

private:
  /// The terms: InlineBuf, or a heap array sized once by reserve().
  /// Every operation builds a fresh result, so no array ever grows.
  Term *Data = inlineTerms();
  uint32_t Size = 0;
  uint32_t NumIndex = 0;
  int64_t Constant = 0;
  alignas(Term) unsigned char InlineBuf[InlineTerms * sizeof(Term)];

  Term *inlineTerms() { return reinterpret_cast<Term *>(InlineBuf); }
  bool isInline() const {
    return Data == reinterpret_cast<const Term *>(InlineBuf);
  }

  /// Makes room for \p N terms in an empty expression.
  void reserve(uint32_t N);
  /// Destroys every term and frees a spilled array.
  void release();
  /// Takes \p O's terms into this empty expression, leaving \p O zero.
  void takeFrom(LinearExpr &O) noexcept;
  /// Moves a spilled array of at most InlineTerms terms back inline.
  void shrinkToInline();
  void push(std::string_view S, int64_t Coeff) {
    new (Data + Size++) Term{Name(S), Coeff};
  }
  void push(const Term &T, int64_t Coeff) {
    new (Data + Size++) Term{T.N, Coeff};
  }
  /// Appends \p T renamed with \p Suffix appended (\p Buffer is
  /// scratch).
  void pushTagged(const Term &T, std::string_view Suffix,
                  std::string &Buffer);
  /// Restores name order after pushTagged: a suffix keeps identifier
  /// order except where one name extends another with a character
  /// below the suffix's.
  void sortTerms();
  static const Term *find(const Term *B, const Term *E, std::string_view S);
  /// Appends the merge of runs [AB, AE) and [BB, BE), each term of the
  /// second scaled by \p Factor (checked), cancelling zero sums and
  /// leaving out \p Skip of the first run.
  void mergeRuns(const Term *AB, const Term *AE, const Term *BB,
                 const Term *BE, int64_t Factor, const Term *Skip = nullptr);
  /// A + Factor * B without A's index term \p Skip, one merge per run.
  /// Factor * B must already be known not to overflow.
  static LinearExpr addScaled(const LinearExpr &A, const LinearExpr &B,
                              int64_t Factor, const Term *Skip = nullptr);
};

/// Converts AST expression \p E into affine form. Names in
/// \p IndexNames become index terms; any other variable becomes a
/// symbolic constant. Returns std::nullopt for nonlinear expressions.
std::optional<LinearExpr>
buildLinearExpr(const Expr *E, const std::set<std::string> &IndexNames);

class ASTContext;

/// Builds an AST expression computing \p E (indices and symbols both
/// become variable references). Inverse of buildLinearExpr up to
/// normalization.
const Expr *linearToExpr(ASTContext &Ctx, const LinearExpr &E);

} // namespace pdt

#endif // PDT_IR_LINEAREXPR_H
