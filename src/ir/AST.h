//===- ir/AST.h - Loop-nest IR for dependence testing -----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract syntax tree for the Fortran-like input language. The
/// language is deliberately the fragment dependence testing consumes:
/// perfect or imperfect DO loop nests, assignments whose operands are
/// scalar variables and subscripted array references, and integer
/// arithmetic in subscripts and bounds. All nodes are owned by an
/// ASTContext arena and are immutable after construction.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_IR_AST_H
#define PDT_IR_AST_H

#include "support/Casting.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

namespace pdt {

class ASTContext;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class of all expressions. Carries an explicit kind
/// discriminator for LLVM-style isa/dyn_cast dispatch.
class Expr {
public:
  enum class Kind {
    IntLiteral,
    VarRef,
    Unary,
    Binary,
    ArrayElement,
  };

  Kind getKind() const { return TheKind; }

  Expr(const Expr &) = delete;
  Expr &operator=(const Expr &) = delete;

  virtual ~Expr() = default;

protected:
  explicit Expr(Kind K) : TheKind(K) {}

private:
  Kind TheKind;
};

/// An integer literal.
class IntLiteral : public Expr {
public:
  explicit IntLiteral(int64_t Value) : Expr(Kind::IntLiteral), Value(Value) {}

  int64_t getValue() const { return Value; }

  static bool classof(const Expr *E) {
    return E->getKind() == Kind::IntLiteral;
  }

private:
  int64_t Value;
};

/// A reference to a named scalar variable. Whether the name denotes a
/// loop index or a loop-invariant symbolic constant is decided by the
/// enclosing loop structure at analysis time, not in the AST.
class VarRef : public Expr {
public:
  explicit VarRef(std::string Name) : Expr(Kind::VarRef), Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::VarRef; }

private:
  std::string Name;
};

/// A unary operation (only negation in this language).
class UnaryExpr : public Expr {
public:
  enum class Opcode { Neg };

  UnaryExpr(Opcode Op, const Expr *Operand)
      : Expr(Kind::Unary), Op(Op), Operand(Operand) {
    assert(Operand && "unary expr with null operand");
  }

  Opcode getOpcode() const { return Op; }
  const Expr *getOperand() const { return Operand; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Unary; }

private:
  Opcode Op;
  const Expr *Operand;
};

/// A binary arithmetic operation.
class BinaryExpr : public Expr {
public:
  enum class Opcode { Add, Sub, Mul, Div };

  BinaryExpr(Opcode Op, const Expr *LHS, const Expr *RHS)
      : Expr(Kind::Binary), Op(Op), LHS(LHS), RHS(RHS) {
    assert(LHS && RHS && "binary expr with null operand");
  }

  Opcode getOpcode() const { return Op; }
  const Expr *getLHS() const { return LHS; }
  const Expr *getRHS() const { return RHS; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Binary; }

private:
  Opcode Op;
  const Expr *LHS;
  const Expr *RHS;
};

/// A subscripted array reference, e.g. A(i+1, 2*j). Appears both as an
/// operand inside expressions (a read) and as the target of an
/// assignment (a write).
class ArrayElement : public Expr {
public:
  ArrayElement(std::string ArrayName, std::vector<const Expr *> Subscripts)
      : Expr(Kind::ArrayElement), ArrayName(std::move(ArrayName)),
        Subscripts(std::move(Subscripts)) {
    assert(!this->Subscripts.empty() && "array reference with no subscripts");
  }

  const std::string &getArrayName() const { return ArrayName; }
  unsigned getNumDims() const { return Subscripts.size(); }
  const Expr *getSubscript(unsigned Dim) const {
    assert(Dim < Subscripts.size() && "subscript index out of range");
    return Subscripts[Dim];
  }
  const std::vector<const Expr *> &getSubscripts() const { return Subscripts; }

  static bool classof(const Expr *E) {
    return E->getKind() == Kind::ArrayElement;
  }

private:
  std::string ArrayName;
  std::vector<const Expr *> Subscripts;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base class of all statements.
class Stmt {
public:
  enum class Kind {
    Assign,
    DoLoop,
  };

  Kind getKind() const { return TheKind; }

  Stmt(const Stmt &) = delete;
  Stmt &operator=(const Stmt &) = delete;

  virtual ~Stmt() = default;

protected:
  explicit Stmt(Kind K) : TheKind(K) {}

private:
  Kind TheKind;
};

/// An assignment whose target is either a subscripted array element or
/// a scalar variable (scalar assignments exist so induction-variable
/// substitution has something to substitute).
class AssignStmt : public Stmt {
public:
  /// Array-element target form.
  AssignStmt(const ArrayElement *Target, const Expr *Value)
      : Stmt(Kind::Assign), ArrayTarget(Target), ScalarTarget(), Value(Value) {
    assert(Target && Value && "assignment with null operand");
  }

  /// Scalar target form.
  AssignStmt(std::string ScalarName, const Expr *Value)
      : Stmt(Kind::Assign), ArrayTarget(nullptr),
        ScalarTarget(std::move(ScalarName)), Value(Value) {
    assert(Value && "assignment with null value");
  }

  bool isArrayAssign() const { return ArrayTarget != nullptr; }
  const ArrayElement *getArrayTarget() const { return ArrayTarget; }
  const std::string &getScalarTarget() const {
    assert(!isArrayAssign() && "not a scalar assignment");
    return ScalarTarget;
  }
  const Expr *getValue() const { return Value; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }

private:
  const ArrayElement *ArrayTarget; ///< Null for scalar assignments.
  std::string ScalarTarget;
  const Expr *Value;
};

/// A DO loop: `do Index = Lower, Upper [, Step]` with a statement list
/// body. Bounds and step are arbitrary expressions; the analyses
/// normalize and interpret them.
class DoLoop : public Stmt {
public:
  DoLoop(std::string IndexName, const Expr *Lower, const Expr *Upper,
         const Expr *Step, std::vector<const Stmt *> Body)
      : Stmt(Kind::DoLoop), IndexName(std::move(IndexName)), Lower(Lower),
        Upper(Upper), Step(Step), Body(std::move(Body)) {
    assert(Lower && Upper && Step && "loop with null bound");
  }

  const std::string &getIndexName() const { return IndexName; }
  const Expr *getLower() const { return Lower; }
  const Expr *getUpper() const { return Upper; }
  const Expr *getStep() const { return Step; }
  const std::vector<const Stmt *> &getBody() const { return Body; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::DoLoop; }

private:
  std::string IndexName;
  const Expr *Lower;
  const Expr *Upper;
  const Expr *Step;
  std::vector<const Stmt *> Body;
};

//===----------------------------------------------------------------------===//
// ASTContext and Program
//===----------------------------------------------------------------------===//

/// Arena that owns every AST node. Nodes are created through the
/// factory methods and live exactly as long as the context: they are
/// bump-allocated in blocks, and destroying the context runs every
/// node's destructor and then frees the blocks. A node is never freed
/// on its own.
class ASTContext {
public:
  ASTContext() = default;
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;
  ~ASTContext();

  const IntLiteral *getInt(int64_t Value);
  const VarRef *getVar(std::string Name);
  const UnaryExpr *getNeg(const Expr *Operand);
  const BinaryExpr *getBinary(BinaryExpr::Opcode Op, const Expr *LHS,
                              const Expr *RHS);
  const BinaryExpr *getAdd(const Expr *L, const Expr *R) {
    return getBinary(BinaryExpr::Opcode::Add, L, R);
  }
  const BinaryExpr *getSub(const Expr *L, const Expr *R) {
    return getBinary(BinaryExpr::Opcode::Sub, L, R);
  }
  const BinaryExpr *getMul(const Expr *L, const Expr *R) {
    return getBinary(BinaryExpr::Opcode::Mul, L, R);
  }
  const ArrayElement *getArrayElement(std::string Name,
                                      std::vector<const Expr *> Subscripts);

  const AssignStmt *createArrayAssign(const ArrayElement *Target,
                                      const Expr *Value);
  const AssignStmt *createScalarAssign(std::string Name, const Expr *Value);
  const DoLoop *createDoLoop(std::string Index, const Expr *Lower,
                             const Expr *Upper, const Expr *Step,
                             std::vector<const Stmt *> Body);

private:
  /// Precedes every node in its block: the chain of nodes to destroy.
  struct NodeHeader {
    NodeHeader *Prev;
    void (*Destroy)(void *Node);
  };
  /// Precedes every block: the chain of blocks to free.
  struct BlockHeader {
    BlockHeader *Prev;
  };
  static constexpr size_t BlockSize = 4096;

  /// \p N rounded up to the arena's alignment, that of any node type.
  static constexpr size_t alignUp(size_t N) {
    return (N + alignof(std::max_align_t) - 1) &
           ~(alignof(std::max_align_t) - 1);
  }

  BlockHeader *Blocks = nullptr;
  NodeHeader *Nodes = nullptr;
  char *Cur = nullptr;
  char *End = nullptr;

  /// Bump-allocates \p Size bytes, aligned for any node type.
  void *allocate(size_t Size);

  template <typename T, typename... Args> const T *create(Args &&...A) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "node over-aligned for the arena");
    char *Mem = static_cast<char *>(
        allocate(alignUp(sizeof(NodeHeader)) + sizeof(T)));
    T *Node = new (Mem + alignUp(sizeof(NodeHeader)))
        T(std::forward<Args>(A)...);
    Nodes = new (Mem)
        NodeHeader{Nodes, [](void *P) { static_cast<T *>(P)->~T(); }};
    return Node;
  }
};

/// Evaluates a constant integer expression (literals, unary minus,
/// arithmetic on constants; division truncates, as at run time).
/// Returns std::nullopt when the expression mentions a variable,
/// overflows, or divides by zero.
std::optional<int64_t> evaluateConstantExpr(const Expr *E);

/// A whole input program: a context plus the top-level statement list.
struct Program {
  Program() = default;
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;

  std::unique_ptr<ASTContext> Context = std::make_unique<ASTContext>();
  std::vector<const Stmt *> TopLevel;
  std::string Name = "<program>";
};

} // namespace pdt

#endif // PDT_IR_AST_H
