//===- tests/FrontendTests.cpp --------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "frontend/Frontend.h"
#include "frontend/Lexer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace scmo;
using namespace scmo::test;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, TokenizesOperatorsAndKeywords) {
  std::string Error;
  auto Toks = lexSource("func f(a) { return a <= 10 != 2; } // tail", Error);
  ASSERT_TRUE(Error.empty()) << Error;
  std::vector<TokKind> Kinds;
  for (const Token &T : Toks)
    Kinds.push_back(T.Kind);
  std::vector<TokKind> Expected = {
      TokKind::KwFunc,   TokKind::Ident,  TokKind::LParen, TokKind::Ident,
      TokKind::RParen,   TokKind::LBrace, TokKind::KwReturn, TokKind::Ident,
      TokKind::Le,       TokKind::Number, TokKind::NotEq,  TokKind::Number,
      TokKind::Semi,     TokKind::RBrace, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, TracksLineNumbers) {
  std::string Error;
  uint32_t Lines = 0;
  auto Toks = lexSource("func f()\n{\nreturn 1;\n}\n", Error, &Lines);
  ASSERT_TRUE(Error.empty());
  EXPECT_EQ(Lines, 5u);
  EXPECT_EQ(Toks[0].Line, 1u);          // func
  EXPECT_EQ(Toks[4].Line, 2u);          // {
  EXPECT_EQ(Toks[5].Line, 3u);          // return
}

TEST(Lexer, CommentsAreSkipped) {
  std::string Error;
  auto Toks = lexSource("// whole line\nfunc // trailing\n", Error);
  ASSERT_TRUE(Error.empty());
  EXPECT_EQ(Toks.size(), 2u); // func + eof
}

TEST(Lexer, RejectsStrayCharacters) {
  std::string Error;
  lexSource("func f() { return 1 $ 2; }", Error);
  EXPECT_NE(Error.find("unexpected character"), std::string::npos);
}

TEST(Lexer, NumbersParseValues) {
  std::string Error;
  auto Toks = lexSource("0 7 1234567890", Error);
  ASSERT_TRUE(Error.empty());
  EXPECT_EQ(Toks[0].Value, 0);
  EXPECT_EQ(Toks[1].Value, 7);
  EXPECT_EQ(Toks[2].Value, 1234567890);
}

//===----------------------------------------------------------------------===//
// Parser / lowering: behavioural checks through the full pipeline
//===----------------------------------------------------------------------===//

namespace {

/// Compiles one module at O2 and runs it, returning printed values.
std::vector<int64_t> runSource(const std::string &Src) {
  RunResult Run = buildAndRun({{"m", Src}});
  return Run.FirstOutputs;
}

} // namespace

TEST(Frontend, ArithmeticPrecedence) {
  auto Out = runSource(R"(
func main() {
  print 2 + 3 * 4;
  print (2 + 3) * 4;
  print 10 - 4 - 3;
  print 20 / 2 / 5;
  print 17 % 5;
  print -3 * 4;
  print 1 < 2;
  print 2 + 1 < 2;
  return 0;
}
)");
  EXPECT_EQ(Out, (std::vector<int64_t>{14, 20, 3, 2, 2, -12, 1, 0}));
}

TEST(Frontend, WhileLoopAndLocals) {
  auto Out = runSource(R"(
func main() {
  var sum = 0;
  var i = 1;
  while (i <= 10) {
    sum = sum + i;
    i = i + 1;
  }
  print sum;
  return 0;
}
)");
  EXPECT_EQ(Out, (std::vector<int64_t>{55}));
}

TEST(Frontend, IfElseChains) {
  auto Out = runSource(R"(
func classify(x) {
  if (x < 0) { return 0 - 1; }
  if (x == 0) { return 0; }
  return 1;
}
func main() {
  print classify(0 - 5);
  print classify(0);
  print classify(9);
  return 0;
}
)");
  EXPECT_EQ(Out, (std::vector<int64_t>{-1, 0, 1}));
}

TEST(Frontend, GlobalsArraysAndStatics) {
  auto Out = runSource(R"(
global base = 100;
global table[8];
static counter;
func bump() { counter = counter + 1; return counter; }
func main() {
  var i = 0;
  while (i < 8) {
    table[i] = base + i;
    i = i + 1;
  }
  print table[0];
  print table[7];
  print table[9];   // wraps to index 1
  bump(); bump();
  print bump();
  return 0;
}
)");
  EXPECT_EQ(Out, (std::vector<int64_t>{100, 107, 101, 3}));
}

TEST(Frontend, RecursionWorks) {
  auto Out = runSource(R"(
func fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
func main() {
  print fib(15);
  return 0;
}
)");
  EXPECT_EQ(Out, (std::vector<int64_t>{610}));
}

TEST(Frontend, MissingReturnYieldsZero) {
  auto Out = runSource(R"(
func noret(x) { x = x + 1; }
func main() {
  print noret(5);
  return 0;
}
)");
  EXPECT_EQ(Out, (std::vector<int64_t>{0}));
}

TEST(Frontend, MidBlockReturnDeadCodeIsHandled) {
  auto Out = runSource(R"(
func f(x) {
  if (x > 0) {
    return 1;
    x = 99;
  }
  return 2;
}
func main() { print f(5); print f(0 - 5); return 0; }
)");
  EXPECT_EQ(Out, (std::vector<int64_t>{1, 2}));
}

TEST(Frontend, ForwardAndMutualReferences) {
  auto Out = runSource(R"(
func isEven(n) {
  if (n == 0) { return 1; }
  return isOdd(n - 1);
}
func isOdd(n) {
  if (n == 0) { return 0; }
  return isEven(n - 1);
}
func main() { print isEven(10); print isOdd(10); return 0; }
)");
  EXPECT_EQ(Out, (std::vector<int64_t>{1, 0}));
}

TEST(Frontend, ModuleStaticShadowsExternGlobal) {
  RunResult Run = buildAndRun({{"a", R"(
global v = 1;
func readA() { return v; }
)"},
                               {"b", R"(
static v;
func setB() { v = 42; return 0; }
func readB() { return v; }
)"},
                               {"m", R"(
func main() {
  setB();
  print readA();  // extern v, untouched
  print readB();  // b's static v
  return 0;
}
)"}});
  EXPECT_EQ(Run.FirstOutputs, (std::vector<int64_t>{1, 42}));
}

TEST(Frontend, ImplicitExternDeclarationLinksByName) {
  RunResult Run = buildAndRun({{"app", R"(
func main() { print helperElsewhere(21); return 0; }
)"},
                               {"lib", R"(
func helperElsewhere(x) { return x * 2; }
)"}});
  EXPECT_EQ(Run.FirstOutputs, (std::vector<int64_t>{42}));
}

//===----------------------------------------------------------------------===//
// Frontend error reporting
//===----------------------------------------------------------------------===//

namespace {

std::string frontendError(const std::string &Src) {
  Program P;
  FrontendResult FR = compileSource(P, "m", Src);
  EXPECT_FALSE(FR.Ok);
  return FR.Error;
}

} // namespace

TEST(FrontendErrors, CallArityMismatch) {
  EXPECT_NE(frontendError(R"(
func f(a, b) { return a + b; }
func main() { return f(1); }
)").find("expected 2"),
            std::string::npos);
}

TEST(FrontendErrors, UnknownIdentifier) {
  EXPECT_NE(frontendError("func main() { return nosuchvar; }")
                .find("unknown identifier"),
            std::string::npos);
}

TEST(FrontendErrors, DuplicateLocal) {
  EXPECT_NE(frontendError("func main() { var a = 1; var a = 2; return a; }")
                .find("duplicate local"),
            std::string::npos);
}

TEST(FrontendErrors, Redefinition) {
  EXPECT_NE(frontendError(R"(
func f() { return 1; }
func f() { return 2; }
func main() { return f(); }
)").find("redefinition"),
            std::string::npos);
}

TEST(FrontendErrors, UnterminatedBlock) {
  EXPECT_NE(frontendError("func main() { return 0;").find("unterminated"),
            std::string::npos);
}

TEST(FrontendErrors, ZeroSizedArray) {
  EXPECT_NE(frontendError("global a[0];\nfunc main() { return 0; }")
                .find("zero-sized"),
            std::string::npos);
}

TEST(FrontendErrors, ErrorsNameModuleAndLine) {
  std::string Err = frontendError("func main() {\n  return nosuch;\n}");
  EXPECT_NE(Err.find("m:2"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// IL-level properties of the frontend output
//===----------------------------------------------------------------------===//

TEST(Frontend, OutputPassesVerifier) {
  Program P;
  FrontendResult FR = compileSource(P, "m", R"(
global g;
global arr[10];
func f(a, b, c) {
  var x = a * b;
  if (x > c) { g = x; } else { arr[a] = x; }
  while (x > 0) { x = x - 1; }
  return x + g;
}
func main() { return f(1, 2, 3); }
)");
  ASSERT_TRUE(FR.Ok) << FR.Error;
  EXPECT_EQ(verifyExpanded(P), "");
}

TEST(Frontend, RecordsSourceLinesAndDebugInfo) {
  Program P;
  FrontendResult FR = compileSource(P, "m", R"(
func tiny() { return 1; }

func main() {
  var a = tiny();
  return a;
}
)");
  ASSERT_TRUE(FR.Ok);
  EXPECT_GE(P.module(FR.Module).SourceLines, 7u);
  RoutineId Main = P.findRoutine("main");
  EXPECT_GE(P.routine(Main).Slot.Body->SourceLines, 4u);
  // Two records per function: signature + line map.
  EXPECT_EQ(P.module(FR.Module).Symtab.records().size(), 4u);
  EXPECT_NE(P.module(FR.Module).Symtab.records()[0].find("func tiny"),
            std::string::npos);
}
