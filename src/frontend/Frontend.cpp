//===- frontend/Frontend.cpp ----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"

#include "frontend/Lexer.h"

#include <charconv>
#include <map>

using namespace scmo;

namespace {

/// Appends the decimal spelling of \p V to \p Out.
void appendUInt(std::string &Out, uint64_t V) {
  char Buf[20];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Recursive-descent parser and IL lowerer for one module.
class Parser {
public:
  Parser(Program &P, ModuleId M, std::vector<Token> Toks)
      : P(P), M(M), Toks(std::move(Toks)) {}

  bool run(std::string &Error) {
    if (!declarePass()) {
      Error = Err;
      return false;
    }
    Pos = 0;
    if (!definePass()) {
      Error = Err;
      return false;
    }
    return true;
  }

private:
  //===--------------------------------------------------------------------===
  // Token helpers
  //===--------------------------------------------------------------------===

  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t N = 1) const {
    size_t Idx = Pos + N;
    return Idx < Toks.size() ? Toks[Idx] : Toks.back();
  }

  bool at(TokKind K) const { return cur().Kind == K; }

  bool accept(TokKind K) {
    if (!at(K))
      return false;
    ++Pos;
    return true;
  }

  bool expect(TokKind K, const char *What) {
    if (accept(K))
      return true;
    return error(std::string("expected ") + What);
  }

  bool error(const std::string &Msg) {
    if (Err.empty()) {
      Err = P.Strings.text(P.module(M).Name);
      Err += ':';
      appendUInt(Err, cur().Line);
      Err += ": ";
      Err += Msg;
    }
    return false;
  }

  //===--------------------------------------------------------------------===
  // Phase 1: declarations (so forward and mutual references resolve)
  //===--------------------------------------------------------------------===

  bool declarePass() {
    while (!at(TokKind::Eof)) {
      bool IsStatic = accept(TokKind::KwStatic);
      if (accept(TokKind::KwFunc)) {
        if (!at(TokKind::Ident))
          return error("expected function name");
        std::string_view Name = cur().Text;
        ++Pos;
        if (!expect(TokKind::LParen, "'('"))
          return false;
        uint32_t NumParams = 0;
        if (!at(TokKind::RParen)) {
          do {
            if (!at(TokKind::Ident))
              return error("expected parameter name");
            ++Pos;
            ++NumParams;
          } while (accept(TokKind::Comma));
        }
        if (!expect(TokKind::RParen, "')'"))
          return false;
        RoutineId R = P.declareRoutine(M, Name, NumParams, IsStatic);
        // A pre-existing extern declaration (implicit, from a call in an
        // earlier module) may have guessed the arity; the definition wins.
        P.routine(R).NumParams = NumParams;
        touch(SymbolTouch::Kind::DeclRoutine, R, NumParams);
        if (!skipBlock())
          return false;
        continue;
      }
      if (IsStatic || accept(TokKind::KwGlobal)) {
        // "static x;" (module-local) or "global x;" (program common symbol).
        if (!IsStatic && false)
          return false;
        if (!at(TokKind::Ident))
          return error("expected variable name");
        std::string_view Name = cur().Text;
        ++Pos;
        uint32_t Size = 1;
        if (accept(TokKind::LBracket)) {
          if (!at(TokKind::Number))
            return error("expected array size");
          Size = static_cast<uint32_t>(cur().Value);
          if (Size == 0)
            return error("zero-sized array");
          ++Pos;
          if (!expect(TokKind::RBracket, "']'"))
            return false;
        }
        int64_t Init = 0;
        if (accept(TokKind::Assign)) {
          bool Negative = accept(TokKind::Minus);
          if (!at(TokKind::Number))
            return error("expected initializer constant");
          Init = Negative ? -cur().Value : cur().Value;
          ++Pos;
        }
        if (!expect(TokKind::Semi, "';'"))
          return false;
        GlobalId G = P.addGlobal(M, Name, Size, Init, IsStatic);
        touch(SymbolTouch::Kind::DeclGlobal, G, Size, Init);
        continue;
      }
      return error("expected 'func', 'static' or 'global' at top level");
    }
    return true;
  }

  bool skipBlock() {
    if (!expect(TokKind::LBrace, "'{'"))
      return false;
    unsigned Depth = 1;
    while (Depth) {
      if (at(TokKind::Eof))
        return error("unterminated block");
      if (at(TokKind::LBrace))
        ++Depth;
      if (at(TokKind::RBrace))
        --Depth;
      ++Pos;
    }
    return true;
  }

  //===--------------------------------------------------------------------===
  // Phase 2: bodies
  //===--------------------------------------------------------------------===

  bool definePass() {
    while (!at(TokKind::Eof)) {
      bool IsStatic = accept(TokKind::KwStatic);
      if (accept(TokKind::KwFunc)) {
        if (!parseFunction(IsStatic))
          return false;
        continue;
      }
      // Global/static variable: already declared; skip to ';'.
      while (!at(TokKind::Semi) && !at(TokKind::Eof))
        ++Pos;
      if (!expect(TokKind::Semi, "';'"))
        return false;
    }
    return true;
  }

  bool parseFunction(bool IsStatic) {
    std::string_view Name = cur().Text;
    uint32_t StartLine = cur().Line;
    ++Pos;
    expect(TokKind::LParen, "'('");
    Body = std::make_unique<RoutineBody>(P.tracker());
    Locals.clear();
    std::vector<std::string_view> ParamNames;
    if (!at(TokKind::RParen)) {
      do {
        ParamNames.push_back(cur().Text);
        ++Pos;
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "')'");
    Body->NumParams = static_cast<uint32_t>(ParamNames.size());
    for (std::string_view PName : ParamNames) {
      RegId R = Body->newReg();
      if (!Locals.emplace(std::string(PName), R).second)
        return error("duplicate parameter name");
    }
    CurBlock = Body->newBlock();
    if (!parseBlock())
      return false;
    uint32_t EndLine = Pos ? Toks[Pos - 1].Line : StartLine;
    // Patch every unterminated block with an implicit "return 0".
    for (BlockId B = 0; B != Body->Blocks.size(); ++B) {
      BasicBlock &BB = Body->Blocks[B];
      if (!BB.Instrs.empty() && BB.Instrs.back()->isTerm())
        continue;
      Instr *RetI = Body->newInstr(Opcode::Ret);
      RetI->A = Operand::imm(0);
      RetI->Line = EndLine;
      BB.Instrs.push_back(RetI);
    }
    Body->SourceLines = EndLine >= StartLine ? EndLine - StartLine + 1 : 1;
    RoutineId R = P.declareRoutine(M, Name, Body->NumParams, IsStatic);
    if (P.routine(R).IsDefined)
      return error("redefinition of function '" + std::string(Name) + "'");
    // Record debug information in the module symbol table (bulk symbol data
    // that the ST-compaction threshold later moves out of the way).
    std::string Dbg = "func ";
    Dbg += Name;
    Dbg += " lines ";
    appendUInt(Dbg, StartLine);
    Dbg += '-';
    appendUInt(Dbg, EndLine);
    Dbg += " params";
    for (std::string_view PName : ParamNames) {
      Dbg += ' ';
      Dbg += PName;
    }
    Dbg += " locals";
    for (const auto &[LName, LReg] : Locals) {
      Dbg += ' ';
      Dbg += LName;
      Dbg += "=%";
      appendUInt(Dbg, LReg);
    }
    P.module(M).Symtab.addRecord(std::move(Dbg));
    // Line table: one entry per source line, the bulk symbol data that makes
    // the paper's symbol-table compaction threshold worth a stage of its
    // own (debug line maps dominated 1990s symbol tables).
    std::string LineMap = "linemap ";
    LineMap += Name;
    for (uint32_t L = StartLine; L <= EndLine; ++L) {
      LineMap += ' ';
      appendUInt(LineMap, L - StartLine);
      LineMap += ':';
      appendUInt(LineMap, L * 7 % 9973);
    }
    P.module(M).Symtab.addRecord(std::move(LineMap));
    // The body is complete: drop its growth slabs' tails before it becomes
    // the routine's resident IL.
    Body->repack();
    P.defineRoutine(R, M, std::move(Body));
    touch(SymbolTouch::Kind::Define, R);
    return true;
  }

  bool parseBlock() {
    if (!expect(TokKind::LBrace, "'{'"))
      return false;
    while (!at(TokKind::RBrace)) {
      if (at(TokKind::Eof))
        return error("unterminated block");
      if (!parseStatement())
        return false;
    }
    ++Pos; // consume '}'
    return true;
  }

  bool parseStatement() {
    uint32_t Line = cur().Line;
    if (accept(TokKind::KwVar)) {
      if (!at(TokKind::Ident))
        return error("expected local variable name");
      std::string LName(cur().Text);
      ++Pos;
      Operand Init = Operand::imm(0);
      if (accept(TokKind::Assign)) {
        if (!parseExpr(Init))
          return false;
      }
      if (!expect(TokKind::Semi, "';'"))
        return false;
      RegId R = Body->newReg();
      if (!Locals.emplace(LName, R).second)
        return error("duplicate local '" + LName + "'");
      emitMov(R, Init, Line);
      return true;
    }
    if (accept(TokKind::KwReturn)) {
      Operand V;
      if (!parseExpr(V))
        return false;
      if (!expect(TokKind::Semi, "';'"))
        return false;
      Instr *I = Body->newInstr(Opcode::Ret);
      I->A = V;
      I->Line = Line;
      emit(I);
      startDeadBlock();
      return true;
    }
    if (accept(TokKind::KwPrint)) {
      Operand V;
      if (!parseExpr(V))
        return false;
      if (!expect(TokKind::Semi, "';'"))
        return false;
      Instr *I = Body->newInstr(Opcode::Print);
      I->A = V;
      I->Line = Line;
      emit(I);
      return true;
    }
    if (accept(TokKind::KwIf))
      return parseIf(Line);
    if (accept(TokKind::KwWhile))
      return parseWhile(Line);
    if (at(TokKind::Ident)) {
      // Assignment, array store, or expression statement (a call).
      if (peek().Kind == TokKind::Assign) {
        std::string_view Name = cur().Text;
        Pos += 2;
        Operand V;
        if (!parseExpr(V))
          return false;
        if (!expect(TokKind::Semi, "';'"))
          return false;
        return lowerStore(Name, V, Line);
      }
      if (peek().Kind == TokKind::LBracket) {
        // Could be "a[i] = e;" or an expression statement starting with an
        // indexed read; look for the '=' after the matching ']'.
        size_t Scan = Pos + 2;
        unsigned Depth = 1;
        while (Scan < Toks.size() && Depth) {
          if (Toks[Scan].Kind == TokKind::LBracket)
            ++Depth;
          if (Toks[Scan].Kind == TokKind::RBracket)
            --Depth;
          ++Scan;
        }
        if (Scan < Toks.size() && Toks[Scan].Kind == TokKind::Assign) {
          std::string_view Name = cur().Text;
          Pos += 2;
          Operand Idx;
          if (!parseExpr(Idx))
            return false;
          if (!expect(TokKind::RBracket, "']'"))
            return false;
          if (!expect(TokKind::Assign, "'='"))
            return false;
          Operand V;
          if (!parseExpr(V))
            return false;
          if (!expect(TokKind::Semi, "';'"))
            return false;
          return lowerIndexedStore(Name, Idx, V, Line);
        }
      }
    }
    // Expression statement.
    Operand V;
    if (!parseExpr(V))
      return false;
    if (!expect(TokKind::Semi, "';'"))
      return false;
    return true;
  }

  bool parseIf(uint32_t Line) {
    if (!expect(TokKind::LParen, "'('"))
      return false;
    Operand Cond;
    if (!parseExpr(Cond))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    BlockId ThenB = Body->newBlock();
    BlockId MergeB = InvalidId; // allocated lazily
    Instr *BrI = Body->newInstr(Opcode::Br);
    BrI->A = materialize(Cond, Line);
    BrI->T1 = ThenB;
    BrI->Line = Line;
    emit(BrI);
    BlockId CondBlock = CurBlock;
    CurBlock = ThenB;
    if (!parseBlock())
      return false;
    BlockId ThenEnd = CurBlock;
    if (accept(TokKind::KwElse)) {
      BlockId ElseB = Body->newBlock();
      Body->Blocks[CondBlock].Instrs.back()->T2 = ElseB;
      CurBlock = ElseB;
      if (!parseBlock())
        return false;
      BlockId ElseEnd = CurBlock;
      MergeB = Body->newBlock();
      appendJmpIfOpen(ThenEnd, MergeB, Line);
      appendJmpIfOpen(ElseEnd, MergeB, Line);
    } else {
      MergeB = Body->newBlock();
      Body->Blocks[CondBlock].Instrs.back()->T2 = MergeB;
      appendJmpIfOpen(ThenEnd, MergeB, Line);
    }
    CurBlock = MergeB;
    return true;
  }

  bool parseWhile(uint32_t Line) {
    BlockId HeaderB = Body->newBlock();
    appendJmpIfOpen(CurBlock, HeaderB, Line);
    CurBlock = HeaderB;
    if (!expect(TokKind::LParen, "'('"))
      return false;
    Operand Cond;
    if (!parseExpr(Cond))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    BlockId BodyB = Body->newBlock();
    BlockId ExitB = Body->newBlock();
    // The loop back-edge is the hot direction; lower the condition as
    // "br cond ? body : exit" so profile-guided layout sees the bias.
    Instr *BrI = Body->newInstr(Opcode::Br);
    BrI->A = materialize(Cond, Line);
    BrI->T1 = BodyB;
    BrI->T2 = ExitB;
    BrI->Line = Line;
    BlockId CondBlock = CurBlock;
    emitTo(CondBlock, BrI);
    CurBlock = BodyB;
    if (!parseBlock())
      return false;
    appendJmpIfOpen(CurBlock, HeaderB, Line);
    CurBlock = ExitB;
    return true;
  }

  //===--------------------------------------------------------------------===
  // Expressions
  //===--------------------------------------------------------------------===

  bool parseExpr(Operand &Out) { return parseComparison(Out); }

  bool parseComparison(Operand &Out) {
    if (!parseAdditive(Out))
      return false;
    while (true) {
      Opcode Op;
      switch (cur().Kind) {
      case TokKind::EqEq:
        Op = Opcode::CmpEq;
        break;
      case TokKind::NotEq:
        Op = Opcode::CmpNe;
        break;
      case TokKind::Lt:
        Op = Opcode::CmpLt;
        break;
      case TokKind::Le:
        Op = Opcode::CmpLe;
        break;
      case TokKind::Gt:
        Op = Opcode::CmpGt;
        break;
      case TokKind::Ge:
        Op = Opcode::CmpGe;
        break;
      default:
        return true;
      }
      uint32_t Line = cur().Line;
      ++Pos;
      Operand Rhs;
      if (!parseAdditive(Rhs))
        return false;
      Out = emitBinary(Op, Out, Rhs, Line);
    }
  }

  bool parseAdditive(Operand &Out) {
    if (!parseMultiplicative(Out))
      return false;
    while (at(TokKind::Plus) || at(TokKind::Minus)) {
      Opcode Op = at(TokKind::Plus) ? Opcode::Add : Opcode::Sub;
      uint32_t Line = cur().Line;
      ++Pos;
      Operand Rhs;
      if (!parseMultiplicative(Rhs))
        return false;
      Out = emitBinary(Op, Out, Rhs, Line);
    }
    return true;
  }

  bool parseMultiplicative(Operand &Out) {
    if (!parseUnary(Out))
      return false;
    while (at(TokKind::Star) || at(TokKind::Slash) || at(TokKind::Percent)) {
      Opcode Op = at(TokKind::Star)    ? Opcode::Mul
                  : at(TokKind::Slash) ? Opcode::Div
                                       : Opcode::Rem;
      uint32_t Line = cur().Line;
      ++Pos;
      Operand Rhs;
      if (!parseUnary(Rhs))
        return false;
      Out = emitBinary(Op, Out, Rhs, Line);
    }
    return true;
  }

  bool parseUnary(Operand &Out) {
    if (accept(TokKind::Minus)) {
      uint32_t Line = cur().Line;
      Operand Inner;
      if (!parseUnary(Inner))
        return false;
      if (Inner.isImm()) {
        Out = Operand::imm(-Inner.asImm());
        return true;
      }
      Instr *I = Body->newInstr(Opcode::Neg);
      I->Dst = Body->newReg();
      I->A = Inner;
      I->Line = Line;
      emit(I);
      Out = Operand::reg(I->Dst);
      return true;
    }
    return parsePrimary(Out);
  }

  bool parsePrimary(Operand &Out) {
    if (at(TokKind::Number)) {
      Out = Operand::imm(cur().Value);
      ++Pos;
      return true;
    }
    if (accept(TokKind::LParen)) {
      if (!parseExpr(Out))
        return false;
      return expect(TokKind::RParen, "')'");
    }
    if (!at(TokKind::Ident))
      return error("expected expression");
    std::string_view Name = cur().Text;
    uint32_t Line = cur().Line;
    ++Pos;
    if (accept(TokKind::LParen))
      return parseCall(Name, Line, Out);
    if (accept(TokKind::LBracket)) {
      Operand Idx;
      if (!parseExpr(Idx))
        return false;
      if (!expect(TokKind::RBracket, "']'"))
        return false;
      GlobalId G = resolveGlobal(Name);
      if (G == InvalidId)
        return error("unknown array '" + std::string(Name) + "'");
      Instr *I = Body->newInstr(Opcode::LoadIdx);
      I->Dst = Body->newReg();
      I->Sym = G;
      I->A = Idx;
      I->Line = Line;
      emit(I);
      Out = Operand::reg(I->Dst);
      return true;
    }
    // Plain identifier: local first, then global scalar.
    auto It = Locals.find(std::string(Name));
    if (It != Locals.end()) {
      Out = Operand::reg(It->second);
      return true;
    }
    GlobalId G = resolveGlobal(Name);
    if (G == InvalidId)
      return error("unknown identifier '" + std::string(Name) + "'");
    Instr *I = Body->newInstr(Opcode::LoadG);
    I->Dst = Body->newReg();
    I->Sym = G;
    I->Line = Line;
    emit(I);
    Out = Operand::reg(I->Dst);
    return true;
  }

  bool parseCall(std::string_view Name, uint32_t Line, Operand &Out) {
    std::vector<Operand> Args;
    if (!at(TokKind::RParen)) {
      do {
        Operand A;
        if (!parseExpr(A))
          return false;
        Args.push_back(A);
      } while (accept(TokKind::Comma));
    }
    if (!expect(TokKind::RParen, "')'"))
      return false;
    RoutineId Callee = P.findRoutineInModule(M, Name);
    if (Callee == InvalidId) {
      // Implicit external declaration (K&R style): the linker resolves it
      // against a definition in another module, or reports it undefined.
      Callee = P.declareRoutine(M, Name, static_cast<uint32_t>(Args.size()),
                                /*IsStatic=*/false);
    }
    if (firstTouch(RoutineTouched, Callee))
      touch(SymbolTouch::Kind::RefRoutine, Callee,
            static_cast<uint32_t>(Args.size()));
    const RoutineInfo &RI = P.routine(Callee);
    if (RI.NumParams != Args.size())
      return error("call to '" + std::string(Name) + "' passes " +
                   std::to_string(Args.size()) + " args, expected " +
                   std::to_string(RI.NumParams));
    Instr *I = Body->newInstr(Opcode::Call);
    I->Dst = Body->newReg();
    I->Sym = Callee;
    I->NumArgs = static_cast<uint16_t>(Args.size());
    I->Args = Body->newArgArray(I->NumArgs);
    for (size_t A = 0; A != Args.size(); ++A)
      I->Args[A] = Args[A];
    I->Line = Line;
    emit(I);
    Out = Operand::reg(I->Dst);
    return true;
  }

  //===--------------------------------------------------------------------===
  // Lowering helpers
  //===--------------------------------------------------------------------===

  void emit(Instr *I) { Body->Blocks[CurBlock].Instrs.push_back(I); }

  void emitTo(BlockId B, Instr *I) { Body->Blocks[B].Instrs.push_back(I); }

  void emitMov(RegId Dst, Operand Src, uint32_t Line) {
    Instr *I = Body->newInstr(Opcode::Mov);
    I->Dst = Dst;
    I->A = Src;
    I->Line = Line;
    emit(I);
  }

  Operand emitBinary(Opcode Op, Operand Lhs, Operand Rhs, uint32_t Line) {
    Instr *I = Body->newInstr(Op);
    I->Dst = Body->newReg();
    I->A = Lhs;
    I->B = Rhs;
    I->Line = Line;
    emit(I);
    return Operand::reg(I->Dst);
  }

  /// Ensures \p O is usable as a branch condition (regs and immediates both
  /// are; None is a parser bug).
  Operand materialize(Operand O, uint32_t Line) {
    assert(!O.isNone() && "materializing a missing operand");
    return O;
  }

  void appendJmpIfOpen(BlockId B, BlockId Target, uint32_t Line) {
    BasicBlock &BB = Body->Blocks[B];
    if (!BB.Instrs.empty() && BB.Instrs.back()->isTerm())
      return;
    Instr *I = Body->newInstr(Opcode::Jmp);
    I->T1 = Target;
    I->Line = Line;
    emitTo(B, I);
  }

  /// After a mid-block 'return': subsequent statements go into a fresh,
  /// unreachable block (cleaned up by SimplifyCfg).
  void startDeadBlock() { CurBlock = Body->newBlock(); }

  bool lowerStore(std::string_view Name, Operand V, uint32_t Line) {
    auto It = Locals.find(std::string(Name));
    if (It != Locals.end()) {
      emitMov(It->second, V, Line);
      return true;
    }
    GlobalId G = resolveGlobal(Name);
    if (G == InvalidId)
      return error("unknown identifier '" + std::string(Name) + "'");
    Instr *I = Body->newInstr(Opcode::StoreG);
    I->Sym = G;
    I->A = V;
    I->Line = Line;
    emit(I);
    return true;
  }

  bool lowerIndexedStore(std::string_view Name, Operand Idx, Operand V,
                         uint32_t Line) {
    GlobalId G = resolveGlobal(Name);
    if (G == InvalidId)
      return error("unknown array '" + std::string(Name) + "'");
    Instr *I = Body->newInstr(Opcode::StoreIdx);
    I->Sym = G;
    I->A = Idx;
    I->B = V;
    I->Line = Line;
    emit(I);
    return true;
  }

  GlobalId resolveGlobal(std::string_view Name) {
    // Module statics shadow externs of the same name.
    GlobalId G = P.findGlobalInModule(M, Name);
    if (G != InvalidId && firstTouch(GlobalTouched, G))
      touch(SymbolTouch::Kind::RefGlobal, G);
    return G;
  }

  //===--------------------------------------------------------------------===
  // Symbol trace (ModuleInfo::Touches, replayed by IL object readers)
  //===--------------------------------------------------------------------===

  void touch(SymbolTouch::Kind K, uint32_t Id, uint32_t Arg = 0,
             int64_t Init = 0) {
    P.module(M).Touches.push_back({K, Id, Arg, Init});
  }

  /// True the first time \p Id is referenced from this module's bodies:
  /// only first touches can change the program, later ones resolve alike.
  static bool firstTouch(std::vector<bool> &Seen, uint32_t Id) {
    if (Id >= Seen.size())
      Seen.resize(size_t(Id) + 1, false);
    if (Seen[Id])
      return false;
    Seen[Id] = true;
    return true;
  }

  Program &P;
  ModuleId M;
  std::vector<Token> Toks;
  size_t Pos = 0;
  std::string Err;

  std::unique_ptr<RoutineBody> Body;
  std::map<std::string, RegId> Locals;
  BlockId CurBlock = 0;
  std::vector<bool> RoutineTouched, GlobalTouched;
};

} // namespace

FrontendResult scmo::compileSource(Program &P, std::string_view ModuleName,
                                   std::string_view Source) {
  FrontendResult Result;
  std::string LexError;
  uint32_t LineCount = 0;
  std::vector<Token> Toks = lexSource(Source, LexError, &LineCount);
  if (!LexError.empty()) {
    Result.Error = std::string(ModuleName) + ": " + LexError;
    return Result;
  }
  ModuleId M = P.addModule(ModuleName);
  P.module(M).SourceLines = LineCount;
  Parser Psr(P, M, std::move(Toks));
  if (!Psr.run(Result.Error))
    return Result;
  Result.Module = M;
  Result.Ok = true;
  return Result;
}
