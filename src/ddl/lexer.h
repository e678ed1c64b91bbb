#ifndef MDM_DDL_LEXER_H_
#define MDM_DDL_LEXER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace mdm::ddl {

/// Token kinds shared by the DDL and QUEL front ends.
enum class TokenType {
  kIdentifier,   // note_in_chord, CHORD, retrieve
  kInteger,      // 578
  kFloat,        // 3.25
  kString,       // "The Star Spangled Banner" or 'G4'
  kLParen,       // (
  kRParen,       // )
  kComma,        // ,
  kEquals,       // =
  kNotEquals,    // !=
  kLess,         // <
  kLessEq,       // <=
  kGreater,      // >
  kGreaterEq,    // >=
  kDot,          // .
  kEnd,          // end of input
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;   // identifier / string contents / number text
  int64_t int_value = 0;
  double float_value = 0;
  size_t line = 1;    // 1-based, for error messages
};

/// Incremental tokenizer: yields one token per Next call without
/// building a token vector. Lex is a loop over it, and so is the QUEL
/// script-shape scan (quel/quel.h ScanScriptShape), which is how a
/// literal is recognized and converted the same way on both paths.
class Scanner {
 public:
  explicit Scanner(const std::string& text) : text_(text) {}

  /// Scans the next token into `*tok` (kEnd at the end of input). On
  /// return, [token_begin(), token_end()) is the token's source span.
  /// A character no token starts with, or an unterminated string, is a
  /// ParseError.
  Status Next(Token* tok);

  size_t token_begin() const { return begin_; }
  size_t token_end() const { return pos_; }

 private:
  const std::string& text_;
  size_t pos_ = 0;
  size_t begin_ = 0;
  size_t line_ = 1;
};

/// Tokenizes DDL/QUEL text. Comments run from `--` to end of line.
/// Identifiers are [A-Za-z_][A-Za-z0-9_#]* (the '#' admits DARMS-ish
/// names); keywords are not distinguished here — parsers match
/// identifiers case-insensitively.
Result<std::vector<Token>> Lex(const std::string& text);

}  // namespace mdm::ddl

#endif  // MDM_DDL_LEXER_H_
