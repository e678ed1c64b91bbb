#include "ddl/lexer.h"

#include <cstdlib>

#include "common/strings.h"

namespace mdm::ddl {

namespace {

// ASCII character classes, as <cctype> gives them in the "C" locale
// (the process never sets another), inline: the scanner classifies
// every character of every script it sees.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) { return (c | 0x20) >= 'a' && (c | 0x20) <= 'z'; }
bool IsAlnum(char c) { return IsAlpha(c) || IsDigit(c); }
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

Status Scanner::Next(Token* tok) {
  const std::string& text = text_;
  size_t& i = pos_;
  auto set = [&](TokenType t, size_t len) {
    tok->type = t;
    tok->text.clear();
    tok->line = line_;
    i += len;
    return Status::OK();
  };
  while (i < text.size()) {
    char c = text[i];
    if (c == '\n') {
      ++line_;
      ++i;
      continue;
    }
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < text.size() && text[i + 1] == '-') {
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    begin_ = i;
    if (IsAlpha(c) || c == '_') {
      size_t start = i;
      while (i < text.size() &&
             (IsAlnum(text[i]) || text[i] == '_' || text[i] == '#'))
        ++i;
      tok->type = TokenType::kIdentifier;
      tok->text.assign(text, start, i - start);
      tok->line = line_;
      return Status::OK();
    }
    if (IsDigit(c) ||
        (c == '-' && i + 1 < text.size() && IsDigit(text[i + 1]))) {
      size_t start = i;
      if (c == '-') ++i;
      bool is_float = false;
      while (i < text.size() && (IsDigit(text[i]) || text[i] == '.')) {
        if (text[i] == '.') {
          // A second '.' ends the number (e.g. range syntax; not used,
          // but don't swallow it).
          if (is_float) break;
          is_float = true;
        }
        ++i;
      }
      tok->text.assign(text, start, i - start);
      tok->line = line_;
      if (is_float) {
        tok->type = TokenType::kFloat;
        tok->float_value = std::strtod(tok->text.c_str(), nullptr);
      } else {
        tok->type = TokenType::kInteger;
        tok->int_value = std::strtoll(tok->text.c_str(), nullptr, 10);
      }
      return Status::OK();
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      ++i;
      tok->text.clear();
      bool closed = false;
      while (i < text.size()) {
        if (text[i] == quote) {
          closed = true;
          ++i;
          break;
        }
        if (text[i] == '\n') ++line_;
        if (text[i] == '\\' && i + 1 < text.size()) ++i;  // escape
        tok->text += text[i++];
      }
      if (!closed)
        return ParseError(StrFormat("unterminated string at line %zu", line_));
      tok->type = TokenType::kString;
      tok->line = line_;
      return Status::OK();
    }
    switch (c) {
      case '(': return set(TokenType::kLParen, 1);
      case ')': return set(TokenType::kRParen, 1);
      case ',': return set(TokenType::kComma, 1);
      case '.': return set(TokenType::kDot, 1);
      case '=': return set(TokenType::kEquals, 1);
      case '!':
        if (i + 1 < text.size() && text[i + 1] == '=')
          return set(TokenType::kNotEquals, 2);
        return ParseError(StrFormat("stray '!' at line %zu", line_));
      case '<':
        if (i + 1 < text.size() && text[i + 1] == '=')
          return set(TokenType::kLessEq, 2);
        if (i + 1 < text.size() && text[i + 1] == '>')
          return set(TokenType::kNotEquals, 2);
        return set(TokenType::kLess, 1);
      case '>':
        if (i + 1 < text.size() && text[i + 1] == '=')
          return set(TokenType::kGreaterEq, 2);
        return set(TokenType::kGreater, 1);
      default:
        return ParseError(
            StrFormat("unexpected character '%c' at line %zu", c, line_));
    }
  }
  begin_ = i;
  return set(TokenType::kEnd, 0);
}

Result<std::vector<Token>> Lex(const std::string& text) {
  std::vector<Token> out;
  Scanner scanner(text);
  do {
    out.emplace_back();
    MDM_RETURN_IF_ERROR(scanner.Next(&out.back()));
  } while (out.back().type != TokenType::kEnd);
  return out;
}

}  // namespace mdm::ddl
