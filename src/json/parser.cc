#include "json/parser.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace sharp
{
namespace json
{

namespace
{

/**
 * Internal cursor over the input text, tracking line/column for
 * error messages.
 */
class Cursor
{
  public:
    Cursor(std::string_view text_in, size_t firstLine)
        : text(text_in), lineNum(firstLine)
    {}

    bool
    atEnd() const
    {
        return pos >= text.size();
    }

    char
    peek() const
    {
        return atEnd() ? '\0' : text[pos];
    }

    char
    advance()
    {
        char c = text[pos++];
        if (c == '\n') {
            ++lineNum;
            colNum = 1;
        } else {
            ++colNum;
        }
        return c;
    }

    void
    skipWhitespaceAndComments()
    {
        while (!atEnd()) {
            char c = peek();
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                advance();
            } else if (c == '/' && pos + 1 < text.size() &&
                       text[pos + 1] == '/') {
                while (!atEnd() && peek() != '\n')
                    advance();
            } else {
                break;
            }
        }
    }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw ParseError(what, lineNum, colNum);
    }

    void
    expect(char wanted)
    {
        if (atEnd() || peek() != wanted)
            fail(std::string("expected '") + wanted + "'");
        advance();
    }

    bool
    consumeKeyword(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return false;
        for (size_t i = 0; i < word.size(); ++i)
            advance();
        return true;
    }

    std::string_view text;
    size_t pos = 0;
    size_t lineNum;
    size_t colNum = 1;
};

constexpr int maxDepth = 256;

Value parseValue(Cursor &cur, int depth);

std::string
parseStringBody(Cursor &cur)
{
    cur.expect('"');
    std::string out;
    while (true) {
        if (cur.atEnd())
            cur.fail("unterminated string");
        char c = cur.advance();
        if (c == '"')
            break;
        if (c == '\\') {
            if (cur.atEnd())
                cur.fail("unterminated escape");
            char esc = cur.advance();
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      if (cur.atEnd())
                          cur.fail("truncated \\u escape");
                      char h = cur.advance();
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code |= static_cast<unsigned>(h - 'A' + 10);
                      else
                          cur.fail("invalid hex digit in \\u escape");
                  }
                  // Encode code point as UTF-8 (BMP only; surrogate
                  // pairs are passed through as two separate escapes).
                  if (code < 0x80) {
                      out.push_back(static_cast<char>(code));
                  } else if (code < 0x800) {
                      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                  } else {
                      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                      out.push_back(
                          static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                  }
                  break;
              }
              default:
                cur.fail("invalid escape character");
            }
        } else {
            out.push_back(c);
        }
    }
    return out;
}

Value
parseNumber(Cursor &cur)
{
    size_t start = cur.pos;
    if (cur.peek() == '-')
        cur.advance();
    if (!std::isdigit(static_cast<unsigned char>(cur.peek())))
        cur.fail("invalid number");
    while (std::isdigit(static_cast<unsigned char>(cur.peek())))
        cur.advance();
    if (cur.peek() == '.') {
        cur.advance();
        if (!std::isdigit(static_cast<unsigned char>(cur.peek())))
            cur.fail("digit expected after decimal point");
        while (std::isdigit(static_cast<unsigned char>(cur.peek())))
            cur.advance();
    }
    if (cur.peek() == 'e' || cur.peek() == 'E') {
        cur.advance();
        if (cur.peek() == '+' || cur.peek() == '-')
            cur.advance();
        if (!std::isdigit(static_cast<unsigned char>(cur.peek())))
            cur.fail("digit expected in exponent");
        while (std::isdigit(static_cast<unsigned char>(cur.peek())))
            cur.advance();
    }
    std::string token(cur.text.substr(start, cur.pos - start));
    double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value))
        cur.fail("number out of range");
    return Value(value);
}

Value
parseArray(Cursor &cur, int depth)
{
    cur.expect('[');
    Value out = Value::makeArray();
    cur.skipWhitespaceAndComments();
    if (cur.peek() == ']') {
        cur.advance();
        return out;
    }
    while (true) {
        out.append(parseValue(cur, depth + 1));
        cur.skipWhitespaceAndComments();
        if (cur.peek() == ',') {
            cur.advance();
            cur.skipWhitespaceAndComments();
        } else if (cur.peek() == ']') {
            cur.advance();
            return out;
        } else {
            cur.fail("expected ',' or ']' in array");
        }
    }
}

Value
parseObject(Cursor &cur, int depth)
{
    cur.expect('{');
    Value out = Value::makeObject();
    cur.skipWhitespaceAndComments();
    if (cur.peek() == '}') {
        cur.advance();
        return out;
    }
    while (true) {
        cur.skipWhitespaceAndComments();
        if (cur.peek() != '"')
            cur.fail("expected string key in object");
        std::string key = parseStringBody(cur);
        if (out.contains(key))
            cur.fail("duplicate object key \"" + key + "\"");
        cur.skipWhitespaceAndComments();
        cur.expect(':');
        out.set(key, parseValue(cur, depth + 1));
        cur.skipWhitespaceAndComments();
        if (cur.peek() == ',') {
            cur.advance();
        } else if (cur.peek() == '}') {
            cur.advance();
            return out;
        } else {
            cur.fail("expected ',' or '}' in object");
        }
    }
}

Value
parseValue(Cursor &cur, int depth)
{
    if (depth > maxDepth)
        cur.fail("nesting too deep");
    cur.skipWhitespaceAndComments();
    if (cur.atEnd())
        cur.fail("unexpected end of input");
    // Every parsed value remembers where its first token begins, so
    // validators above the parser can point diagnostics at the
    // offending line (see json::Location).
    Location where{static_cast<uint32_t>(cur.lineNum),
                   static_cast<uint32_t>(cur.colNum)};
    Value out;
    char c = cur.peek();
    if (c == '{')
        out = parseObject(cur, depth);
    else if (c == '[')
        out = parseArray(cur, depth);
    else if (c == '"')
        out = Value(parseStringBody(cur));
    else if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
        out = parseNumber(cur);
    else if (cur.consumeKeyword("true"))
        out = Value(true);
    else if (cur.consumeKeyword("false"))
        out = Value(false);
    else if (cur.consumeKeyword("null"))
        out = Value(nullptr);
    else
        cur.fail("unexpected character");
    out.setLocation(where);
    return out;
}

} // anonymous namespace

Value
parse(std::string_view text, size_t firstLine)
{
    Cursor cur(text, firstLine);
    Value value = parseValue(cur, 0);
    cur.skipWhitespaceAndComments();
    if (!cur.atEnd())
        cur.fail("trailing content after JSON document");
    return value;
}

Value
parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open JSON file: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

} // namespace json
} // namespace sharp
