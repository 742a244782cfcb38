/**
 * @file
 * Recursive-descent JSON parser (RFC 8259 subset: full JSON plus an
 * extension for `//` line comments, which SHARP config files may use).
 */

#ifndef SHARP_JSON_PARSER_HH
#define SHARP_JSON_PARSER_HH

#include <stdexcept>
#include <string>
#include <string_view>

#include "json/value.hh"

namespace sharp
{
namespace json
{

/** Thrown on malformed JSON input; carries a line/column position. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(const std::string &what, size_t line_in, size_t column_in)
        : std::runtime_error("JSON parse error at line " +
                             std::to_string(line_in) + ", column " +
                             std::to_string(column_in) + ": " + what),
          line(line_in), column(column_in)
    {}

    /** 1-based line of the error. */
    const size_t line;
    /** 1-based column of the error. */
    const size_t column;
};

/**
 * Parse a complete JSON document.
 *
 * @param text the document text; trailing whitespace is allowed, any
 *             other trailing content is an error. Duplicate object
 *             keys are rejected: silently keeping one of the two
 *             values would make config typos unobservable.
 * @param firstLine the line @p text begins on in its enclosing file,
 *             so a JSONL line parsed alone carries its file positions
 *             (values and errors alike).
 * @return the parsed value.
 * @throws ParseError on malformed input.
 */
Value parse(std::string_view text, size_t firstLine = 1);

/** Parse the contents of a file. @throws ParseError / std::runtime_error. */
Value parseFile(const std::string &path);

} // namespace json
} // namespace sharp

#endif // SHARP_JSON_PARSER_HH
