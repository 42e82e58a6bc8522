#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"

namespace zac::json
{

namespace
{

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

[[noreturn]] void
kindMismatch(Kind want, Kind got)
{
    fatal(std::string("json: expected ") + kindName(want) + ", got " +
          kindName(got));
}

} // namespace

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        kindMismatch(Kind::Bool, kind_);
    return bool_;
}

double
Value::asDouble() const
{
    if (kind_ != Kind::Number)
        kindMismatch(Kind::Number, kind_);
    return num_;
}

std::int64_t
Value::asInt() const
{
    const double d = asDouble();
    // [-2^63, 2^63) is exactly the doubles int64 can hold; the negated
    // test also rejects NaN.
    if (!(d >= -0x1p63 && d < 0x1p63))
        fatal("json: number " + std::to_string(d) +
              " is outside the 64-bit integer range");
    const double r = std::nearbyint(d);
    if (std::abs(d - r) > 1e-9)
        fatal("json: number " + std::to_string(d) + " is not integral");
    return static_cast<std::int64_t>(r);
}

std::int32_t
Value::asInt32() const
{
    const double d = asDouble();
    // The negated test also rejects NaN; asInt() checks integrality.
    if (!(d >= INT32_MIN && d <= INT32_MAX)) {
        std::string msg = "json: number ";
        appendNumber(msg, d);
        fatal(msg + " is outside the 32-bit integer range");
    }
    return static_cast<std::int32_t>(asInt());
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::String)
        kindMismatch(Kind::String, kind_);
    return str_;
}

const Array &
Value::asArray() const
{
    if (kind_ != Kind::Array)
        kindMismatch(Kind::Array, kind_);
    return arr_;
}

Array &
Value::asArray()
{
    if (kind_ != Kind::Array)
        kindMismatch(Kind::Array, kind_);
    return arr_;
}

const Object &
Value::asObject() const
{
    if (kind_ != Kind::Object)
        kindMismatch(Kind::Object, kind_);
    return obj_;
}

Object &
Value::asObject()
{
    if (kind_ != Kind::Object)
        kindMismatch(Kind::Object, kind_);
    return obj_;
}

const Value &
Value::at(const std::string &key) const
{
    const Object &o = asObject();
    auto it = o.find(key);
    if (it == o.end())
        fatal("json: missing key '" + key + "'");
    return it->second;
}

bool
Value::contains(const std::string &key) const
{
    return kind_ == Kind::Object && obj_.count(key) > 0;
}

double
Value::numberOr(const std::string &key, double fallback) const
{
    if (!contains(key))
        return fallback;
    return at(key).asDouble();
}

const Value &
Value::at(std::size_t index) const
{
    const Array &a = asArray();
    if (index >= a.size())
        fatal("json: array index " + std::to_string(index) +
              " out of range (size " + std::to_string(a.size()) + ")");
    return a[index];
}

std::size_t
Value::size() const
{
    if (kind_ == Kind::Array)
        return arr_.size();
    if (kind_ == Kind::Object)
        return obj_.size();
    kindMismatch(Kind::Array, kind_);
}

void
appendString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double d)
{
    // The bytes printf writes for an integral value below 9e15 in
    // magnitude converted as long long, and for any other value (NaN
    // and infinities included) with %g at precision 17.
    char buf[32];
    std::to_chars_result r{};
    if (std::abs(d) < 9.0e15 &&
        static_cast<double>(static_cast<long long>(d)) == d)
        r = std::to_chars(buf, buf + sizeof(buf),
                          static_cast<long long>(d));
    else
        r = std::to_chars(buf, buf + sizeof(buf), d,
                          std::chars_format::general, 17);
    out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

namespace
{

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

} // namespace

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        appendNumber(out, num_);
        break;
      case Kind::String:
        appendString(out, str_);
        break;
      case Kind::Array: {
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        bool first = true;
        for (const Value &v : arr_) {
            if (!first)
                out += indent > 0 ? "," : ",";
            first = false;
            newlineIndent(out, indent, depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        if (obj_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        bool first = true;
        for (const auto &[key, v] : obj_) {
            if (!first)
                out += ",";
            first = false;
            newlineIndent(out, indent, depth + 1);
            appendString(out, key);
            out += indent > 0 ? ": " : ":";
            v.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace
{

/** Recursive-descent JSON parser with line/column diagnostics. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        skipWs();
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            error("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    error(const std::string &msg) const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("json parse error at line " + std::to_string(line) +
              ", col " + std::to_string(col) + ": " + msg);
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    char
    peek() const
    {
        if (atEnd())
            error("unexpected end of input");
        return text_[pos_];
    }

    char get() { char c = peek(); ++pos_; return c; }

    void
    skipWs()
    {
        while (!atEnd()) {
            char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    void
    expect(char c)
    {
        if (peek() != c)
            error(std::string("expected '") + c + "', got '" + peek() +
                  "'");
        ++pos_;
    }

    void
    expectKeyword(const char *kw)
    {
        for (const char *p = kw; *p; ++p) {
            if (atEnd() || text_[pos_] != *p)
                error(std::string("invalid literal, expected '") + kw +
                      "'");
            ++pos_;
        }
    }

    Value
    parseValue()
    {
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Value(parseString());
          case 't': expectKeyword("true"); return Value(true);
          case 'f': expectKeyword("false"); return Value(false);
          case 'n': expectKeyword("null"); return Value(nullptr);
          default: return parseNumber();
        }
    }

    Value
    parseObject()
    {
        expect('{');
        Object obj;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(obj));
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                error("expected string key");
            std::string key = parseString();
            skipWs();
            expect(':');
            skipWs();
            obj[std::move(key)] = parseValue();
            skipWs();
            char c = get();
            if (c == '}')
                break;
            if (c != ',')
                error("expected ',' or '}' in object");
        }
        return Value(std::move(obj));
    }

    Value
    parseArray()
    {
        expect('[');
        Array arr;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return Value(std::move(arr));
        }
        while (true) {
            skipWs();
            arr.push_back(parseValue());
            skipWs();
            char c = get();
            if (c == ']')
                break;
            if (c != ',')
                error("expected ',' or ']' in array");
        }
        return Value(std::move(arr));
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            char c = get();
            if (c == '"')
                break;
            if (c == '\\') {
                char e = get();
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = get();
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned>(h - 'A' + 10);
                        else
                            error("invalid \\u escape");
                    }
                    // UTF-8 encode (BMP only).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    error("invalid escape character");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                error("raw control character in string");
            } else {
                out += c;
            }
        }
        return out;
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (atEnd() || !std::isdigit(static_cast<unsigned char>(peek())))
            error("invalid number");
        while (!atEnd() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (!atEnd() && text_[pos_] == '.') {
            ++pos_;
            if (atEnd() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                error("digit required after decimal point");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (!atEnd() && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (atEnd() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                error("digit required in exponent");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        // strtod, not std::stod, which throws std::out_of_range past
        // the parser's FatalError contract: an underflowing literal
        // takes its rounded value, an overflowing one is an error.
        const double value =
            std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
        if (std::isinf(value)) {
            pos_ = start;
            error("number out of range");
        }
        return Value(value);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    Parser p(text);
    return p.parseDocument();
}

Value
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("json: cannot open file '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

void
writeFile(const std::string &path, const Value &v)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("json: cannot write file '" + path + "'");
    out << v.dump(2) << '\n';
    // A full disk surfaces only when the buffer is flushed.
    out.close();
    if (!out)
        fatal("json: failed writing file '" + path + "'");
}

} // namespace zac::json
