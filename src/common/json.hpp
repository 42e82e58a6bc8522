/**
 * @file
 * A small self-contained JSON DOM: parser, writer, and value type.
 *
 * Used for the zoned-architecture specification files (paper Fig. 20) and
 * for ZAIR program serialization (paper Fig. 17/19). Supports the full
 * JSON grammar except \u surrogate pairs beyond the BMP; numbers are
 * stored as double (integers up to 2^53 round-trip exactly, which covers
 * every quantity in this domain).
 */

#ifndef ZAC_COMMON_JSON_HPP
#define ZAC_COMMON_JSON_HPP

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace zac::json
{

class Value;

using Array = std::vector<Value>;
/// std::map keeps keys ordered, giving deterministic serialization.
using Object = std::map<std::string, Value>;

/** Discriminator for the JSON value kinds. */
enum class Kind { Null, Bool, Number, String, Array, Object };

/**
 * A JSON value (tagged union over the six JSON kinds).
 *
 * Accessors are checked: asX() throws zac::FatalError on a kind mismatch
 * so malformed architecture files fail loudly rather than silently.
 */
class Value
{
  public:
    Value() : kind_(Kind::Null) {}
    Value(std::nullptr_t) : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(int v) : kind_(Kind::Number), num_(v) {}
    Value(std::int64_t v)
        : kind_(Kind::Number), num_(static_cast<double>(v)) {}
    Value(std::size_t v)
        : kind_(Kind::Number), num_(static_cast<double>(v)) {}
    Value(double v) : kind_(Kind::Number), num_(v) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Value(Array a) : kind_(Kind::Array), arr_(std::move(a)) {}
    Value(Object o) : kind_(Kind::Object), obj_(std::move(o)) {}

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const;
    double asDouble() const;
    /** Number accessor that checks the value is (close to) integral
     *  and within the int64 range. */
    std::int64_t asInt() const;
    /** asInt() for a value that must also fit in 32 bits: every
     *  count, id and index a loader stores in an int. */
    std::int32_t asInt32() const;
    const std::string &asString() const;
    const Array &asArray() const;
    Array &asArray();
    const Object &asObject() const;
    Object &asObject();

    /** Object member lookup; throws if absent or if not an object. */
    const Value &at(const std::string &key) const;
    /** @return whether this is an object containing @p key. */
    bool contains(const std::string &key) const;
    /** Object member lookup with a default for absent keys. */
    double numberOr(const std::string &key, double fallback) const;

    /** Array element access; throws on out-of-range. */
    const Value &at(std::size_t index) const;
    std::size_t size() const;

    /** Serialize; @p indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    Array arr_;
    Object obj_;
};

/**
 * Parse a JSON document.
 * @param text the complete document.
 * @return the root value.
 * @throws zac::FatalError with a line/column diagnostic on syntax errors.
 */
Value parse(const std::string &text);

/** Parse the JSON document stored in the file at @p path. */
Value parseFile(const std::string &path);

/**
 * Write @p v to the file at @p path, pretty-printed (dump(2) and a
 * newline).
 * @throws zac::FatalError naming @p path when it cannot be opened or
 *         a write fails, e.g. on a full disk.
 */
void writeFile(const std::string &path, const Value &v);

/** Append @p s as a quoted, escaped JSON string literal. */
void appendString(std::string &out, const std::string &s);

/**
 * Append @p d as a JSON number: an integral value below 9e15 in
 * magnitude as an integer, any other value with 17 significant digits,
 * byte for byte as printf's %lld and %g at precision 17 write them.
 * Value::dump and the ZAIR stream writer both format numbers here.
 */
void appendNumber(std::string &out, double d);

} // namespace zac::json

#endif // ZAC_COMMON_JSON_HPP
