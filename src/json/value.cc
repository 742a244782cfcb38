#include "json/value.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace sharp
{
namespace json
{

const char *
typeName(Type type)
{
    switch (type) {
      case Type::Null: return "null";
      case Type::Boolean: return "boolean";
      case Type::Number: return "number";
      case Type::String: return "string";
      case Type::Array: return "array";
      case Type::Object: return "object";
    }
    return "unknown";
}

Value
Value::makeObject()
{
    Value value;
    value.tag = Type::Object;
    return value;
}

Value
Value::makeArray()
{
    Value value;
    value.tag = Type::Array;
    return value;
}

void
Value::typeMismatch(Type wanted) const
{
    throw TypeError(std::string("JSON value is ") + typeName(tag) +
                    ", expected " + typeName(wanted));
}

bool
Value::asBool() const
{
    if (tag != Type::Boolean)
        typeMismatch(Type::Boolean);
    return boolValue;
}

double
Value::asNumber() const
{
    if (tag != Type::Number)
        typeMismatch(Type::Number);
    return numValue;
}

long
Value::asLong() const
{
    return static_cast<long>(asNumber());
}

const std::string &
Value::asString() const
{
    if (tag != Type::String)
        typeMismatch(Type::String);
    return strValue;
}

const Value::Array &
Value::asArray() const
{
    if (tag != Type::Array)
        typeMismatch(Type::Array);
    return arrValue;
}

Value::Array &
Value::asArray()
{
    if (tag != Type::Array)
        typeMismatch(Type::Array);
    return arrValue;
}

const Value::Members &
Value::members() const
{
    if (tag != Type::Object)
        typeMismatch(Type::Object);
    return objValue;
}

size_t
Value::size() const
{
    if (tag == Type::Array)
        return arrValue.size();
    if (tag == Type::Object)
        return objValue.size();
    return 0;
}

void
Value::append(Value value)
{
    if (tag != Type::Array)
        typeMismatch(Type::Array);
    arrValue.push_back(std::move(value));
}

void
Value::set(const std::string &key, Value value)
{
    if (tag != Type::Object)
        typeMismatch(Type::Object);
    for (auto &member : objValue) {
        if (member.first == key) {
            member.second = std::move(value);
            return;
        }
    }
    objValue.emplace_back(key, std::move(value));
}

bool
Value::contains(const std::string &key) const
{
    return find(key) != nullptr;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *value = find(key);
    if (!value)
        throw std::out_of_range("JSON object has no member '" + key + "'");
    return *value;
}

const Value *
Value::find(const std::string &key) const
{
    if (tag != Type::Object)
        typeMismatch(Type::Object);
    for (const auto &member : objValue) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

bool
Value::isIntegerIn(double lo, double hi) const
{
    return tag == Type::Number && numValue == std::floor(numValue) &&
           numValue >= lo && numValue <= hi;
}

double
Value::getNumber(const std::string &key, double fallback) const
{
    const Value *value = find(key);
    return value && value->isNumber() ? value->asNumber() : fallback;
}

long
Value::getLong(const std::string &key, long fallback) const
{
    const Value *value = find(key);
    return value && value->isNumber() ? value->asLong() : fallback;
}

uint64_t
Value::getUint64(const std::string &key, uint64_t fallback) const
{
    const Value *value = find(key);
    if (!value)
        return fallback;
    if (value->isNumber()) {
        double num = value->asNumber();
        if (num < 0.0 || num != std::floor(num))
            throw TypeError("member '" + key +
                            "' must be a non-negative integer");
        return static_cast<uint64_t>(num);
    }
    if (value->isString()) {
        const std::string &text = value->asString();
        if (text.empty() ||
            text.find_first_not_of("0123456789") != std::string::npos)
            throw TypeError("member '" + key +
                            "' is not an unsigned decimal");
        errno = 0;
        char *end = nullptr;
        unsigned long long parsed =
            std::strtoull(text.c_str(), &end, 10);
        if (errno == ERANGE || end != text.c_str() + text.size())
            throw TypeError("member '" + key +
                            "' overflows 64 bits");
        return parsed;
    }
    throw TypeError("member '" + key +
                    "' must be a number or decimal string");
}

bool
Value::getBool(const std::string &key, bool fallback) const
{
    const Value *value = find(key);
    return value && value->isBool() ? value->asBool() : fallback;
}

std::string
Value::getString(const std::string &key, const std::string &fallback) const
{
    const Value *value = find(key);
    return value && value->isString() ? value->asString() : fallback;
}

bool
Value::operator==(const Value &other) const
{
    if (tag != other.tag)
        return false;
    switch (tag) {
      case Type::Null:
        return true;
      case Type::Boolean:
        return boolValue == other.boolValue;
      case Type::Number:
        return numValue == other.numValue;
      case Type::String:
        return strValue == other.strValue;
      case Type::Array:
        return arrValue == other.arrValue;
      case Type::Object:
        return objValue == other.objValue;
    }
    return false;
}

} // namespace json
} // namespace sharp
