// Minimal JSON value: build, serialize, parse.
//
// Wisdom files (tune/wisdom) and the chrome-trace validator tests need
// machine-readable JSON without an external dependency, so this is a
// deliberately small subset: objects keep insertion order, numbers are
// doubles (exact for the int64 range the counters use in practice is NOT
// guaranteed — counters are serialized as integers when they fit),
// strings support the standard escapes. Parsing is strict recursive
// descent; any trailing junk is an error.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bwfft {

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}           // NOLINT
  Json(double d) : type_(Type::Number), num_(d) {}        // NOLINT
  Json(int v) : type_(Type::Number), num_(v) {}           // NOLINT
  Json(std::int64_t v)                                    // NOLINT
      : type_(Type::Number), num_(static_cast<double>(v)), int_(v),
        is_int_(true) {}
  Json(std::uint64_t v)                                   // NOLINT
      : type_(Type::Number), num_(static_cast<double>(v)),
        int_(static_cast<std::int64_t>(v)), is_int_(true) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : type_(Type::String), str_(s) {}             // NOLINT

  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const { return bool_; }
  double as_double() const { return num_; }
  std::int64_t as_int() const {
    return is_int_ ? int_ : static_cast<std::int64_t>(num_);
  }
  const std::string& as_string() const { return str_; }
  const std::vector<Json>& items() const { return arr_; }

  /// Array append.
  void push_back(Json v) { arr_.push_back(std::move(v)); }
  std::size_t size() const { return arr_.size(); }
  const Json& operator[](std::size_t i) const { return arr_[i]; }

  /// Object set (insertion order preserved on dump).
  void set(const std::string& key, Json v);
  /// Object lookup; nullptr if absent or not an object.
  const Json* find(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return obj_;
  }

  /// Serialize. `indent` > 0 pretty-prints with that many spaces.
  std::string dump(int indent = 0) const;

  /// Strict parse of a complete document. Returns a Null value and sets
  /// *err on malformed input (when err != nullptr).
  static Json parse(const std::string& text, std::string* err = nullptr);
  static bool valid(const std::string& text, std::string* err = nullptr);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool is_int_ = false;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace bwfft
