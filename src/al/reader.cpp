#include "al/reader.hpp"

#include <cctype>
#include <string_view>

#include "al/number.hpp"

namespace interop::al {

namespace {

/// A non-recursive reader: finished values wait on one value stack, and
/// each open list or pending quote is a frame recording where its values
/// start. Input nesting therefore never grows the C++ stack; the depth cap
/// still applies because destroying, printing and evaluating a Value all
/// recurse on its nesting.
class Reader {
 public:
  explicit Reader(const std::string& src) : src_(src) {}

  std::vector<Value> read_all() {
    std::vector<Value> out;
    while (true) {
      skip_space();
      if (pos_ >= src_.size()) {
        if (frames_.empty()) return out;
        // A pending quote wants a form; an open list wants its ')'.
        throw AlError(frames_.back().quote ? "unexpected end of input"
                                           : "unterminated list");
      }
      char c = src_[pos_];
      if (c == '(') {
        ++pos_;
        open(false);
      } else if (c == ')') {
        if (frames_.empty() || frames_.back().quote)
          throw AlError("unexpected ')'");
        ++pos_;
        std::size_t start = frames_.back().start;
        frames_.pop_back();
        auto first = values_.begin() + std::ptrdiff_t(start);
        Value list(Value::List(std::make_move_iterator(first),
                               std::make_move_iterator(values_.end())));
        values_.erase(first, values_.end());
        finish(std::move(list), out);
      } else if (c == '\'') {
        ++pos_;
        open(true);
      } else if (c == '"') {
        finish(read_string(), out);
      } else {
        finish(read_atom(), out);
      }
    }
  }

 private:
  struct Frame {
    std::size_t start;  ///< index of the frame's first value
    bool quote;         ///< 'x pending its form, else an open list
  };

  void open(bool quote) {
    if (frames_.size() >= kMaxNesting)
      throw AlError("nesting deeper than " + std::to_string(kMaxNesting) +
                    " levels");
    frames_.push_back({values_.size(), quote});
  }

  /// A complete value: it closes every quote waiting on it, then lands in
  /// the innermost open list, or among the top-level forms.
  void finish(Value v, std::vector<Value>& out) {
    while (!frames_.empty() && frames_.back().quote) {
      frames_.pop_back();
      // Built by moves: a braced list would copy the quoted form.
      Value::List quoted;
      quoted.reserve(2);
      quoted.push_back(Value::sym("quote"));
      quoted.push_back(std::move(v));
      v = Value(std::move(quoted));
    }
    if (frames_.empty())
      out.push_back(std::move(v));
    else
      values_.push_back(std::move(v));
  }

  void skip_space() {
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (c == ';') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else {
        break;
      }
    }
  }

  Value read_string() {
    ++pos_;  // consume opening quote
    std::string out;
    while (true) {
      if (pos_ >= src_.size()) throw AlError("unterminated string");
      char c = src_[pos_++];
      if (c == '"') return Value(std::move(out));
      if (c == '\\') {
        if (pos_ >= src_.size()) throw AlError("dangling escape");
        char e = src_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          default: throw AlError(std::string("unknown escape \\") + e);
        }
      } else {
        out += c;
      }
    }
  }

  static bool atom_char(char c) {
    return !std::isspace(static_cast<unsigned char>(c)) && c != '(' &&
           c != ')' && c != '"' && c != ';' && c != '\'';
  }

  Value read_atom() {
    std::size_t start = pos_;
    while (pos_ < src_.size() && atom_char(src_[pos_])) ++pos_;
    std::string_view tok(src_.data() + start, pos_ - start);
    if (tok == "nil") return Value::nil();
    if (tok == "#t") return Value(true);
    if (tok == "#f") return Value(false);
    // Locale-independent, range-checked (see al/number.hpp): an integer
    // literal outside int64 range falls through to double; a double
    // literal outside double range falls through to symbol.
    if (std::optional<std::int64_t> i = parse_int64(tok)) return Value(*i);
    if (std::optional<double> d = parse_double(tok)) return Value(*d);
    return Value::sym(std::string(tok));
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  std::vector<Value> values_;
  std::vector<Frame> frames_;
};

}  // namespace

std::vector<Value> read_all(const std::string& source) {
  return Reader(source).read_all();
}

Value read_one(const std::string& source) {
  std::vector<Value> forms = read_all(source);
  if (forms.size() != 1)
    throw AlError("expected exactly one form, got " +
                  std::to_string(forms.size()));
  return forms[0];
}

}  // namespace interop::al
