#include <gtest/gtest.h>

#include <clocale>
#include <cstring>

#include "al/interp.hpp"
#include "al/number.hpp"
#include "al/reader.hpp"

namespace interop::al {
namespace {

// ------------------------------------------------------------------ reader

TEST(Reader, Atoms) {
  EXPECT_TRUE(read_one("nil").is_nil());
  EXPECT_EQ(read_one("42").as_int(), 42);
  EXPECT_EQ(read_one("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(read_one("2.5").as_double(), 2.5);
  EXPECT_TRUE(read_one("#t").as_bool());
  EXPECT_FALSE(read_one("#f").as_bool());
  EXPECT_EQ(read_one("\"hi\\nthere\"").as_string(), "hi\nthere");
  EXPECT_EQ(read_one("foo-bar").as_symbol().name, "foo-bar");
}

TEST(Reader, ListsAndQuote) {
  Value v = read_one("(a (b 1) \"s\")");
  ASSERT_TRUE(v.is_list());
  EXPECT_EQ(v.as_list().size(), 3u);
  Value q = read_one("'x");
  EXPECT_EQ(q.write(), "(quote x)");
}

TEST(Reader, CommentsAndMultipleForms) {
  auto forms = read_all("1 ; comment\n2 3");
  EXPECT_EQ(forms.size(), 3u);
  EXPECT_EQ(forms[2].as_int(), 3);
}

TEST(Reader, Errors) {
  EXPECT_THROW(read_one("(unterminated"), AlError);
  EXPECT_THROW(read_one("\"open"), AlError);
  EXPECT_THROW(read_one(")"), AlError);
  EXPECT_THROW(read_one("1 2"), AlError);
}

// The reader keeps its own stack, so the nesting depth it accepts is a
// chosen cap, not whatever the C++ stack happens to hold.
std::string nested(std::size_t depth, bool balanced) {
  return std::string(depth, '(') + (balanced ? std::string(depth, ')') : "");
}

std::string read_error(const std::string& src) {
  try {
    read_all(src);
  } catch (const AlError& e) {
    return e.what();
  }
  return "";
}

TEST(Reader, BalancedNestingAtTheCapReads) {
  Value v = read_one(nested(kMaxNesting, true));
  std::size_t depth = 1;
  for (const Value* cur = &v; !cur->as_list().empty();
       cur = &cur->as_list().front())
    ++depth;
  EXPECT_EQ(depth, kMaxNesting);
  // Quotes nest too: each one wraps its form in (quote ...).
  Value q = read_one(std::string(kMaxNesting, '\'') + "x");
  EXPECT_TRUE(q.is_list());
  EXPECT_EQ(read_error(std::string(kMaxNesting - 1, '(') + "'x" +
                       std::string(kMaxNesting - 1, ')')),
            "");
}

TEST(Reader, OpenNestingAtTheCapIsUnterminated) {
  EXPECT_EQ(read_error(nested(kMaxNesting, false)), "unterminated list");
  EXPECT_EQ(read_error(std::string(kMaxNesting, '\'')),
            "unexpected end of input");
}

TEST(Reader, NestingPastTheCapIsRefused) {
  const std::string too_deep =
      "nesting deeper than " + std::to_string(kMaxNesting) + " levels";
  EXPECT_EQ(read_error(nested(kMaxNesting + 1, true)), too_deep);
  EXPECT_EQ(read_error(nested(kMaxNesting + 1, false)), too_deep);
  EXPECT_EQ(read_error(std::string(kMaxNesting + 1, '\'') + "x"), too_deep);
  EXPECT_EQ(read_error(std::string(kMaxNesting, '(') + "'x" +
                       std::string(kMaxNesting, ')')),
            too_deep);
  // Far past the cap: this used to overflow the C++ stack.
  EXPECT_EQ(read_error(nested(100000, false)), too_deep);
  EXPECT_EQ(read_error(nested(100000, true)), too_deep);
}

TEST(Reader, ErrorMessages) {
  EXPECT_EQ(read_error("(a (b"), "unterminated list");
  EXPECT_EQ(read_error("(a ')"), "unexpected ')'");
  EXPECT_EQ(read_error("1 )"), "unexpected ')'");
  EXPECT_EQ(read_error("(a '"), "unexpected end of input");
  EXPECT_EQ(read_error("'(a"), "unterminated list");
  EXPECT_EQ(read_error("(\"abc"), "unterminated string");
  EXPECT_EQ(read_error("\"a\\"), "dangling escape");
  EXPECT_EQ(read_error("\"\\q\""), "unknown escape \\q");
  EXPECT_EQ(read_error("(a ; comment )\n b)"), "");
}

TEST(Reader, WriteRoundTrip) {
  for (const char* src :
       {"(1 2 3)", "(a \"b\" 2.5 #t nil)", "(quote (x y))"}) {
    Value v = read_one(src);
    EXPECT_TRUE(read_one(v.write()).equals(v)) << src;
  }
}

// Regression: strtoll used to clamp out-of-range integers to INT64_MAX
// with errno silently ignored. An over-wide integer literal now falls
// through to double (still the same number, just inexact), never a
// truncated int64.
TEST(Reader, OutOfRangeIntegerFallsThroughToDouble) {
  Value v = read_one("99999999999999999999");
  ASSERT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.as_double(), 1e20);
  Value neg = read_one("-99999999999999999999");
  ASSERT_TRUE(neg.is_double());
  EXPECT_DOUBLE_EQ(neg.as_double(), -1e20);
  // The int64 boundary itself still reads exactly.
  EXPECT_EQ(read_one("9223372036854775807").as_int(),
            std::int64_t(9223372036854775807LL));
  ASSERT_TRUE(read_one("9223372036854775808").is_double());
}

// Regression: strtod used to turn 1e99999 into inf (ERANGE ignored).
// a/L numeric literals are finite by policy: anything out of double range
// — in either direction — is a symbol, as are inf/nan spellings.
TEST(Reader, OutOfRangeDoubleFallsThroughToSymbol) {
  EXPECT_TRUE(read_one("1e99999").is_symbol());
  EXPECT_TRUE(read_one("-1e99999").is_symbol());
  EXPECT_TRUE(read_one("1e-99999").is_symbol());
  EXPECT_TRUE(read_one("inf").is_symbol());
  EXPECT_TRUE(read_one("nan").is_symbol());
  EXPECT_TRUE(read_one("-inf").is_symbol());
}

TEST(Reader, PlusPrefixedNumbers) {
  EXPECT_EQ(read_one("+5").as_int(), 5);
  EXPECT_DOUBLE_EQ(read_one("+2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(read_one("+.5").as_double(), 0.5);
  EXPECT_TRUE(read_one("+").is_symbol());
  EXPECT_TRUE(read_one("+-5").is_symbol());
  EXPECT_TRUE(read_one("+x").is_symbol());
}

// The reader must not care about LC_NUMERIC: under a comma-decimal locale
// strtod would parse "1.5" as 1 (stopping at the period) or print 1.5 as
// "1,5". std::from_chars/std::to_chars are locale-independent by spec.
TEST(Reader, CommaDecimalLocaleDoesNotChangeParsing) {
  std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  const char* comma_locale = nullptr;
  for (const char* cand : {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
                           "fr_FR.utf8", "fr_FR"}) {
    if (std::setlocale(LC_NUMERIC, cand)) {
      comma_locale = cand;
      break;
    }
  }
  if (!comma_locale) {
    std::setlocale(LC_NUMERIC, saved.c_str());
    GTEST_SKIP() << "no comma-decimal locale installed in this image";
  }
  Value v = read_one("1.5");
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.as_double(), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("2.75").value_or(0), 2.75);
  EXPECT_EQ(format_double(2.5), "2.5");  // not "2,5"
  Interpreter interp;
  EXPECT_DOUBLE_EQ(interp.eval_source("(string->number \"2.5\")").as_double(),
                   2.5);
  EXPECT_EQ(interp.eval_source("(number->string 2.5)").as_string(), "2.5");
  std::setlocale(LC_NUMERIC, saved.c_str());
}

// ------------------------------------------------------------------- eval

/// The whole evaluator suite runs on BOTH engines: the tree-walker oracle
/// and the bytecode VM must be observationally identical.
class AlEval : public ::testing::TestWithParam<Engine> {
 protected:
  AlEval() { interp.set_engine(GetParam()); }
  Value run(const std::string& src) { return interp.eval_source(src); }
  Interpreter interp;
};

INSTANTIATE_TEST_SUITE_P(Engines, AlEval,
                         ::testing::Values(Engine::TreeWalker,
                                           Engine::Bytecode),
                         [](const ::testing::TestParamInfo<Engine>& info) {
                           return info.param == Engine::TreeWalker
                                      ? "TreeWalker"
                                      : "Bytecode";
                         });

TEST_P(AlEval, Arithmetic) {
  EXPECT_EQ(run("(+ 1 2 3)").as_int(), 6);
  EXPECT_EQ(run("(- 10 4 1)").as_int(), 5);
  EXPECT_EQ(run("(* 2 3 4)").as_int(), 24);
  EXPECT_EQ(run("(/ 10 2)").as_int(), 5);
  EXPECT_DOUBLE_EQ(run("(/ 1 2)").as_double(), 0.5);
  EXPECT_EQ(run("(mod 7 3)").as_int(), 1);
  EXPECT_EQ(run("(min 3 1 2)").as_int(), 1);
  EXPECT_EQ(run("(max 3 1 2)").as_int(), 3);
  EXPECT_DOUBLE_EQ(run("(+ 1 0.5)").as_double(), 1.5);
}

TEST_P(AlEval, ComparisonAndLogic) {
  EXPECT_TRUE(run("(< 1 2 3)").as_bool());
  EXPECT_FALSE(run("(< 1 3 2)").as_bool());
  EXPECT_TRUE(run("(= 2 2)").as_bool());
  EXPECT_TRUE(run("(equal? (list 1 2) (list 1 2))").as_bool());
  EXPECT_TRUE(run("(not #f)").as_bool());
  EXPECT_EQ(run("(and 1 2 3)").as_int(), 3);
  EXPECT_FALSE(run("(and 1 #f 3)").as_bool());
  EXPECT_EQ(run("(or #f 7)").as_int(), 7);
}

TEST_P(AlEval, SpecialForms) {
  EXPECT_EQ(run("(if (> 2 1) 10 20)").as_int(), 10);
  EXPECT_EQ(run("(if #f 10)").is_nil(), true);
  EXPECT_EQ(run("(cond ((= 1 2) 5) ((= 1 1) 6) (else 7))").as_int(), 6);
  EXPECT_EQ(run("(cond ((= 1 2) 5) (else 7))").as_int(), 7);
  EXPECT_EQ(run("(begin 1 2 3)").as_int(), 3);
  EXPECT_EQ(run("(let ((x 2) (y 3)) (* x y))").as_int(), 6);
  run("(define z 9)");
  EXPECT_EQ(run("z").as_int(), 9);
  run("(set! z 11)");
  EXPECT_EQ(run("z").as_int(), 11);
  EXPECT_THROW(run("(set! unbound 1)"), AlError);
}

TEST_P(AlEval, LambdasAndClosures) {
  run("(define (adder n) (lambda (x) (+ x n)))");
  run("(define add5 (adder 5))");
  EXPECT_EQ(run("(add5 10)").as_int(), 15);
  // Closures capture their own frame.
  run("(define add7 (adder 7))");
  EXPECT_EQ(run("(add5 1)").as_int(), 6);
  EXPECT_EQ(run("(add7 1)").as_int(), 8);
  EXPECT_THROW(run("(add5 1 2)"), AlError);  // arity
}

TEST_P(AlEval, Recursion) {
  run("(define (fact n) (if (<= n 1) 1 (* n (fact (- n 1)))))");
  EXPECT_EQ(run("(fact 10)").as_int(), 3628800);
}

TEST_P(AlEval, WhileLoop) {
  run("(define i 0) (define acc 0)");
  run("(while (< i 5) (set! acc (+ acc i)) (set! i (+ i 1)))");
  EXPECT_EQ(run("acc").as_int(), 10);
}

TEST_P(AlEval, StringBuiltins) {
  EXPECT_EQ(run("(string-append \"a\" \"b\" 3)").as_string(), "ab3");
  EXPECT_EQ(run("(string-length \"abcd\")").as_int(), 4);
  EXPECT_EQ(run("(substring \"hello\" 1 3)").as_string(), "el");
  EXPECT_EQ(run("(string-upcase \"ab\")").as_string(), "AB");
  EXPECT_EQ(run("(string-downcase \"AB\")").as_string(), "ab");
  Value parts = run("(string-split \"r:4.7k:2p\" \":\")");
  ASSERT_TRUE(parts.is_list());
  EXPECT_EQ(parts.as_list().size(), 3u);
  EXPECT_EQ(parts.as_list()[1].as_string(), "4.7k");
  EXPECT_EQ(run("(string-replace \"a.b\" \".\" \"_\")").as_string(), "a_b");
  EXPECT_EQ(run("(string-index \"hello\" \"ll\")").as_int(), 2);
  EXPECT_FALSE(run("(string-index \"hello\" \"z\")").truthy());
  EXPECT_TRUE(run("(string-prefix? \"vl_res\" \"vl_\")").as_bool());
  EXPECT_TRUE(run("(string-suffix? \"x.sch\" \".sch\")").as_bool());
  EXPECT_EQ(run("(string-trim \"  x \")").as_string(), "x");
  EXPECT_EQ(run("(string->number \"42\")").as_int(), 42);
  EXPECT_DOUBLE_EQ(run("(string->number \"2.5\")").as_double(), 2.5);
  EXPECT_FALSE(run("(string->number \"4.7k\")").truthy());
  EXPECT_EQ(run("(number->string 7)").as_string(), "7");
}

TEST_P(AlEval, ListBuiltins) {
  EXPECT_EQ(run("(length (list 1 2 3))").as_int(), 3);
  EXPECT_EQ(run("(first (list 4 5))").as_int(), 4);
  EXPECT_EQ(run("(rest (list 4 5 6))").as_list().size(), 2u);
  EXPECT_EQ(run("(nth (list 4 5 6) 2)").as_int(), 6);
  EXPECT_EQ(run("(cons 0 (list 1))").as_list().size(), 2u);
  EXPECT_EQ(run("(append (list 1) (list 2 3))").as_list().size(), 3u);
  EXPECT_EQ(run("(reverse (list 1 2 3))").as_list()[0].as_int(), 3);
  EXPECT_THROW(run("(nth (list 1) 5)"), AlError);
}

TEST_P(AlEval, HigherOrder) {
  EXPECT_EQ(run("(map (lambda (x) (* x x)) (list 1 2 3))").write(),
            "(1 4 9)");
  EXPECT_EQ(run("(filter (lambda (x) (> x 1)) (list 0 1 2 3))").write(),
            "(2 3)");
  EXPECT_EQ(run("(foldl + 0 (list 1 2 3 4))").as_int(), 10);
}

TEST_P(AlEval, StepLimitGuardsRunaway) {
  interp.set_step_limit(1000);
  EXPECT_THROW(run("(while #t 1)"), AlError);
}

TEST_P(AlEval, CallDepthGuardsRunawayRecursion) {
  run("(define (f) (f))");
  EXPECT_THROW(run("(f)"), AlError);
  // Legitimate deep-but-bounded recursion still works under the limit.
  interp.set_max_call_depth(64);
  run("(define (count n) (if (<= n 0) 0 (+ 1 (count (- n 1)))))");
  EXPECT_EQ(run("(count 50)").as_int(), 50);
  EXPECT_THROW(run("(count 100)"), AlError);
}

TEST_P(AlEval, HostBuiltinRegistration) {
  int called = 0;
  interp.register_builtin("host-fn", [&called](std::vector<Value>& args) {
    called = int(args[0].as_int());
    return Value(args[0].as_int() * 2);
  });
  EXPECT_EQ(run("(host-fn 21)").as_int(), 42);
  EXPECT_EQ(called, 21);
}

TEST_P(AlEval, Truthiness) {
  EXPECT_FALSE(Value().truthy());
  EXPECT_FALSE(Value(false).truthy());
  EXPECT_TRUE(Value(0).truthy());  // 0 is true, Lisp-style
  EXPECT_TRUE(Value("").truthy());
}

}  // namespace
}  // namespace interop::al
