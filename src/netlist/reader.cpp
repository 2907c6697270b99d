#include "netlist/reader.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <map>
#include <optional>
#include <tuple>

namespace desyn::nl {

namespace {

struct Token {
  enum Type { Id, Punct, Str, End } type = End;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip();
    if (pos_ >= text_.size()) return {Token::End, ""};
    char c = text_[pos_];
    if (c == '\\') {  // escaped identifier: up to next whitespace
      ++pos_;
      size_t s = pos_;
      while (pos_ < text_.size() && !std::isspace(uc(text_[pos_]))) ++pos_;
      return {Token::Id, std::string(text_.substr(s, pos_ - s))};
    }
    if (c == '"') {
      ++pos_;
      size_t s = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
      if (pos_ >= text_.size()) fail("verilog: unterminated string");
      std::string v(text_.substr(s, pos_ - s));
      ++pos_;
      return {Token::Str, v};
    }
    if (std::isalnum(uc(c)) || c == '_') {
      size_t s = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(uc(text_[pos_])) || text_[pos_] == '_')) {
        ++pos_;
      }
      return {Token::Id, std::string(text_.substr(s, pos_ - s))};
    }
    // Multi-char attribute delimiters (* and *).
    if (c == '(' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
      pos_ += 2;
      return {Token::Punct, "(*"};
    }
    if (c == '*' && pos_ + 1 < text_.size() && text_[pos_ + 1] == ')') {
      pos_ += 2;
      return {Token::Punct, "*)"};
    }
    ++pos_;
    return {Token::Punct, std::string(1, c)};
  }

  Token peek() {
    size_t save = pos_;
    Token t = next();
    pos_ = save;
    return t;
  }

  /// 1-based line of the current position (computed lazily: error paths
  /// only, so the hot path pays nothing for location tracking).
  int line() const {
    int l = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++l;
    }
    return l;
  }

 private:
  static unsigned char uc(char c) { return static_cast<unsigned char>(c); }
  void skip() {
    for (;;) {
      while (pos_ < text_.size() && std::isspace(uc(text_[pos_]))) ++pos_;
      if (pos_ + 1 < text_.size() && text_[pos_] == '/' &&
          text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      break;
    }
  }
  std::string_view text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  Parser(std::string_view text, std::string_view source)
      : lex_(text), source_(source) {}

  Netlist parse() {
    expect_id("module");
    Token name = expect(Token::Id);
    Netlist nl(name.text);
    expect_punct("(");
    parse_ports(nl);
    expect_punct(")");
    expect_punct(";");
    for (const std::string& out : output_names_) {
      NetId n = nl.add_net(out);
      if (nl.net(n).name != out) err("duplicate output '", out, "'");
      nl.mark_output(n);
    }
    for (;;) {
      Token t = lex_.next();
      if (t.type == Token::Id && t.text == "endmodule") break;
      if (t.type == Token::End) err("missing endmodule");
      if (t.type == Token::Id && t.text == "wire") {
        Token w = expect(Token::Id);
        NetId n = nl.add_net(w.text);
        if (nl.net(n).name != w.text) err("duplicate wire '", w.text, "'");
        expect_punct(";");
        continue;
      }
      if (t.type == Token::Punct && t.text == "(*") {
        parse_attributes();
        continue;
      }
      if (t.type == Token::Id) {
        parse_instance(nl, t.text);
        continue;
      }
      err("unexpected token '", t.text, "'");
    }
    return nl;
  }

 private:
  template <typename... Args>
  [[noreturn]] void err(const Args&... args) const {
    fail(source_, ":", lex_.line(), ": ", args...);
  }

  /// Checked integer parse: the whole token must be a number in
  /// [`lo`, `hi`]. Reports `what` with file/line on any malformed or
  /// out-of-range input (the job std::stoi used to abort instead of doing).
  int64_t parse_int(std::string_view digits, int64_t lo, int64_t hi,
                    const char* what, int base = 10) const {
    int64_t v = 0;
    auto [p, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), v, base);
    if (ec != std::errc() || p != digits.data() + digits.size()) {
      err("malformed ", what, " '", digits, "'");
    }
    if (v < lo || v > hi) {
      err(what, " ", v, " out of range [", lo, ", ", hi, "]");
    }
    return v;
  }

  uint64_t parse_u64(std::string_view digits, const char* what,
                     int base) const {
    uint64_t v = 0;
    auto [p, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), v, base);
    if (ec != std::errc() || p != digits.data() + digits.size() ||
        digits.empty()) {
      err("malformed ", what, " '", digits, "'");
    }
    return v;
  }

  /// Maps "AND3" -> (Kind::And, arity 3); plain names -> fixed arity kinds.
  std::pair<cell::Kind, int> parse_type(const std::string& t) const {
    static const std::map<std::string, cell::Kind> fixed = [] {
      std::map<std::string, cell::Kind> m;
      for (int i = 0; i <= static_cast<int>(cell::Kind::Ram); ++i) {
        cell::Kind k = static_cast<cell::Kind>(i);
        m[cell::kind_name(k)] = k;
      }
      return m;
    }();
    auto it = fixed.find(t);
    if (it != fixed.end()) {
      if (cell::is_variable_arity(it->second)) {
        err("cell type '", t, "' needs an arity suffix (", t, "2..", t,
            cell::kMaxArity, ")");
      }
      return {it->second, 0};
    }
    // Trailing digits: variable-arity kind. The suffix is untrusted input —
    // a checked parse bounded by the library's arity limits, not stoi.
    size_t d = t.size();
    while (d > 0 && std::isdigit(static_cast<unsigned char>(t[d - 1]))) --d;
    if (d == t.size() || d == 0) err("unknown cell type '", t, "'");
    auto base = fixed.find(t.substr(0, d));
    if (base == fixed.end()) err("unknown cell type '", t, "'");
    if (!cell::is_variable_arity(base->second)) {
      err("cell type '", base->first, "' takes no arity suffix: '", t, "'");
    }
    int arity = static_cast<int>(
        parse_int(t.substr(d), 2, cell::kMaxArity, "cell arity"));
    return {base->second, arity};
  }

  Token expect(Token::Type type) {
    Token t = lex_.next();
    if (t.type != type) err("unexpected token '", t.text, "'");
    return t;
  }
  void expect_id(const std::string& s) {
    Token t = lex_.next();
    if (t.type != Token::Id || t.text != s) {
      err("expected '", s, "', got '", t.text, "'");
    }
  }
  void expect_punct(const std::string& s) {
    Token t = lex_.next();
    if (t.type != Token::Punct || t.text != s) {
      err("expected '", s, "', got '", t.text, "'");
    }
  }

  void parse_ports(Netlist& nl) {
    for (;;) {
      Token t = lex_.peek();
      if (t.type == Token::Punct && t.text == ")") return;
      Token dir = expect(Token::Id);
      Token pname = expect(Token::Id);
      if (dir.text == "input") {
        nl.add_input(pname.text);
      } else if (dir.text == "output") {
        output_names_.push_back(pname.text);
      } else {
        err("bad port direction '", dir.text, "'");
      }
      Token sep = lex_.peek();
      if (sep.type == Token::Punct && sep.text == ",") lex_.next();
    }
  }

  void parse_attributes() {
    attrs_.clear();
    payload_.reset();
    for (;;) {
      Token key = lex_.next();
      if (key.type == Token::Punct && key.text == "*)") return;
      if (key.type == Token::Punct && key.text == ",") continue;
      if (key.type != Token::Id) err("bad attribute");
      expect_punct("=");
      Token val = lex_.next();
      if (key.text == "payload") {
        if (val.type != Token::Str) err("payload must be a string");
        payload_ = std::vector<uint64_t>();
        std::string cur;
        for (char c : val.text + ",") {
          if (c == ',') {
            if (!cur.empty()) {
              payload_->push_back(parse_u64(cur, "payload word", 16));
            }
            cur.clear();
          } else {
            cur += c;
          }
        }
      } else {
        if (val.type != Token::Id) err("bad attribute value");
        std::string_view digits = val.text;
        attrs_[key.text] =
            parse_int(digits, std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max(), "attribute value");
      }
    }
  }

  /// Attribute with a checked range (uncheckable garbage would otherwise
  /// flow into uint16 truncations and enum casts downstream).
  int64_t attr_in_range(const char* key, int64_t lo, int64_t hi,
                        int64_t dflt) {
    auto it = attrs_.find(key);
    if (it == attrs_.end()) return dflt;
    if (it->second < lo || it->second > hi) {
      err("attribute ", key, " = ", it->second, " out of range [", lo, ", ",
          hi, "]");
    }
    return it->second;
  }

  /// Pin name -> (direction, index) for one cell shape. An input shadows
  /// an output of the same name, and a later pin an earlier one.
  struct Pin {
    bool output = false;
    size_t index = 0;
  };
  using PinTable = std::map<std::string, Pin, std::less<>>;

  /// The pin table of a (kind, arity, p0, p1) shape, built on first use
  /// and shared by every later instance of the shape in this parse.
  const PinTable& pin_table(cell::Kind kind, int arity, uint16_t p0,
                            uint16_t p1, int nin, int nout) {
    auto [it, inserted] = pin_tables_.try_emplace(
        std::tuple{static_cast<int>(kind), arity, p0, p1});
    if (inserted) {
      PinTable& t = it->second;
      for (int o = 0; o < nout; ++o) {
        t[cell::output_pin_name(kind, o, p0, p1)] = {true,
                                                     static_cast<size_t>(o)};
      }
      for (int i = 0; i < nin; ++i) {
        t[cell::input_pin_name(kind, i, p0, p1)] = {false,
                                                    static_cast<size_t>(i)};
      }
    }
    return it->second;
  }

  void parse_instance(Netlist& nl, const std::string& type) {
    auto [kind, arity] = parse_type(type);
    Token iname = expect(Token::Id);
    expect_punct("(");

    uint16_t p0 = static_cast<uint16_t>(attr_in_range("p0", 0, 24, 0));
    uint16_t p1 = static_cast<uint16_t>(attr_in_range("p1", 0, 64, 0));
    int nin = cell::num_inputs(kind, arity, p0, p1);
    int nout = cell::num_outputs(kind, p0, p1);

    const PinTable& pins = pin_table(kind, arity, p0, p1, nin, nout);

    std::vector<NetId> ins(static_cast<size_t>(nin), NetId::invalid());
    std::vector<NetId> outs(static_cast<size_t>(nout), NetId::invalid());
    for (;;) {
      Token t = lex_.next();
      if (t.type == Token::Punct && t.text == ")") break;
      if (t.type == Token::Punct && (t.text == "," || t.text == ".")) continue;
      if (t.type != Token::Id) err("bad connection in ", iname.text);
      std::string pin = std::move(t.text);
      expect_punct("(");
      Token netname = expect(Token::Id);
      expect_punct(")");
      NetId n = nl.find_net(netname.text);
      if (!n.valid()) err("unknown net '", netname.text, "'");
      auto it = pins.find(pin);
      if (it == pins.end()) err("unknown pin '", pin, "' on ", type);
      (it->second.output ? outs : ins)[it->second.index] = n;
    }
    expect_punct(";");
    for (NetId n : ins) {
      if (!n.valid()) err("unconnected input on ", iname.text);
    }
    for (NetId n : outs) {
      if (!n.valid()) err("unconnected output on ", iname.text);
      // Netlist::add_cell asserts one driver per net and no driven primary
      // input; untrusted text gets a typed error instead.
      if (nl.is_primary_input(n)) {
        err(iname.text, " drives primary input '", nl.net(n).name, "'");
      }
      if (nl.net(n).driver.valid() ||
          std::count(outs.begin(), outs.end(), n) > 1) {
        err("net '", nl.net(n).name, "' has a second driver in ", iname.text);
      }
    }

    cell::V init =
        static_cast<cell::V>(attr_in_range("init", 0, 2, 0));
    int32_t pl = -1;
    if (payload_) {
      if (kind != cell::Kind::Rom && kind != cell::Kind::Ram) {
        err("payload on non-memory cell ", iname.text);
      }
      if (payload_->size() != (size_t{1} << p0)) {
        err("payload of ", iname.text, " has ", payload_->size(),
            " words, expected 2^p0 = ", (size_t{1} << p0));
      }
      pl = nl.add_payload(std::move(*payload_));
    } else if (kind == cell::Kind::Rom || kind == cell::Kind::Ram) {
      err("memory cell ", iname.text, " has no payload attribute");
    }
    CellId c = nl.add_cell(kind, iname.text, std::move(ins), std::move(outs),
                           init, pl, p0, p1);
    if (auto it = attrs_.find("group"); it != attrs_.end()) {
      nl.set_group(c, static_cast<int32_t>(attr_in_range(
                          "group", -1, std::numeric_limits<int32_t>::max(), -1)));
    }
    attrs_.clear();
    payload_.reset();
  }

  Lexer lex_;
  std::string source_;
  std::vector<std::string> output_names_;
  std::map<std::string, int64_t> attrs_;
  std::map<std::tuple<int, int, uint16_t, uint16_t>, PinTable> pin_tables_;
  std::optional<std::vector<uint64_t>> payload_;
};

}  // namespace

Netlist read_verilog(std::string_view text, std::string_view source) {
  return Parser(text, source).parse();
}

}  // namespace desyn::nl
