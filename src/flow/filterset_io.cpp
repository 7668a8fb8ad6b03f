#include "flow/filterset_io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "net/addresses.hpp"

namespace ofmtl {

namespace {

void write_field_match(std::ostream& out, const FieldMatch& fm) {
  switch (fm.kind) {
    case MatchKind::kAny:
      out << "*";
      break;
    case MatchKind::kExact:
      out << "=" << std::hex << fm.value.hi;
      out << ":" << fm.value.lo << std::dec;
      break;
    case MatchKind::kPrefix: {
      const U128 v = fm.prefix.value();
      out << std::hex << v.hi << ":" << v.lo << std::dec << "/" << fm.prefix.length()
          << "w" << fm.prefix.width();
      break;
    }
    case MatchKind::kRange:
      out << "[" << fm.range.lo << "-" << fm.range.hi << "]";
      break;
    case MatchKind::kMasked:
      out << "&" << std::hex << fm.mask.hi << ":" << fm.mask.lo;
      out << "=" << fm.value.hi << ":" << fm.value.lo << std::dec;
      break;
  }
}

[[nodiscard]] std::uint64_t parse_u64(std::string_view text, int base = 10) {
  std::uint64_t value = 0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (result.ec != std::errc{} || result.ptr != text.data() + text.size()) {
    throw std::invalid_argument("bad number: " + std::string(text));
  }
  return value;
}

/// `HI:LO` in hex; a plain `LO` (no colon) reads as a 64-bit value.
[[nodiscard]] U128 parse_hex128(std::string_view text) {
  const auto colon = text.find(':');
  if (colon == std::string_view::npos) return U128{parse_u64(text, 16)};
  return U128{parse_u64(text.substr(0, colon), 16), parse_u64(text.substr(colon + 1), 16)};
}

[[nodiscard]] FieldMatch parse_field_match(const std::string& token) {
  if (token.empty()) throw std::invalid_argument("missing field spec");
  if (token == "*") return FieldMatch::any();
  if (token.front() == '=') {
    return FieldMatch::exact(parse_hex128(std::string_view(token).substr(1)));
  }
  if (token.front() == '[') {
    const auto dash = token.find('-');
    const std::uint64_t lo = parse_u64(std::string_view(token).substr(1, dash - 1));
    const std::uint64_t hi = parse_u64(
        std::string_view(token).substr(dash + 1, token.size() - dash - 2));
    return FieldMatch::of_range(lo, hi);
  }
  if (token.front() == '&') {
    // &MASK=VALUE, each HI:LO (or a 64-bit LO, the older form).
    const auto eq = token.find('=');
    if (eq == std::string::npos) throw std::invalid_argument("bad field spec: " + token);
    const U128 mask = parse_hex128(std::string_view(token).substr(1, eq - 1));
    const U128 value = parse_hex128(std::string_view(token).substr(eq + 1));
    return FieldMatch::masked(value, mask);
  }
  // prefix: HI:LO/LENwWIDTH
  const auto slash = token.find('/');
  const auto w = token.find('w');
  if (slash == std::string::npos || w == std::string::npos || w < slash) {
    throw std::invalid_argument("bad field spec: " + token);
  }
  const U128 value = parse_hex128(std::string_view(token).substr(0, slash));
  const auto length =
      static_cast<unsigned>(parse_u64(std::string_view(token).substr(slash + 1, w - slash - 1)));
  const auto width =
      static_cast<unsigned>(parse_u64(std::string_view(token).substr(w + 1)));
  return FieldMatch::of_prefix(Prefix{value, length, width});
}

}  // namespace

void write_filterset(std::ostream& out, const FilterSet& set) {
  out << "# name: " << set.name << "\n";
  out << "# fields:";
  for (const auto id : set.fields) out << " " << static_cast<unsigned>(id);
  out << "\n";
  for (const auto& entry : set.entries) {
    out << entry.id << " " << entry.priority;
    for (const auto id : set.fields) {
      out << " ";
      write_field_match(out, entry.match.get(id));
    }
    out << " -> ";
    if (entry.instructions.goto_table) {
      out << "goto:" << static_cast<unsigned>(*entry.instructions.goto_table);
    } else {
      out << "end";
    }
    std::uint32_t port = 0;
    for (const auto& a : entry.instructions.write_actions) {
      if (std::holds_alternative<OutputAction>(a)) {
        port = std::get<OutputAction>(a).port;
      }
    }
    out << " out:" << port << "\n";
  }
}

std::string filterset_to_string(const FilterSet& set) {
  std::ostringstream out;
  write_filterset(out, set);
  return out.str();
}

FilterSet parse_filterset(std::istream& in) {
  FilterSet set;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# name:", 0) == 0) {
      set.name = line.substr(8);
      continue;
    }
    if (line.rfind("# fields:", 0) == 0) {
      std::istringstream fields(line.substr(9));
      unsigned id = 0;
      while (fields >> id) {
        if (id >= kFieldCount) throw std::invalid_argument("bad field id: " + line);
        set.fields.push_back(static_cast<FieldId>(id));
      }
      continue;
    }
    if (line.front() == '#') continue;
    std::istringstream tokens(line);
    FlowEntry entry;
    tokens >> entry.id >> entry.priority;
    for (const auto id : set.fields) {
      std::string token;
      tokens >> token;
      entry.match.set(id, parse_field_match(token));
    }
    std::string arrow, target, out_token;
    tokens >> arrow >> target >> out_token;
    if (arrow != "->") throw std::invalid_argument("bad rule line: " + line);
    if (target.rfind("goto:", 0) == 0) {
      entry.instructions.goto_table =
          static_cast<std::uint8_t>(parse_u64(std::string_view(target).substr(5)));
    }
    if (out_token.rfind("out:", 0) == 0) {
      const auto port =
          static_cast<std::uint32_t>(parse_u64(std::string_view(out_token).substr(4)));
      if (port != 0 || !entry.instructions.goto_table) {
        entry.instructions.write_actions.push_back(OutputAction{port});
      }
    }
    set.entries.push_back(std::move(entry));
  }
  return set;
}

FilterSet parse_filterset_string(const std::string& text) {
  std::istringstream in(text);
  return parse_filterset(in);
}

FlowMatch parse_classbench_rule(const std::string& line) {
  // "@1.2.3.0/24  5.6.7.8/32  0 : 65535  1024 : 2048  0x06/0xFF"
  std::string text = line;
  if (!text.empty() && text.front() == '@') text.erase(0, 1);
  std::istringstream in(text);
  std::string src, dst, slo, colon1, shi, dlo, colon2, dhi, proto;
  in >> src >> dst >> slo >> colon1 >> shi >> dlo >> colon2 >> dhi >> proto;
  if (colon1 != ":" || colon2 != ":") {
    throw std::invalid_argument("bad classbench line: " + line);
  }
  const auto parse_cidr = [](const std::string& cidr) {
    const auto slash = cidr.find('/');
    const auto ip = Ipv4Address::parse(cidr.substr(0, slash));
    const auto len = static_cast<unsigned>(parse_u64(
        std::string_view(cidr).substr(slash + 1)));
    return Prefix::from_value(ip.value(), len, 32);
  };
  FlowMatch match;
  match.set(FieldId::kIpv4Src, FieldMatch::of_prefix(parse_cidr(src)));
  match.set(FieldId::kIpv4Dst, FieldMatch::of_prefix(parse_cidr(dst)));
  match.set(FieldId::kSrcPort, FieldMatch::of_range(parse_u64(slo), parse_u64(shi)));
  match.set(FieldId::kDstPort, FieldMatch::of_range(parse_u64(dlo), parse_u64(dhi)));
  const auto slash = proto.find('/');
  const std::uint64_t value = parse_u64(std::string_view(proto).substr(2, slash - 2), 16);
  const std::uint64_t mask =
      parse_u64(std::string_view(proto).substr(slash + 3), 16);
  if (mask != 0) {
    match.set(FieldId::kIpProto, FieldMatch::masked(U128{value}, U128{mask}));
  }
  return match;
}

std::string to_classbench_rule(const FlowMatch& match) {
  std::ostringstream out;
  const auto cidr = [](const FieldMatch& fm) {
    const auto& p = fm.prefix;
    return Ipv4Address{static_cast<std::uint32_t>(p.value64())}.to_string() + "/" +
           std::to_string(p.length());
  };
  out << "@" << cidr(match.get(FieldId::kIpv4Src)) << "\t"
      << cidr(match.get(FieldId::kIpv4Dst)) << "\t";
  const ValueRange sp = match.get(FieldId::kSrcPort).range;
  const ValueRange dp = match.get(FieldId::kDstPort).range;
  out << sp.lo << " : " << sp.hi << "\t" << dp.lo << " : " << dp.hi << "\t";
  const FieldMatch proto = match.get(FieldId::kIpProto);
  if (proto.kind == MatchKind::kMasked) {
    out << "0x" << std::hex << proto.value.lo << "/0x" << proto.mask.lo << std::dec;
  } else {
    out << "0x00/0x00";
  }
  return out.str();
}

}  // namespace ofmtl
