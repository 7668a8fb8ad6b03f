// Text serialization for filter sets. Two formats:
//  * the native "ofmtl" line format (any subset of fields), used by the
//    update-engine's algorithm/action files and for persisting generated sets;
//  * the ClassBench 5-tuple format ("@srcpfx dstpfx sport : sport dport :
//    dport proto/mask") used by the ACL baselines.
#pragma once

#include <iosfwd>
#include <string>

#include "flow/flow_entry.hpp"

namespace ofmtl {

/// Write a filter set in the native line format:
///   # name: <name>
///   # fields: <field id> <field id> ...
///   <id> <priority> <field spec> ... -> <instruction summary>
/// Field spec is one of  *, =HEX, HEX/LENwWIDTH, [LO-HI], &MASK=VALUE, where
/// every HEX, MASK and VALUE is written HI:LO (128 bits, hex).
void write_filterset(std::ostream& out, const FilterSet& set);
[[nodiscard]] std::string filterset_to_string(const FilterSet& set);

/// Parse the native line format (inverse of write_filterset). Instruction
/// summaries are restored for the output/goto patterns the writer emits. A
/// hex value may also be a plain 64-bit LO. A malformed spec, or a constraint
/// that does not fit its field (FlowMatch::fit_error), throws
/// std::invalid_argument.
[[nodiscard]] FilterSet parse_filterset(std::istream& in);
[[nodiscard]] FilterSet parse_filterset_string(const std::string& text);

/// Parse one ClassBench-style 5-tuple line into a FlowMatch (fields
/// kIpv4Src, kIpv4Dst, kSrcPort, kDstPort, kIpProto).
[[nodiscard]] FlowMatch parse_classbench_rule(const std::string& line);

/// Write one FlowMatch as a ClassBench 5-tuple line.
[[nodiscard]] std::string to_classbench_rule(const FlowMatch& match);

}  // namespace ofmtl
