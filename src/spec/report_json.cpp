#include "spec/report_json.hpp"

#include <cstdio>

#include "ir/ir.hpp"

namespace vsd::spec {

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string stats_json(const verify::VerifyStats& s) {
  std::string out = "{";
  for (const auto& [name, field] : verify::kVerifyStatFields) {
    if (out.size() > 1) out += ",";
    out += std::string("\"") + name + "\":" + std::to_string(s.*field);
  }
  out += "}";
  return out;
}

std::string outcome_json(const AssertionOutcome& o) {
  std::string out = "{";
  out += "\"assert\":" + json_quote(o.text);
  out += ",\"passed\":" + std::string(o.passed ? "true" : "false");
  out += ",\"verdict\":" + json_quote(verify::verdict_name(o.verdict));
  if (!o.detail.empty()) out += ",\"detail\":" + json_quote(o.detail);
  out += ",\"seconds\":" + std::to_string(o.seconds);
  if (o.max_instructions != 0) {
    out += ",\"max_instructions\":" + std::to_string(o.max_instructions);
  }
  out += ",\"counterexamples\":[";
  for (size_t i = 0; i < o.counterexamples.size(); ++i) {
    const verify::Counterexample& ce = o.counterexamples[i];
    if (i != 0) out += ",";
    out += "{\"packet\":" + json_quote(ce.packet.hex(ce.packet.size()));
    if (ce.trap) out += ",\"trap\":" + json_quote(ir::trap_name(*ce.trap));
    out += ",\"requires_sequence\":" +
           std::string(ce.requires_sequence ? "true" : "false");
    if (!ce.element_path.empty()) {
      out += ",\"element_path\":[";
      for (size_t j = 0; j < ce.element_path.size(); ++j) {
        if (j != 0) out += ",";
        out += json_quote(ce.element_path[j]);
      }
      out += "]";
    }
    if (!ce.state_note.empty()) {
      out += ",\"state_note\":" + json_quote(ce.state_note);
    }
    out += "}";
  }
  out += "],\"replays\":[";
  for (size_t i = 0; i < o.replays.size(); ++i) {
    if (i != 0) out += ",";
    out += json_quote(o.replays[i]);
  }
  out += "],\"replays_confirm\":" +
         std::string(o.replays_confirm ? "true" : "false");
  out += ",\"stats\":" + stats_json(o.stats);
  out += "}";
  return out;
}

std::string spec_report_json(const std::string& path, const SpecFile& sf,
                             const CheckReport& rep) {
  std::string json = "{\"path\":" + json_quote(path);
  json += ",\"pipeline\":" + json_quote(sf.pipeline_config);
  json += ",\"packet_len\":" + std::to_string(sf.packet_len);
  json += ",\"ok\":" + std::string(rep.ok ? "true" : "false");
  json += ",\"passed\":" + std::to_string(rep.passed);
  json += ",\"total\":" + std::to_string(rep.outcomes.size());
  json += ",\"assertions\":[";
  for (size_t j = 0; j < rep.outcomes.size(); ++j) {
    if (j != 0) json += ",";
    json += outcome_json(rep.outcomes[j]);
  }
  json += "]}";
  return json;
}

}  // namespace vsd::spec
