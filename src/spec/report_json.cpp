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
  bool first = true;
  const auto field = [&](const char* name, uint64_t v) {
    if (!first) out += ",";
    first = false;
    out += std::string("\"") + name + "\":" + std::to_string(v);
  };
  field("elements_summarized", s.elements_summarized);
  field("summary_cache_hits", s.summary_cache_hits);
  field("segments_total", s.segments_total);
  field("suspects_found", s.suspects_found);
  field("suspects_eliminated", s.suspects_eliminated);
  field("composed_paths_checked", s.composed_paths_checked);
  field("solver_queries", s.solver_queries);
  field("instructions_interpreted", s.instructions_interpreted);
  field("forks", s.forks);
  field("refinements_attempted", s.refinements_attempted);
  field("refinements_certified", s.refinements_certified);
  field("refinements_eliminated", s.refinements_eliminated);
  field("sat_conflicts", s.sat_conflicts);
  field("sat_decisions", s.sat_decisions);
  field("blast_nodes", s.blast_nodes);
  field("solver_cache_hits", s.solver_cache_hits);
  field("contexts_opened", s.contexts_opened);
  field("incremental_queries", s.incremental_queries);
  field("assumption_reuses", s.assumption_reuses);
  field("learnt_retained", s.learnt_retained);
  field("sat_solves", s.sat_solves);
  field("exhaustion_decided", s.exhaustion_decided);
  field("slice_decided", s.slice_decided);
  field("cex_cache_hits", s.cex_cache_hits);
  field("core_discharges", s.core_discharges);
  field("suspects_core_discharged", s.suspects_core_discharged);
  field("learnt_gc_runs", s.learnt_gc_runs);
  field("learnt_gc_removed", s.learnt_gc_removed);
  field("decision_cache_hits", s.decision_cache_hits);
  field("refine_cache_hits", s.refine_cache_hits);
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
    out += ",\"trap\":" + json_quote(ir::trap_name(ce.trap));
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
