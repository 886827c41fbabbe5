// Machine-readable report serialization shared by `vsd check --json`, the
// serve daemon's responses, and the benches — one implementation so the
// schema cannot drift between the CLI and the service.
#pragma once

#include <string>

#include "spec/ast.hpp"
#include "spec/check.hpp"
#include "verify/report.hpp"

namespace vsd::spec {

std::string json_quote(const std::string& s);

// Every VerifyStats counter, keyed by its verify::kVerifyStatFields name.
std::string stats_json(const verify::VerifyStats& s);

// One assertion outcome: verdict, detail, counterexamples (full packet
// hex), replays, stats.
std::string outcome_json(const AssertionOutcome& o);

// The per-spec object of the `vsd check --json` report:
// {"path":...,"pipeline":...,"packet_len":N,"ok":...,"passed":N,
//  "total":N,"assertions":[...]} — also the body of a serve response.
std::string spec_report_json(const std::string& path, const SpecFile& sf,
                             const CheckReport& rep);

}  // namespace vsd::spec
