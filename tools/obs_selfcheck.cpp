// obs_selfcheck: offline validator for the observability layer's two file
// formats, used by CI to gate what the repo exports.
//
//   --exposition <file>   Prometheus text exposition (write_prometheus
//                         output or a /metrics scrape). Checks:
//                           * every line is a comment, a `# TYPE` header,
//                             or a well-formed sample;
//                           * families are contiguous (a TYPE header never
//                             repeats) and name-sorted within each run of
//                             the same kind;
//                           * every sample belongs to the family declared
//                             by the preceding TYPE header;
//                           * histogram series have non-decreasing
//                             cumulative `le` buckets ending at le="+Inf",
//                             whose value equals the series' `_count`,
//                             with `_sum` present;
//                           * every histogram family with observations has
//                             a sibling `<base>_quantile` gauge family.
//
//   --require-gateway     fail unless the exposition carries the platform
//                         gateway's metric families: request counters with
//                         route=/status= labels, a nonzero submit-latency
//                         histogram, and its complete _quantile gauge set
//                         (quantile= 0.5, 0.9, 0.99 — no gaps, no extras).
//
//   --require-slo         fail unless the exposition carries the SLO
//                         monitor's gauge families for all four SLIs
//                         (submit_latency, dispatch_success, expiry,
//                         regret_gap): mfcp_slo_value/budget/firing per
//                         SLI, and mfcp_slo_burn_rate with both
//                         window="fast" and window="slow" per SLI.
//
//   --journal <file>      engine round journal (JSONL). Checks each line
//                         is a flat JSON object and, where the regret-
//                         attribution fields are present, that they sum to
//                         attr_total within 1e-6 (the decomposition's
//                         exactness invariant, re-verified from the
//                         serialized values).
//   --require-attribution fail unless at least one journal record carries
//                         the attribution fields.
//
//   --tasktraces <file>   task-trace JSONL (TraceStore::drain_to output).
//                         Checks each record carries a 16-hex trace_id, a
//                         task_id, a state, a non-empty chain, and exactly
//                         `spans` sN_name fields; fails when the file has
//                         no records at all (a vacuous pass would hide a
//                         sampling wiring bug).
//
//   --flight <file>       flight-recorder dump, either format:
//                           * raw crash dump ("MFCPFLT1" magic): header
//                             fields are sane, the file size matches
//                             64 + ring_count*(16 + capacity*64) exactly
//                             (no truncation), every live slot's sequence
//                             number maps back to its slot index, and
//                             kind/thread fields decode within range;
//                           * JSONL dump (watchdog/shutdown): the first
//                             record is flight_meta, every record is one
//                             of flight_meta/heartbeat/event, no line is
//                             truncated, per-thread event seqs are
//                             strictly increasing, and kinds are drawn
//                             from the recorder's closed vocabulary.
//
//   --profile <file>      folded flamegraph output from the sampling
//                         profiler (/debug/profile or --profile). Checks
//                         every line is "frame[;frame...] count" with a
//                         positive integer count and non-empty frames,
//                         that the exact-accounting [stage_totals] anchors
//                         cover all five engine stages (embed, predict,
//                         match, attribute, dispatch), and that at least
//                         one sampled stack carries a stage: tag.
//
//   --storage <dir>       durability data directory (--data-dir of a
//                         platform run). Validates all three stores
//                         against re-implemented copies of their formats
//                         (so a serialization bug cannot vouch for
//                         itself):
//                           * wal/wal-*.log: every frame is
//                             [len u32][crc u32][payload], len is the
//                             fixed payload size, the CRC32 matches, the
//                             type byte is known, and sequence numbers
//                             are strictly increasing across segments; a
//                             partial or bad frame is tolerated only as
//                             the newest segment's torn tail;
//                           * checkpoints/: MANIFEST names an existing
//                             snapshot whose generation and wal_seq agree
//                             with it, and every retained snapshot-*.ckpt
//                             carries a valid wrapper header;
//                           * journal/chunk-*.jsonl: every line is a JSON
//                             record or the index footer, every sealed
//                             (non-newest) chunk ends with a footer whose
//                             chunk id, record count, and payload bytes
//                             match a recount of the file.
//
// Exit status: 0 = all checks pass, 1 = a check failed, 2 = usage/IO.
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace {

int failures = 0;

void fail(const std::string& what, std::size_t line_no,
          const std::string& line) {
  std::fprintf(stderr, "FAIL line %zu: %s\n  %s\n", line_no, what.c_str(),
               line.c_str());
  ++failures;
}

/// "name{labels} value" or "name value" -> parts. Returns false on a line
/// that does not scan.
struct Sample {
  std::string name;    // base + suffixes, labels stripped
  std::string labels;  // inside the braces, empty if none
  double value = 0.0;
};

std::optional<Sample> parse_sample(const std::string& line) {
  Sample s;
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') {
    ++i;
  }
  if (i == 0 || i == line.size()) {
    return std::nullopt;
  }
  s.name = line.substr(0, i);
  if (line[i] == '{') {
    const std::size_t close = line.find('}', i);
    if (close == std::string::npos || close + 1 >= line.size() ||
        line[close + 1] != ' ') {
      return std::nullopt;
    }
    s.labels = line.substr(i + 1, close - i - 1);
    i = close + 1;
  }
  const char* start = line.c_str() + i + 1;
  char* end = nullptr;
  s.value = std::strtod(start, &end);
  if (end == start) {
    // write_prometheus renders infinities as +Inf/-Inf.
    if (std::strcmp(start, "+Inf") == 0) {
      s.value = HUGE_VAL;
    } else if (std::strcmp(start, "-Inf") == 0) {
      s.value = -HUGE_VAL;
    } else {
      return std::nullopt;
    }
  } else if (*end != '\0') {
    return std::nullopt;
  }
  return s;
}

/// Strips one `le="..."` pair out of a label string, returning the rest
/// (the series key) and the bound. nullopt when no le label exists.
std::optional<std::pair<std::string, std::string>> split_le(
    const std::string& labels) {
  const std::size_t pos = labels.find("le=\"");
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  const std::size_t close = labels.find('"', pos + 4);
  if (close == std::string::npos) {
    return std::nullopt;
  }
  std::string rest = labels.substr(0, pos) + labels.substr(close + 1);
  // Tidy dangling commas left by the removal.
  while (!rest.empty() && (rest.back() == ',')) {
    rest.pop_back();
  }
  if (!rest.empty() && rest.front() == ',') {
    rest.erase(rest.begin());
  }
  return std::make_pair(rest, labels.substr(pos + 4, close - pos - 4));
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Extracts the value of `label="..."` from a label string, or nullopt.
std::optional<std::string> label_value(const std::string& labels,
                                       const char* label) {
  const std::string needle = std::string(label) + "=\"";
  const std::size_t pos = labels.find(needle);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  const std::size_t close = labels.find('"', pos + needle.size());
  if (close == std::string::npos) {
    return std::nullopt;
  }
  return labels.substr(pos + needle.size(), close - pos - needle.size());
}

int check_exposition(const std::string& path, bool require_gateway,
                     bool require_slo) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open exposition file %s\n", path.c_str());
    return 2;
  }

  std::string family;       // base name of the current TYPE header
  std::string family_kind;  // counter | gauge | histogram
  std::set<std::string> seen_families;
  std::string prev_family_in_run;  // for the per-kind sort check
  std::string prev_kind;

  // Per-histogram-series state (the writer emits each series contiguously:
  // buckets ascending, then _sum, then _count).
  std::string series_key;  // labels minus le
  double last_bucket = -1.0;
  bool saw_inf = false;
  double inf_value = 0.0;
  bool saw_sum = false;
  std::set<std::string> nonzero_histograms;
  std::set<std::string> quantile_families;

  // Gateway-family evidence for --require-gateway.
  std::size_t gateway_request_samples = 0;
  std::set<std::string> gateway_quantiles;

  // SLO-family evidence for --require-slo: which SLIs each family
  // covers, and (sli, window) pairs for the burn-rate family.
  std::set<std::string> slo_value_slis;
  std::set<std::string> slo_budget_slis;
  std::set<std::string> slo_firing_slis;
  std::set<std::string> slo_burn_pairs;  // "sli/window"

  auto close_series = [&](std::size_t line_no, const std::string& line) {
    if (!series_key.empty() || last_bucket >= 0.0) {
      if (!saw_inf) {
        fail("histogram series ended without an le=\"+Inf\" bucket",
             line_no, line);
      }
    }
    series_key.clear();
    last_bucket = -1.0;
    saw_inf = false;
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      close_series(line_no, line);
      if (family_kind == "histogram" && !saw_sum) {
        fail("histogram family '" + family + "' has no _sum sample",
             line_no, line);
      }
      saw_sum = false;
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      if (sp == std::string::npos) {
        fail("malformed TYPE header", line_no, line);
        continue;
      }
      family = rest.substr(0, sp);
      family_kind = rest.substr(sp + 1);
      if (!seen_families.insert(family).second) {
        fail("family '" + family +
                 "' declared twice (interleaved exposition)",
             line_no, line);
      }
      if (family_kind == prev_kind && family <= prev_family_in_run) {
        fail("family '" + family + "' out of name order after '" +
                 prev_family_in_run + "'",
             line_no, line);
      }
      prev_kind = family_kind;
      prev_family_in_run = family;
      if (family_kind == "gauge" && ends_with(family, "_quantile")) {
        quantile_families.insert(
            family.substr(0, family.size() - std::strlen("_quantile")));
      }
      continue;
    }
    if (line[0] == '#') {
      continue;  // HELP or free-form comment
    }
    const std::optional<Sample> s = parse_sample(line);
    if (!s.has_value()) {
      fail("unparseable sample line", line_no, line);
      continue;
    }
    if (family.empty()) {
      fail("sample before any TYPE header", line_no, line);
      continue;
    }
    if (family == "mfcp_gateway_requests_total" &&
        label_value(s->labels, "route").has_value() &&
        label_value(s->labels, "status").has_value()) {
      ++gateway_request_samples;
    }
    if (family == "mfcp_slo_value" || family == "mfcp_slo_budget" ||
        family == "mfcp_slo_firing" || family == "mfcp_slo_burn_rate") {
      const auto sli = label_value(s->labels, "sli");
      if (!sli.has_value()) {
        fail("SLO sample without an sli label", line_no, line);
      } else if (family == "mfcp_slo_value") {
        slo_value_slis.insert(*sli);
      } else if (family == "mfcp_slo_budget") {
        slo_budget_slis.insert(*sli);
      } else if (family == "mfcp_slo_firing") {
        slo_firing_slis.insert(*sli);
      } else {
        const auto window = label_value(s->labels, "window");
        if (!window.has_value()) {
          fail("mfcp_slo_burn_rate sample without a window label", line_no,
               line);
        } else {
          slo_burn_pairs.insert(*sli + "/" + *window);
        }
      }
    }
    if (family == "mfcp_gateway_submit_seconds_quantile") {
      if (const auto q = label_value(s->labels, "quantile")) {
        if (!gateway_quantiles.insert(*q).second) {
          fail("duplicate gateway quantile series for quantile=" + *q,
               line_no, line);
        }
      } else {
        fail("gateway quantile sample without a quantile label", line_no,
             line);
      }
    }
    if (family_kind == "histogram") {
      if (s->name == family + "_bucket") {
        const auto le = split_le(s->labels);
        if (!le.has_value()) {
          fail("_bucket sample without an le label", line_no, line);
          continue;
        }
        if (le->first != series_key || saw_inf) {
          close_series(line_no, line);
          series_key = le->first;
        }
        if (s->value + 1e-9 < last_bucket) {
          fail("cumulative le buckets decreased", line_no, line);
        }
        last_bucket = s->value;
        if (le->second == "+Inf") {
          saw_inf = true;
          inf_value = s->value;
        }
      } else if (s->name == family + "_sum") {
        saw_sum = true;
      } else if (s->name == family + "_count") {
        if (!saw_inf) {
          fail("_count before the series' le=\"+Inf\" bucket", line_no,
               line);
        } else if (std::fabs(s->value - inf_value) > 1e-9) {
          fail("le=\"+Inf\" bucket disagrees with _count", line_no, line);
        }
        if (s->value > 0.0) {
          nonzero_histograms.insert(family);
        }
        close_series(line_no, line);
      } else {
        fail("sample '" + s->name + "' outside its family '" + family + "'",
             line_no, line);
      }
    } else if (s->name != family) {
      fail("sample '" + s->name + "' outside its family '" + family + "'",
           line_no, line);
    }
  }
  close_series(line_no + 1, "<eof>");
  if (family_kind == "histogram" && !saw_sum) {
    fail("histogram family '" + family + "' has no _sum sample",
         line_no + 1, "<eof>");
  }
  for (const std::string& h : nonzero_histograms) {
    if (quantile_families.count(h) == 0) {
      fail("histogram '" + h +
               "' has observations but no _quantile gauge family",
           line_no + 1, "<eof>");
    }
  }
  if (require_gateway) {
    if (gateway_request_samples == 0) {
      std::fprintf(stderr,
                   "FAIL: --require-gateway but no "
                   "mfcp_gateway_requests_total sample carries route= and "
                   "status= labels\n");
      ++failures;
    }
    if (nonzero_histograms.count("mfcp_gateway_submit_seconds") == 0) {
      std::fprintf(stderr,
                   "FAIL: --require-gateway but mfcp_gateway_submit_seconds "
                   "has no observations\n");
      ++failures;
    }
    const std::set<std::string> expected = {"0.5", "0.9", "0.99"};
    if (gateway_quantiles != expected) {
      std::string got;
      for (const std::string& q : gateway_quantiles) {
        got += (got.empty() ? "" : ",") + q;
      }
      std::fprintf(stderr,
                   "FAIL: --require-gateway: submit quantile family must "
                   "carry exactly quantile= 0.5,0.9,0.99 (got: %s)\n",
                   got.empty() ? "<none>" : got.c_str());
      ++failures;
    }
  }
  if (require_slo) {
    const char* kSlis[] = {"submit_latency", "dispatch_success", "expiry",
                           "regret_gap"};
    for (const char* sli : kSlis) {
      if (slo_value_slis.count(sli) == 0) {
        std::fprintf(stderr,
                     "FAIL: --require-slo: no mfcp_slo_value sample for "
                     "sli=\"%s\"\n",
                     sli);
        ++failures;
      }
      if (slo_budget_slis.count(sli) == 0) {
        std::fprintf(stderr,
                     "FAIL: --require-slo: no mfcp_slo_budget sample for "
                     "sli=\"%s\"\n",
                     sli);
        ++failures;
      }
      if (slo_firing_slis.count(sli) == 0) {
        std::fprintf(stderr,
                     "FAIL: --require-slo: no mfcp_slo_firing sample for "
                     "sli=\"%s\"\n",
                     sli);
        ++failures;
      }
      for (const char* window : {"fast", "slow"}) {
        if (slo_burn_pairs.count(std::string(sli) + "/" + window) == 0) {
          std::fprintf(stderr,
                       "FAIL: --require-slo: no mfcp_slo_burn_rate sample "
                       "for sli=\"%s\" window=\"%s\"\n",
                       sli, window);
          ++failures;
        }
      }
    }
  }
  std::printf("exposition %s: %zu lines, %zu families, %zu histograms with "
              "observations, %zu gateway request samples\n",
              path.c_str(), line_no, seen_families.size(),
              nonzero_histograms.size(), gateway_request_samples);
  return failures == 0 ? 0 : 1;
}

/// Minimal flat-JSON number extraction: finds "key": and strtod's what
/// follows. Good enough for the journal's writer, which never nests.
std::optional<double> json_field(const std::string& line,
                                 const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  const char* start = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) {
    return std::nullopt;  // non-numeric (e.g. null)
  }
  return v;
}

int check_journal(const std::string& path, bool require_attribution) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open journal file %s\n", path.c_str());
    return 2;
  }
  std::string line;
  std::size_t line_no = 0;
  std::size_t attributed = 0;
  double worst = 0.0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line.front() != '{' || line.back() != '}') {
      fail("journal line is not a JSON object", line_no, line);
      continue;
    }
    const auto pred = json_field(line, "pred_gap");
    if (!pred.has_value()) {
      continue;  // attribution off for this record
    }
    const auto solver = json_field(line, "solver_gap");
    const auto rounding = json_field(line, "rounding_gap");
    const auto admission = json_field(line, "admission_gap");
    const auto total = json_field(line, "attr_total");
    if (!solver || !rounding || !admission || !total) {
      fail("partial attribution record", line_no, line);
      continue;
    }
    const double residual =
        std::fabs(*pred + *solver + *rounding + *admission - *total);
    worst = std::max(worst, residual);
    if (residual > 1e-6) {
      fail("attribution terms do not sum to attr_total (|residual| = " +
               std::to_string(residual) + ")",
           line_no, line);
    }
    ++attributed;
  }
  if (require_attribution && attributed == 0) {
    std::fprintf(stderr,
                 "FAIL: --require-attribution but no journal record "
                 "carries attribution fields\n");
    ++failures;
  }
  std::printf("journal %s: %zu lines, %zu attributed (worst residual "
              "%.3g)\n",
              path.c_str(), line_no, attributed, worst);
  return failures == 0 ? 0 : 1;
}

/// Minimal flat-JSON string extraction: the value of "key":"..." with no
/// unescaping (the writers never escape the fields checked here).
std::optional<std::string> json_string_field(const std::string& line,
                                             const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  const std::size_t close = line.find('"', pos + needle.size());
  if (close == std::string::npos) {
    return std::nullopt;
  }
  return line.substr(pos + needle.size(), close - pos - needle.size());
}

int check_tasktraces(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open tasktraces file %s\n", path.c_str());
    return 2;
  }
  std::string line;
  std::size_t line_no = 0;
  std::size_t records = 0;
  std::size_t complete = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line.front() != '{' || line.back() != '}') {
      fail("tasktrace line is not a JSON object", line_no, line);
      continue;
    }
    ++records;
    const auto trace_id = json_string_field(line, "trace_id");
    if (!trace_id.has_value() || trace_id->size() != 16 ||
        trace_id->find_first_not_of("0123456789abcdef") !=
            std::string::npos) {
      fail("tasktrace record without a 16-hex trace_id", line_no, line);
    }
    if (!json_field(line, "task_id").has_value()) {
      fail("tasktrace record without a task_id", line_no, line);
    }
    const auto state = json_string_field(line, "state");
    if (!state.has_value() || state->empty()) {
      fail("tasktrace record without a state", line_no, line);
    } else if (*state != "in_flight") {
      ++complete;
    }
    const auto chain = json_string_field(line, "chain");
    if (!chain.has_value() || chain->empty()) {
      fail("tasktrace record without a span chain", line_no, line);
    }
    const auto spans = json_field(line, "spans");
    if (!spans.has_value() || *spans < 1.0) {
      fail("tasktrace record without spans", line_no, line);
      continue;
    }
    // Every declared span must have its sN_name field, and no extras.
    std::size_t named = 0;
    for (std::size_t pos = line.find("_name\":"); pos != std::string::npos;
         pos = line.find("_name\":", pos + 1)) {
      ++named;
    }
    if (named != static_cast<std::size_t>(*spans)) {
      fail("span count disagrees with sN_name fields (spans=" +
               std::to_string(static_cast<std::size_t>(*spans)) +
               ", named=" + std::to_string(named) + ")",
           line_no, line);
    }
  }
  if (records == 0) {
    std::fprintf(stderr,
                 "FAIL: tasktraces file %s has no records (sampling "
                 "produced nothing)\n",
                 path.c_str());
    ++failures;
  }
  std::printf("tasktraces %s: %zu lines, %zu records, %zu terminal\n",
              path.c_str(), line_no, records, complete);
  return failures == 0 ? 0 : 1;
}

// ----------------------------------------------------------- --flight --

/// The recorder's closed kind vocabulary (mirrors obs::FlightKind; this
/// tool revalidates the on-disk formats without linking the library).
const char* const kFlightKinds[] = {
    "none",         "round_begin", "round_end",   "batch_formed",
    "solver_iters", "admission",   "rate_change", "http_begin",
    "http_end",     "queue_transition", "retrain", "watchdog_stall",
};
constexpr std::size_t kFlightKindCount =
    sizeof(kFlightKinds) / sizeof(kFlightKinds[0]);

std::uint64_t read_u64le(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

/// Raw crash dump: 64-byte header, then per ring [index u64, head u64] +
/// capacity 64-byte slots of raw seqlock words. Written from a signal
/// handler while other threads may still be recording, so slot checks
/// allow a slot to run at most one full ring ahead of the captured head.
int check_flight_raw(const std::string& path,
                     const std::vector<unsigned char>& bytes) {
  if (bytes.size() < 64) {
    std::fprintf(stderr, "FAIL: flight dump shorter than its header\n");
    ++failures;
    return 1;
  }
  const std::uint64_t signal_number = read_u64le(&bytes[8]);
  const std::uint64_t ring_count = read_u64le(&bytes[16]);
  const std::uint64_t capacity = read_u64le(&bytes[24]);
  const std::uint64_t event_bytes = read_u64le(&bytes[32]);
  const std::uint64_t events_total = read_u64le(&bytes[40]);
  const std::uint64_t dropped_total = read_u64le(&bytes[48]);
  if (event_bytes != 64) {
    std::fprintf(stderr, "FAIL: flight header event_bytes %llu != 64\n",
                 static_cast<unsigned long long>(event_bytes));
    ++failures;
  }
  // ring_count 0 is legal: the process crashed before any thread recorded
  // an event, so the dump is just the header.
  if (ring_count > 0xFFFF) {
    std::fprintf(stderr, "FAIL: flight header ring_count %llu implausible\n",
                 static_cast<unsigned long long>(ring_count));
    ++failures;
    return 1;
  }
  if (capacity == 0 || (capacity & (capacity - 1)) != 0) {
    std::fprintf(stderr,
                 "FAIL: flight header ring capacity %llu not a power of "
                 "two\n",
                 static_cast<unsigned long long>(capacity));
    ++failures;
    return 1;
  }
  const std::uint64_t expected =
      64 + ring_count * (16 + capacity * 64);
  if (bytes.size() != expected) {
    std::fprintf(stderr,
                 "FAIL: flight dump truncated: %zu bytes, expected %llu "
                 "(%llu rings x %llu slots)\n",
                 bytes.size(), static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(ring_count),
                 static_cast<unsigned long long>(capacity));
    ++failures;
    return 1;
  }
  std::size_t live_slots = 0;
  for (std::uint64_t r = 0; r < ring_count; ++r) {
    const std::size_t base =
        64 + static_cast<std::size_t>(r * (16 + capacity * 64));
    const std::uint64_t index = read_u64le(&bytes[base]);
    const std::uint64_t head = read_u64le(&bytes[base + 8]);
    if (index != r) {
      std::fprintf(stderr, "FAIL: ring %llu header carries index %llu\n",
                   static_cast<unsigned long long>(r),
                   static_cast<unsigned long long>(index));
      ++failures;
    }
    for (std::uint64_t s = 0; s < capacity; ++s) {
      const unsigned char* slot =
          &bytes[base + 16 + static_cast<std::size_t>(s) * 64];
      const std::uint64_t seq = read_u64le(slot);
      if (seq == 0) {
        continue;  // empty, or caught mid-write by the crash
      }
      if ((seq - 1) % capacity != s) {
        std::fprintf(stderr,
                     "FAIL: ring %llu slot %llu holds seq %llu, which maps "
                     "to slot %llu\n",
                     static_cast<unsigned long long>(r),
                     static_cast<unsigned long long>(s),
                     static_cast<unsigned long long>(seq),
                     static_cast<unsigned long long>((seq - 1) % capacity));
        ++failures;
        continue;
      }
      if (seq > head + capacity) {
        std::fprintf(stderr,
                     "FAIL: ring %llu slot %llu seq %llu is more than one "
                     "ring ahead of head %llu\n",
                     static_cast<unsigned long long>(r),
                     static_cast<unsigned long long>(s),
                     static_cast<unsigned long long>(seq),
                     static_cast<unsigned long long>(head));
        ++failures;
        continue;
      }
      const std::uint64_t packed = read_u64le(slot + 56);
      const std::uint64_t kind = packed & 0xFFFF;
      const std::uint64_t thread = (packed >> 16) & 0xFFFF;
      if (kind == 0 || kind >= kFlightKindCount) {
        std::fprintf(stderr,
                     "FAIL: ring %llu slot %llu carries unknown kind %llu\n",
                     static_cast<unsigned long long>(r),
                     static_cast<unsigned long long>(s),
                     static_cast<unsigned long long>(kind));
        ++failures;
      }
      if (thread != r) {
        std::fprintf(stderr,
                     "FAIL: ring %llu slot %llu carries thread %llu\n",
                     static_cast<unsigned long long>(r),
                     static_cast<unsigned long long>(s),
                     static_cast<unsigned long long>(thread));
        ++failures;
      }
      ++live_slots;
    }
  }
  std::printf("flight raw dump %s: signal %llu, %llu rings x %llu slots, "
              "%zu live events (%llu recorded, %llu dropped)\n",
              path.c_str(), static_cast<unsigned long long>(signal_number),
              static_cast<unsigned long long>(ring_count),
              static_cast<unsigned long long>(capacity), live_slots,
              static_cast<unsigned long long>(events_total),
              static_cast<unsigned long long>(dropped_total));
  return failures == 0 ? 0 : 1;
}

/// JSONL dump (watchdog stall / orderly shutdown): flight_meta first,
/// then heartbeat and event records; per-thread seqs strictly increase.
int check_flight_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open flight file %s\n", path.c_str());
    return 2;
  }
  std::string line;
  std::size_t line_no = 0;
  std::size_t heartbeats = 0;
  std::size_t events = 0;
  bool meta_seen = false;
  double meta_events_total = 0.0;
  std::vector<std::uint64_t> last_seq;  // indexed by thread ordinal
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line.front() != '{' || line.back() != '}') {
      fail("flight record truncated or not a JSON object", line_no, line);
      continue;
    }
    const auto record = json_string_field(line, "record");
    if (!record.has_value()) {
      fail("flight record without a record tag", line_no, line);
      continue;
    }
    if (*record == "flight_meta") {
      if (meta_seen) {
        fail("second flight_meta record", line_no, line);
      }
      if (line_no != 1) {
        fail("flight_meta is not the first record", line_no, line);
      }
      meta_seen = true;
      if (!json_string_field(line, "reason").has_value()) {
        fail("flight_meta without a reason", line_no, line);
      }
      meta_events_total = json_field(line, "events_total").value_or(-1.0);
      if (meta_events_total < 0.0 ||
          !json_field(line, "ring_capacity").has_value() ||
          !json_field(line, "threads").has_value()) {
        fail("flight_meta missing counters", line_no, line);
      }
    } else if (*record == "heartbeat") {
      ++heartbeats;
      const auto name = json_string_field(line, "name");
      if (!name.has_value() || name->empty()) {
        fail("heartbeat record without a name", line_no, line);
      }
      if (!json_field(line, "age_seconds").has_value()) {
        fail("heartbeat record without age_seconds", line_no, line);
      }
    } else if (*record == "event") {
      ++events;
      const auto thread = json_field(line, "thread");
      const auto seq = json_field(line, "seq");
      const auto kind = json_string_field(line, "kind");
      if (!thread || !seq || !json_field(line, "wall_ns") ||
          !json_field(line, "t_hours")) {
        fail("event record missing fields", line_no, line);
        continue;
      }
      bool known = false;
      for (std::size_t i = 1; i < kFlightKindCount; ++i) {
        if (kind.has_value() && *kind == kFlightKinds[i]) {
          known = true;
          break;
        }
      }
      if (!known) {
        fail("event record with unknown kind", line_no, line);
      }
      const auto t = static_cast<std::size_t>(*thread);
      if (t >= last_seq.size()) {
        last_seq.resize(t + 1, 0);
      }
      if (*seq <= static_cast<double>(last_seq[t])) {
        fail("per-thread event seq not strictly increasing", line_no, line);
      }
      last_seq[t] = static_cast<std::uint64_t>(*seq);
    } else {
      fail("unknown flight record tag '" + *record + "'", line_no, line);
    }
  }
  if (!meta_seen) {
    std::fprintf(stderr, "FAIL: flight file %s has no flight_meta record\n",
                 path.c_str());
    ++failures;
  }
  if (meta_seen && meta_events_total > 0.0 && events == 0) {
    std::fprintf(stderr,
                 "FAIL: flight_meta reports %.0f events but the dump "
                 "carries none\n",
                 meta_events_total);
    ++failures;
  }
  std::printf("flight jsonl %s: %zu lines, %zu heartbeats, %zu events "
              "across %zu threads\n",
              path.c_str(), line_no, heartbeats, events, last_seq.size());
  return failures == 0 ? 0 : 1;
}

int check_profile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open profile file %s\n", path.c_str());
    return 2;
  }
  const char* kStages[] = {"embed", "predict", "match", "attribute",
                           "dispatch"};
  bool stage_anchor_seen[5] = {false, false, false, false, false};
  std::size_t sampled_stacks = 0;
  std::size_t stage_tagged_stacks = 0;
  std::uint64_t total_count = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      fail("empty line in folded profile", line_no, line);
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      fail("folded line is not 'stack count'", line_no, line);
      continue;
    }
    const char* count_end = line.data() + line.size();
    std::uint64_t count = 0;
    const auto [count_ptr, count_ec] =
        std::from_chars(line.data() + space + 1, count_end, count);
    if (count_ec != std::errc{} || count_ptr != count_end || count == 0) {
      fail("folded count is not a positive integer", line_no, line);
      continue;
    }
    total_count += count;
    // Frames: ';'-separated, none empty (an empty frame means a stray
    // separator slipped through sanitization).
    const std::string stack = line.substr(0, space);
    std::size_t begin = 0;
    bool frames_ok = true;
    while (begin <= stack.size()) {
      const std::size_t semi = stack.find(';', begin);
      const std::size_t end = semi == std::string::npos ? stack.size() : semi;
      if (end == begin) {
        frames_ok = false;
        break;
      }
      if (semi == std::string::npos) {
        break;
      }
      begin = semi + 1;
    }
    if (!frames_ok) {
      fail("folded stack has an empty frame", line_no, line);
      continue;
    }
    if (stack.rfind("[stage_totals];", 0) == 0) {
      const std::string stage = stack.substr(std::strlen("[stage_totals];"));
      for (std::size_t s = 0; s < 5; ++s) {
        if (stage == kStages[s]) {
          stage_anchor_seen[s] = true;
        }
      }
    } else {
      ++sampled_stacks;
      if (stack.find(";stage:") != std::string::npos) {
        ++stage_tagged_stacks;
      }
    }
  }
  if (line_no == 0) {
    std::fprintf(stderr, "FAIL: profile file %s is empty\n", path.c_str());
    ++failures;
  }
  for (std::size_t s = 0; s < 5; ++s) {
    if (!stage_anchor_seen[s]) {
      std::fprintf(stderr,
                   "FAIL: profile missing [stage_totals];%s anchor\n",
                   kStages[s]);
      ++failures;
    }
  }
  if (sampled_stacks == 0) {
    std::fprintf(stderr,
                 "FAIL: profile has no sampled stacks (anchors only)\n");
    ++failures;
  } else if (stage_tagged_stacks == 0) {
    std::fprintf(stderr,
                 "FAIL: no sampled stack carries a stage: tag\n");
    ++failures;
  }
  std::printf("profile %s: %zu lines, %zu sampled stacks (%zu stage-"
              "tagged), total count %llu\n",
              path.c_str(), line_no, sampled_stacks, stage_tagged_stacks,
              static_cast<unsigned long long>(total_count));
  return failures == 0 ? 0 : 1;
}

int check_flight(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open flight file %s\n", path.c_str());
    return 2;
  }
  std::vector<unsigned char> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (bytes.size() >= 8 && std::memcmp(bytes.data(), "MFCPFLT1", 8) == 0) {
    return check_flight_raw(path, bytes);
  }
  return check_flight_jsonl(path);
}

// ----------------------------------------------------------- --storage --
// Independent re-implementations of the durability layer's formats (the
// layouts documented in src/storage/*.hpp). Deliberately not linked
// against mfcp_storage: the writer's own code never vouches for its own
// output.

constexpr std::size_t kWalHeaderBytes = 8;    // len u32 | crc u32
constexpr std::size_t kWalPayloadBytes = 49;  // fixed record payload

/// IEEE 802.3 CRC32 (reflected, init/final 0xFFFFFFFF).
std::uint32_t wal_crc32(const unsigned char* data, std::size_t n) {
  static std::uint32_t table[256];
  static bool ready = false;
  if (!ready) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    ready = true;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t load_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t load_u64le(const unsigned char* p) {
  return static_cast<std::uint64_t>(load_u32le(p)) |
         static_cast<std::uint64_t>(load_u32le(p + 4)) << 32;
}

int check_storage(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::fprintf(stderr, "cannot open storage dir %s\n", dir.c_str());
    return 2;
  }

  // --- wal/wal-*.log ------------------------------------------------------
  std::map<unsigned, fs::path> segments;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir) / "wal", ec)) {
    const std::string name = entry.path().filename().string();
    unsigned idx = 0;
    char overflow = 0;
    if (name.size() == 16 &&
        std::sscanf(name.c_str(), "wal-%8u.log%c", &idx, &overflow) == 1) {
      segments[idx] = entry.path();
    }
  }
  std::uint64_t wal_frames = 0;
  std::uint64_t last_seq = 0;
  std::set<std::uint64_t> accepted_ids;
  std::set<std::uint64_t> terminal_ids;
  std::size_t seg_seen = 0;
  for (const auto& [idx, path] : segments) {
    ++seg_seen;
    const bool newest = seg_seen == segments.size();
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      std::fprintf(stderr, "cannot open WAL segment %s\n", path.c_str());
      return 2;
    }
    std::vector<unsigned char> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    std::size_t off = 0;
    while (off < bytes.size()) {
      std::string bad;  // first grammar violation at this offset
      if (off + kWalHeaderBytes + kWalPayloadBytes > bytes.size()) {
        bad = "partial frame";
      } else if (load_u32le(&bytes[off]) != kWalPayloadBytes) {
        bad = "frame length is not the fixed payload size";
      } else if (load_u32le(&bytes[off + 4]) !=
                 wal_crc32(&bytes[off + kWalHeaderBytes],
                           kWalPayloadBytes)) {
        bad = "payload CRC mismatch";
      } else {
        const unsigned char* payload = &bytes[off + kWalHeaderBytes];
        const unsigned type = payload[0];
        if (type < 1 || type > 4) {
          bad = "unknown record type " + std::to_string(type);
        }
      }
      if (!bad.empty()) {
        // A crash mid-append legitimately tears the newest segment's
        // tail; anywhere else the log is corrupt.
        if (newest) {
          std::printf("storage: note: torn tail in %s (%zu bytes at "
                      "offset %zu: %s)\n",
                      path.filename().string().c_str(), bytes.size() - off,
                      off, bad.c_str());
        } else {
          fail("WAL corruption in sealed segment (" + bad + ")", off,
               path.string());
        }
        break;
      }
      const unsigned char* payload = &bytes[off + kWalHeaderBytes];
      const std::uint64_t seq = load_u64le(payload + 1);
      if (seq <= last_seq) {
        fail("WAL sequence not strictly increasing (" +
                 std::to_string(seq) + " after " +
                 std::to_string(last_seq) + ")",
             off, path.string());
      }
      last_seq = seq;
      const std::uint64_t task_id = load_u64le(payload + 9);
      if (payload[0] == 1) {
        accepted_ids.insert(task_id);
      } else {
        terminal_ids.insert(task_id);
      }
      ++wal_frames;
      off += kWalHeaderBytes + kWalPayloadBytes;
    }
  }
  std::size_t outstanding = 0;
  for (const std::uint64_t id : accepted_ids) {
    outstanding += terminal_ids.count(id) == 0 ? 1 : 0;
  }

  // --- checkpoints/ -------------------------------------------------------
  std::map<std::uint64_t, fs::path> snapshots;
  const fs::path ckpt_dir = fs::path(dir) / "checkpoints";
  for (const fs::directory_entry& entry :
       fs::directory_iterator(ckpt_dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long gen = 0;
    char overflow = 0;
    if (name.size() == 22 &&
        std::sscanf(name.c_str(), "snapshot-%8llu.ckpt%c", &gen,
                    &overflow) == 1) {
      snapshots[gen] = entry.path();
    }
  }
  // Every retained snapshot carries the wrapper header; remember each
  // generation's recorded wal_seq for the manifest cross-check.
  std::map<std::uint64_t, std::uint64_t> snapshot_wal_seq;
  for (const auto& [gen, path] : snapshots) {
    std::ifstream is(path);
    std::string magic;
    std::string seq_line;
    unsigned long long wal_seq = 0;
    if (!std::getline(is, magic) || magic != "mfcp-storage-snapshot 1") {
      fail("snapshot wrapper magic missing", 1, path.string());
      continue;
    }
    if (!std::getline(is, seq_line) ||
        std::sscanf(seq_line.c_str(), "wal_seq %llu", &wal_seq) != 1) {
      fail("snapshot wal_seq header missing", 2, path.string());
      continue;
    }
    snapshot_wal_seq[gen] = wal_seq;
  }
  std::uint64_t manifest_gen = 0;
  {
    const fs::path manifest = ckpt_dir / "MANIFEST";
    const bool have_manifest = fs::exists(manifest, ec);
    if (!have_manifest && !snapshots.empty()) {
      fail("snapshots on disk but no MANIFEST", 0, manifest.string());
    }
    if (have_manifest) {
      std::ifstream is(manifest);
      std::string magic;
      std::string gen_line;
      std::string snap_line;
      std::string seq_line;
      unsigned long long gen = 0;
      unsigned long long wal_seq = 0;
      char snap_name[64] = {0};
      if (!std::getline(is, magic) ||
          magic != "mfcp-storage-manifest 1" ||
          !std::getline(is, gen_line) ||
          std::sscanf(gen_line.c_str(), "generation %llu", &gen) != 1 ||
          !std::getline(is, snap_line) ||
          std::sscanf(snap_line.c_str(), "snapshot %63s", snap_name) != 1 ||
          !std::getline(is, seq_line) ||
          std::sscanf(seq_line.c_str(), "wal_seq %llu", &wal_seq) != 1) {
        fail("malformed MANIFEST", 0, manifest.string());
      } else {
        manifest_gen = gen;
        char expect[32];
        std::snprintf(expect, sizeof(expect), "snapshot-%08llu.ckpt", gen);
        if (std::strcmp(snap_name, expect) != 0) {
          fail("MANIFEST snapshot name does not match its generation", 3,
               snap_line);
        }
        const auto it = snapshot_wal_seq.find(gen);
        if (snapshots.count(gen) == 0) {
          fail("MANIFEST points at a missing snapshot", 3, snap_line);
        } else if (it != snapshot_wal_seq.end() && it->second != wal_seq) {
          fail("MANIFEST wal_seq disagrees with its snapshot's header", 4,
               seq_line);
        }
      }
    }
  }

  // --- journal/chunk-*.jsonl ----------------------------------------------
  std::map<long long, fs::path> chunk_files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir) / "journal", ec)) {
    const std::string name = entry.path().filename().string();
    long long k = 0;
    char overflow = 0;
    if (name.size() == 20 &&
        std::sscanf(name.c_str(), "chunk-%8lld.jsonl%c", &k, &overflow) ==
            1) {
      chunk_files[k] = entry.path();
    }
  }
  std::uint64_t chunk_records = 0;
  std::size_t chunk_seen = 0;
  for (const auto& [k, path] : chunk_files) {
    ++chunk_seen;
    const bool newest = chunk_seen == chunk_files.size();
    std::ifstream is(path);
    std::string line;
    std::size_t line_no = 0;
    std::uint64_t records = 0;
    std::uint64_t payload_bytes = 0;
    bool footer_seen = false;
    while (std::getline(is, line)) {
      ++line_no;
      if (footer_seen) {
        fail("journal chunk has content after its index footer", line_no,
             path.string());
        break;
      }
      if (line.rfind("#mfcp-chunk-index v1", 0) == 0) {
        long long fk = 0;
        unsigned long long frecords = 0;
        unsigned long long fbytes = 0;
        double fmin = 0.0;
        double fmax = 0.0;
        if (std::sscanf(line.c_str(),
                        "#mfcp-chunk-index v1 chunk=%lld records=%llu "
                        "min_hours=%lg max_hours=%lg payload_bytes=%llu",
                        &fk, &frecords, &fmin, &fmax, &fbytes) != 5) {
          fail("malformed chunk index footer", line_no, line);
        } else {
          if (fk != k) {
            fail("footer chunk id does not match the filename", line_no,
                 line);
          }
          if (frecords != records) {
            fail("footer record count " + std::to_string(frecords) +
                     " != recounted " + std::to_string(records),
                 line_no, line);
          }
          if (fbytes != payload_bytes) {
            fail("footer payload_bytes " + std::to_string(fbytes) +
                     " != recounted " + std::to_string(payload_bytes),
                 line_no, line);
          }
          if (records > 0 && fmin > fmax) {
            fail("footer min_hours exceeds max_hours", line_no, line);
          }
        }
        footer_seen = true;
        continue;
      }
      if (line.empty() || line.front() != '{' || line.back() != '}') {
        fail("journal chunk line is neither a JSON record nor the footer",
             line_no, path.string());
        continue;
      }
      ++records;
      payload_bytes += line.size() + 1;
    }
    if (!footer_seen && !newest) {
      fail("sealed journal chunk is missing its index footer", line_no,
           path.string());
    }
    chunk_records += records;
  }

  std::printf("storage %s: wal segments=%zu frames=%" PRIu64
              " (accepted=%zu terminal=%zu outstanding=%zu), "
              "checkpoints=%zu (manifest generation %" PRIu64
              "), journal chunks=%zu records=%" PRIu64 "\n",
              dir.c_str(), segments.size(), wal_frames,
              accepted_ids.size(), terminal_ids.size(), outstanding,
              snapshots.size(), manifest_gen, chunk_files.size(),
              chunk_records);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string exposition_path;
  std::string journal_path;
  std::string tasktraces_path;
  std::string flight_path;
  std::string profile_path;
  std::string storage_dir;
  bool require_attribution = false;
  bool require_gateway = false;
  bool require_slo = false;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--exposition") == 0 && k + 1 < argc) {
      exposition_path = argv[++k];
    } else if (std::strcmp(argv[k], "--journal") == 0 && k + 1 < argc) {
      journal_path = argv[++k];
    } else if (std::strcmp(argv[k], "--tasktraces") == 0 && k + 1 < argc) {
      tasktraces_path = argv[++k];
    } else if (std::strcmp(argv[k], "--flight") == 0 && k + 1 < argc) {
      flight_path = argv[++k];
    } else if (std::strcmp(argv[k], "--profile") == 0 && k + 1 < argc) {
      profile_path = argv[++k];
    } else if (std::strcmp(argv[k], "--storage") == 0 && k + 1 < argc) {
      storage_dir = argv[++k];
    } else if (std::strcmp(argv[k], "--require-attribution") == 0) {
      require_attribution = true;
    } else if (std::strcmp(argv[k], "--require-gateway") == 0) {
      require_gateway = true;
    } else if (std::strcmp(argv[k], "--require-slo") == 0) {
      require_slo = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--exposition <file>] [--journal <file>] "
                   "[--tasktraces <file>] [--flight <file>] "
                   "[--profile <file>] [--storage <dir>] "
                   "[--require-attribution] [--require-gateway] "
                   "[--require-slo]\n",
                   argv[0]);
      return 2;
    }
  }
  if (exposition_path.empty() && journal_path.empty() &&
      tasktraces_path.empty() && flight_path.empty() &&
      profile_path.empty() && storage_dir.empty()) {
    std::fprintf(stderr, "nothing to check (see --help usage)\n");
    return 2;
  }
  int rc = 0;
  if (!exposition_path.empty()) {
    rc = std::max(rc, check_exposition(exposition_path, require_gateway,
                                       require_slo));
  }
  if (!journal_path.empty()) {
    rc = std::max(rc, check_journal(journal_path, require_attribution));
  }
  if (!tasktraces_path.empty()) {
    rc = std::max(rc, check_tasktraces(tasktraces_path));
  }
  if (!flight_path.empty()) {
    rc = std::max(rc, check_flight(flight_path));
  }
  if (!profile_path.empty()) {
    rc = std::max(rc, check_profile(profile_path));
  }
  if (!storage_dir.empty()) {
    rc = std::max(rc, check_storage(storage_dir));
  }
  if (rc == 0) {
    std::printf("obs_selfcheck: all checks passed\n");
  }
  return rc;
}
