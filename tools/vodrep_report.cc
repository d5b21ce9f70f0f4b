// vodrep_report — renders a vodrep run report (the JSON emitted by
// `vodrep_plan --report-out` or built via src/sim/run_report.h) as a single
// self-contained static HTML page with inline SVG charts: the L(t) load
// timeline with controller replan annotations, per-server link
// utilizations, the rejection-rate trajectory, the typed rejection
// breakdown, and — when the report carries a `profile` section (vodrep_plan
// --profile-out) — a flame-style chart of the run's phase wall times.  No
// external dependencies, no JavaScript — the page is plain
// markup, so it renders anywhere and diffs cleanly in CI artifacts.
//
//   vodrep_report --input=report.json --output=report.html
//   vodrep_report --input=report.json --validate-only
//
// Every invocation validates the report against the versioned schema
// (src/obs/report.h) first and exits non-zero listing the problems when it
// does not conform, so the tool doubles as the CI schema gate.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json_lite.h"
#include "src/obs/report.h"
#include "src/util/cli.h"
#include "src/util/error.h"

namespace {

using namespace vodrep;
using obs::JsonValue;

// Observable-10 palette (colorblind-safe), cycled over server series.
const char* const kPalette[] = {"#4269d0", "#efb118", "#ff725c", "#6cc5b0",
                                "#3ca951", "#ff8ab7", "#a463f2", "#97bbf5",
                                "#9c6b4e", "#9498a0"};
constexpr std::size_t kPaletteSize = sizeof(kPalette) / sizeof(kPalette[0]);

constexpr double kPlotW = 640.0;
constexpr double kPlotH = 220.0;
constexpr double kMarginL = 56.0;
constexpr double kMarginR = 16.0;
constexpr double kMarginT = 14.0;
constexpr double kMarginB = 34.0;

std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt(double value, int precision = 3) {
  std::ostringstream os;
  os.precision(precision);
  os << value;
  return os.str();
}

std::vector<double> number_array(const JsonValue& array) {
  std::vector<double> out;
  out.reserve(array.size());
  for (const JsonValue& v : array.items()) out.push_back(v.as_number());
  return out;
}

/// Maps one data series to an SVG polyline "points" attribute within the
/// plot rectangle.  `x` and `y` must be equally sized.
std::string polyline_points(const std::vector<double>& x,
                            const std::vector<double>& y, double x_min,
                            double x_max, double y_min, double y_max) {
  const double x_span = x_max - x_min > 0.0 ? x_max - x_min : 1.0;
  const double y_span = y_max - y_min > 0.0 ? y_max - y_min : 1.0;
  std::ostringstream os;
  os.precision(6);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double px =
        kMarginL + (x[i] - x_min) / x_span * (kPlotW - kMarginL - kMarginR);
    const double py = kMarginT +
                      (1.0 - (y[i] - y_min) / y_span) *
                          (kPlotH - kMarginT - kMarginB);
    if (i > 0) os << ' ';
    os << px << ',' << py;
  }
  return os.str();
}

double x_to_px(double value, double x_min, double x_max) {
  const double span = x_max - x_min > 0.0 ? x_max - x_min : 1.0;
  return kMarginL + (value - x_min) / span * (kPlotW - kMarginL - kMarginR);
}

/// A "nice" rounded upper bound for the y axis so tick labels are readable.
double nice_ceiling(double value) {
  if (value <= 0.0) return 1.0;
  const double magnitude = std::pow(10.0, std::floor(std::log10(value)));
  for (double mult : {1.0, 2.0, 2.5, 5.0, 10.0}) {
    if (value <= mult * magnitude) return mult * magnitude;
  }
  return 10.0 * magnitude;
}

struct Series {
  std::string label;
  std::string color;
  std::vector<double> y;
};

/// One framed line chart: axes, four horizontal gridlines with labels, the
/// series, and optional vertical annotation markers.
void write_line_chart(std::ostream& os, const std::string& title,
                      const std::vector<double>& x,
                      const std::vector<Series>& series,
                      const std::vector<std::pair<double, std::string>>&
                          annotations = {}) {
  const double x_min = x.empty() ? 0.0 : x.front();
  const double x_max = x.empty() ? 1.0 : x.back();
  double y_max = 0.0;
  for (const Series& s : series) {
    for (double v : s.y) y_max = std::max(y_max, v);
  }
  y_max = nice_ceiling(y_max);

  os << "<figure><figcaption>" << html_escape(title) << "</figcaption>\n"
     << "<svg viewBox=\"0 0 " << kPlotW << ' ' << kPlotH
     << "\" role=\"img\">\n";
  // Frame + horizontal gridlines with y labels.
  const double inner_bottom = kPlotH - kMarginB;
  os << "<rect x=\"" << kMarginL << "\" y=\"" << kMarginT << "\" width=\""
     << kPlotW - kMarginL - kMarginR << "\" height=\""
     << inner_bottom - kMarginT
     << "\" fill=\"none\" stroke=\"#d0d4da\"/>\n";
  for (int tick = 0; tick <= 4; ++tick) {
    const double frac = static_cast<double>(tick) / 4.0;
    const double py = kMarginT + (1.0 - frac) * (inner_bottom - kMarginT);
    if (tick > 0 && tick < 4) {
      os << "<line x1=\"" << kMarginL << "\" y1=\"" << py << "\" x2=\""
         << kPlotW - kMarginR << "\" y2=\"" << py
         << "\" stroke=\"#eceef1\"/>\n";
    }
    os << "<text x=\"" << kMarginL - 6 << "\" y=\"" << py + 3
       << "\" text-anchor=\"end\" class=\"tick\">" << fmt(frac * y_max)
       << "</text>\n";
  }
  // X labels: min, mid, max (seconds).
  for (double frac : {0.0, 0.5, 1.0}) {
    const double value = x_min + frac * (x_max - x_min);
    os << "<text x=\"" << x_to_px(value, x_min, x_max) << "\" y=\""
       << inner_bottom + 16 << "\" text-anchor=\"middle\" class=\"tick\">"
       << fmt(value, 4) << "s</text>\n";
  }
  // Annotation markers.
  for (const auto& [time, label] : annotations) {
    const double px = x_to_px(time, x_min, x_max);
    const bool skipped = label == "replan_skipped";
    os << "<line x1=\"" << px << "\" y1=\"" << kMarginT << "\" x2=\"" << px
       << "\" y2=\"" << inner_bottom << "\" stroke=\""
       << (skipped ? "#9498a0" : "#ff725c")
       << "\" stroke-dasharray=\"4 3\"><title>" << html_escape(label)
       << " @ " << fmt(time, 5) << "s</title></line>\n";
  }
  for (const Series& s : series) {
    os << "<polyline fill=\"none\" stroke=\"" << s.color
       << "\" stroke-width=\"1.5\" points=\""
       << polyline_points(x, s.y, x_min, x_max, 0.0, y_max) << "\"><title>"
       << html_escape(s.label) << "</title></polyline>\n";
  }
  os << "</svg>\n";
  if (series.size() > 1) {
    os << "<p class=\"legend\">";
    for (const Series& s : series) {
      os << "<span style=\"color:" << s.color << "\">&#9632; "
         << html_escape(s.label) << "</span> ";
    }
    os << "</p>\n";
  }
  os << "</figure>\n";
}

void write_reason_bars(std::ostream& os, const JsonValue& rejections) {
  const auto total = rejections.at("total").as_uint();
  os << "<figure><figcaption>Rejections by reason (total " << total
     << ")</figcaption>\n<table class=\"bars\">\n";
  std::uint64_t max_count = 1;
  for (const auto& [name, count] : rejections.at("by_reason").members()) {
    (void)name;
    max_count = std::max(max_count, count.as_uint());
  }
  std::size_t color = 0;
  for (const auto& [name, count] : rejections.at("by_reason").members()) {
    const auto value = count.as_uint();
    const double width =
        300.0 * static_cast<double>(value) / static_cast<double>(max_count);
    os << "<tr><td>" << html_escape(name) << "</td><td><div style=\"width:"
       << fmt(std::max(width, value > 0 ? 2.0 : 0.0))
       << "px;background:" << kPalette[color % kPaletteSize]
       << "\" class=\"bar\"></div></td><td>" << value << "</td></tr>\n";
    ++color;
  }
  os << "</table></figure>\n";
}

void write_stat_tiles(std::ostream& os, const JsonValue& final_section,
                      const JsonValue& events) {
  const auto requests = final_section.at("total_requests").as_uint();
  const auto rejected = final_section.at("rejected").as_uint();
  os << "<div class=\"tiles\">\n";
  auto tile = [&os](const std::string& label, const std::string& value) {
    os << "<div class=\"tile\"><div class=\"value\">" << value
       << "</div><div class=\"label\">" << html_escape(label)
       << "</div></div>\n";
  };
  tile("requests", std::to_string(requests));
  tile("rejected",
       std::to_string(rejected) + " (" +
           fmt(100.0 * final_section.at("rejection_rate").as_number()) + "%)");
  tile("mean L (Eq. 2)",
       fmt(100.0 * final_section.at("mean_imbalance_eq2").as_number()) + "%");
  tile("peak L (Eq. 2)",
       fmt(100.0 * final_section.at("peak_imbalance_eq2").as_number()) + "%");
  tile("mean utilization",
       fmt(100.0 * final_section.at("mean_utilization").as_number()) + "%");
  tile("event log",
       std::to_string(events.at("num_records").as_uint()) + " kept / " +
           std::to_string(events.at("dropped").as_uint()) + " dropped");
  os << "</div>\n";
}

/// Depth of a phase subtree (a leaf is 1).
int phase_depth(const JsonValue& node) {
  int deepest = 1;
  for (const JsonValue& child : node.at("children").items()) {
    deepest = std::max(deepest, 1 + phase_depth(child));
  }
  return deepest;
}

/// One rectangle of the flame-style (icicle) profile chart, then its
/// children nested underneath, each child's width proportional to its share
/// of the parent's wall time.  `color` advances through the palette in
/// traversal order so the layout (and therefore the rendered page) is
/// deterministic for a given report.
void write_flame_node(std::ostream& os, const JsonValue& node, double x0,
                      double width, int depth, std::size_t& color) {
  constexpr double kRowH = 22.0;
  constexpr double kGapY = 2.0;
  const double y = kMarginT + static_cast<double>(depth) * (kRowH + kGapY);
  const auto wall = node.at("wall_ns").as_uint();
  const auto cpu = node.at("cpu_ns").as_uint();
  const auto count = node.at("count").as_uint();
  const std::string name = node.at("name").as_string();
  os << "<rect x=\"" << fmt(x0, 6) << "\" y=\"" << y << "\" width=\""
     << fmt(std::max(width - 1.0, 0.5), 6) << "\" height=\"" << kRowH
     << "\" rx=\"2\" fill=\"" << kPalette[color % kPaletteSize]
     << "\" fill-opacity=\"0.85\"><title>" << html_escape(name) << ": "
     << fmt(static_cast<double>(wall) / 1e6) << " ms wall, "
     << fmt(static_cast<double>(cpu) / 1e6) << " ms cpu, " << count
     << " call" << (count == 1 ? "" : "s") << "</title></rect>\n";
  ++color;
  if (width > 48.0) {
    os << "<text x=\"" << fmt(x0 + 4.0, 6) << "\" y=\"" << y + 15
       << "\" class=\"flame\">" << html_escape(name) << " "
       << fmt(static_cast<double>(wall) / 1e6) << "ms</text>\n";
  }
  double child_x = x0;
  for (const JsonValue& child : node.at("children").items()) {
    const auto child_wall = child.at("wall_ns").as_uint();
    const double child_width =
        wall > 0 ? width * static_cast<double>(child_wall) /
                       static_cast<double>(wall)
                 : 0.0;
    write_flame_node(os, child, child_x, child_width, depth + 1, color);
    child_x += child_width;
  }
}

/// Flame-style rendering of the optional `profile` section: one row per
/// nesting depth (roots on top), bar width proportional to wall time, with
/// the RSS high water and trace-buffer health in the caption line.
void write_profile_flame(std::ostream& os, const JsonValue& profile) {
  const JsonValue& phases = profile.at("phases");
  std::uint64_t total = 0;
  int depth = 0;
  for (const JsonValue& root : phases.items()) {
    total += root.at("wall_ns").as_uint();
    depth = std::max(depth, phase_depth(root));
  }
  os << "<figure><figcaption>Run profile &mdash; wall-time phases (total "
     << fmt(static_cast<double>(total) / 1e6) << " ms)</figcaption>\n";
  if (total == 0 || phases.size() == 0) {
    os << "<p>(profiler enabled but no phases recorded)</p>\n</figure>\n";
    return;
  }
  const double height =
      kMarginT * 2.0 + static_cast<double>(depth) * 24.0;
  os << "<svg viewBox=\"0 0 " << kPlotW << ' ' << height
     << "\" role=\"img\">\n";
  std::size_t color = 0;
  double x = 0.0;
  for (const JsonValue& root : phases.items()) {
    const double width = kPlotW * static_cast<double>(
                                      root.at("wall_ns").as_uint()) /
                         static_cast<double>(total);
    write_flame_node(os, root, x, width, 0, color);
    x += width;
  }
  os << "</svg>\n<p class=\"legend\">max RSS "
     << profile.at("max_rss_kb").as_uint() << " KiB";
  if (profile.has("trace")) {
    os << " &middot; trace events: "
       << profile.at("trace").at("recorded").as_uint() << " recorded, "
       << profile.at("trace").at("dropped").as_uint() << " dropped";
  }
  os << "</p>\n</figure>\n";
}

void render_html(std::ostream& os, const JsonValue& report) {
  const JsonValue& timeline = report.at("timeline");
  const std::vector<double> time = number_array(timeline.at("time"));

  os << "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n"
     << "<title>vodrep run report</title>\n<style>\n"
     << "body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;"
        "max-width:720px;color:#1b1e23}\n"
     << "figure{margin:1.5em 0}figcaption{font-weight:600;margin:0 0 .4em}\n"
     << "svg{width:100%;height:auto;display:block}\n"
     << ".tick{font-size:10px;fill:#6b7077}\n"
     << ".flame{font-size:10px;fill:#fff;pointer-events:none}\n"
     << ".legend{font-size:12px;margin:.3em 0 0}\n"
     << ".tiles{display:flex;flex-wrap:wrap;gap:10px;margin:1em 0}\n"
     << ".tile{border:1px solid #d0d4da;border-radius:6px;padding:8px 14px}\n"
     << ".tile .value{font-size:18px;font-weight:600}\n"
     << ".tile .label{font-size:11px;color:#6b7077}\n"
     << "table.bars{border-collapse:collapse;font-size:13px}\n"
     << "table.bars td{padding:2px 8px}div.bar{height:14px;"
        "border-radius:2px}\n"
     << "pre{background:#f5f6f8;padding:10px;border-radius:6px;"
        "overflow-x:auto;font-size:12px}\n"
     << "</style></head><body>\n<h1>vodrep run report</h1>\n";

  write_stat_tiles(os, report.at("final"), report.at("events"));

  std::vector<std::pair<double, std::string>> annotations;
  for (const JsonValue& annotation : report.at("annotations").items()) {
    annotations.emplace_back(annotation.at("t").as_number(),
                             annotation.at("label").as_string());
  }

  if (!time.empty()) {
    write_line_chart(
        os, "Load-imbalance degree L(t) (Eq. 2)", time,
        {{"L(t)", kPalette[0], number_array(timeline.at("imbalance_eq2"))}},
        annotations);

    std::vector<Series> util_series;
    const JsonValue& per_server = timeline.at("utilization_per_server");
    for (std::size_t s = 0; s < per_server.size(); ++s) {
      util_series.push_back({"server " + std::to_string(s),
                             kPalette[s % kPaletteSize],
                             number_array(per_server.items()[s])});
    }
    write_line_chart(os, "Per-server link utilization l_j(t) / B_j", time,
                     util_series, annotations);

    // Rejection rate: cumulative, plus the per-interval (windowed) rate.
    const std::vector<double> requests = number_array(timeline.at("requests"));
    const std::vector<double> rejected = number_array(timeline.at("rejected"));
    std::vector<double> cumulative(time.size(), 0.0);
    std::vector<double> windowed(time.size(), 0.0);
    for (std::size_t i = 0; i < time.size(); ++i) {
      cumulative[i] = requests[i] > 0.0 ? rejected[i] / requests[i] : 0.0;
      if (i > 0) {
        const double dreq = requests[i] - requests[i - 1];
        windowed[i] = dreq > 0.0 ? (rejected[i] - rejected[i - 1]) / dreq : 0.0;
      }
    }
    write_line_chart(os, "Rejection rate", time,
                     {{"cumulative", kPalette[0], cumulative},
                      {"per interval", kPalette[2], windowed}},
                     annotations);
  } else {
    os << "<p>(no timeline samples in this report)</p>\n";
  }

  write_reason_bars(os, report.at("rejections"));

  if (report.has("profile")) {
    write_profile_flame(os, report.at("profile"));
  }

  os << "<h2>Configuration</h2>\n<pre>" << html_escape(
            report.at("config").dump())
     << "</pre>\n";
  os << "<p class=\"legend\">schema v"
     << report.at("schema_version").as_int() << " &middot; "
     << report.at("timeline").at("num_samples").as_uint()
     << " timeline samples &middot; downsample factor "
     << report.at("timeline").at("downsample_factor").as_uint()
     << " &middot; " << annotations.size() << " annotations</p>\n";
  os << "</body></html>\n";
}

int run(int argc, char** argv) {
  CliFlags flags("vodrep_report",
                 "Validate a vodrep run report and render it as static HTML");
  flags.add_string("input", "", "run-report JSON (from vodrep_plan --report-out)");
  flags.add_string("output", "", "HTML output path (default: <input>.html)");
  flags.add_bool("validate-only", false,
                 "only check the report against the schema, render nothing");
  if (!flags.parse(argc, argv)) return EXIT_SUCCESS;

  const std::string input = flags.get_string("input");
  require(!input.empty(), "--input=<report.json> is required");
  std::ifstream in(input);
  require(static_cast<bool>(in),
          [&] { return "cannot open report file: " + input; });
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const JsonValue report = obs::parse_json(buffer.str());

  const std::vector<std::string> problems = obs::validate_run_report(report);
  if (!problems.empty()) {
    std::cerr << "error: " << input << " is not a valid run report:\n";
    for (const std::string& problem : problems) {
      std::cerr << "  - " << problem << "\n";
    }
    return EXIT_FAILURE;
  }
  std::cout << "report OK: schema v" << report.at("schema_version").as_int()
            << ", " << report.at("timeline").at("num_samples").as_uint()
            << " timeline samples, "
            << report.at("rejections").at("total").as_uint()
            << " rejections\n";
  if (flags.get_bool("validate-only")) return EXIT_SUCCESS;

  std::string output = flags.get_string("output");
  if (output.empty()) output = input + ".html";
  std::ofstream out(output);
  require(out.good(), [&] { return "cannot write html file: " + output; });
  render_html(out, report);
  out.flush();
  require(out.good(), [&] { return "cannot write html file: " + output; });
  std::cout << "html written to " << output << "\n";
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
}
